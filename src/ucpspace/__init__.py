"""Event orthospaces, their state spaces, and the matrix models behind them.

The package is organized bottom-up:

- ``orthospace``: finite event systems with a partial sum and an
  orthocomplement, plus the axiom verifier and standard constructions.
- ``statespace``: exact rational state polytopes over an orthospace,
  conditional states, and the uniqueness check that gates everything above.
- ``jordan``: self-adjoint matrices over the reals, complexes, quaternions,
  and the 3x3 octonion algebra, with spectral decompositions.
- ``lueders``: density-matrix conditioning.
- ``synthesis``: rebuilding an operator-like product from nothing but the
  event system and its conditional states.
- ``observables``: finite spectral resolutions and representability checks.
- ``cli``: the command-line front end (``python -m ucpspace.cli``).
"""

from .errors import (
    CapacityError,
    ConditioningUndefinedError,
    DecompositionError,
    ParseError,
    PreconditionError,
    SizeError,
    StructuralError,
    SynthesisError,
    UcpError,
)
from .orthospace import (
    OrthoSpace,
    boolean_orthospace,
    horizontal_sum,
    projection_orthospace,
    replay_axiom_witness,
    verify_orthospace,
)
from .statespace import (
    State,
    StatePolytope,
    build_state_polytope,
    check_conditional_uniqueness,
    check_mixture_identity,
    check_separation,
    generated_polytope,
    is_state,
    mix_states,
    unique_conditional,
)
from .jordan import (
    JordanElement,
    hermitian_basis,
    jordan_product,
    random_projection,
    spectral_decomposition,
)
from .lueders import DensityState, condition, conditional_probability
from .synthesis import (
    ProductModel,
    SyntheticSpace,
    abstract_synthetic_space,
    build_product_model,
    check_hull_density,
    matrix_synthetic_space,
)
from .observables import (
    FiniteObservable,
    check_conditioned_representability,
    check_sum_representability,
    expectation,
    observable,
    spectral_radius,
)
from .instances import (
    MatrixInstance,
    boolean_state,
    mo_orthospace,
    qubit_instance,
    qutrit_instance,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConditioningUndefinedError",
    "DecompositionError",
    "DensityState",
    "FiniteObservable",
    "JordanElement",
    "MatrixInstance",
    "OrthoSpace",
    "ParseError",
    "PreconditionError",
    "ProductModel",
    "SizeError",
    "State",
    "StatePolytope",
    "StructuralError",
    "SynthesisError",
    "SyntheticSpace",
    "UcpError",
    "abstract_synthetic_space",
    "boolean_orthospace",
    "boolean_state",
    "build_product_model",
    "build_state_polytope",
    "check_conditional_uniqueness",
    "check_conditioned_representability",
    "check_hull_density",
    "check_mixture_identity",
    "check_separation",
    "check_sum_representability",
    "condition",
    "conditional_probability",
    "expectation",
    "generated_polytope",
    "hermitian_basis",
    "horizontal_sum",
    "is_state",
    "jordan_product",
    "matrix_synthetic_space",
    "mix_states",
    "mo_orthospace",
    "observable",
    "projection_orthospace",
    "qubit_instance",
    "qutrit_instance",
    "random_projection",
    "replay_axiom_witness",
    "spectral_decomposition",
    "spectral_radius",
    "unique_conditional",
    "verify_orthospace",
]
