"""Shared fixtures: small spaces and matrix instances reused across modules."""

import numpy as np
import pytest

from ucpspace import instances, orthospace, statespace


@pytest.fixture(scope="session")
def bool2():
    return orthospace.boolean_orthospace(2)


@pytest.fixture(scope="session")
def bool3():
    return orthospace.boolean_orthospace(3)


@pytest.fixture(scope="session")
def bool4():
    return orthospace.boolean_orthospace(4)


@pytest.fixture(scope="session")
def mo2():
    return instances.mo_orthospace(2)


@pytest.fixture(scope="session")
def bool2_poly(bool2):
    return statespace.build_state_polytope(bool2)


@pytest.fixture(scope="session")
def bool3_poly(bool3):
    return statespace.build_state_polytope(bool3)


@pytest.fixture(scope="session")
def bool4_poly(bool4):
    return statespace.build_state_polytope(bool4)


@pytest.fixture(scope="session")
def mo2_poly(mo2):
    return statespace.build_state_polytope(mo2)


@pytest.fixture(scope="session")
def qubit():
    return instances.qubit_instance()


@pytest.fixture(scope="session")
def qutrit():
    return instances.qutrit_instance()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260822)
