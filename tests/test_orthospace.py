"""Axiom verifier, constructions, and the single-entry mutation harness."""

import numpy as np
import pytest

from ucpspace import instances, orthospace
from ucpspace.errors import SizeError, StructuralError
from ucpspace.orthospace import (
    OrthoSpace,
    boolean_orthospace,
    horizontal_sum,
    iterated_sum,
    maximal_orthogonal_families,
    projection_orthospace,
    replay_axiom_witness,
    verify_orthospace,
)


def subset_scan_families(space):
    """Maximal pairwise-orthogonal sets of nonzero events, by scanning every subset."""
    nodes = [e for e in space.events() if e != space.zero]
    m = len(nodes)
    adj = [sum(1 << b for b, u in enumerate(nodes) if u != v and space.ortho[v, u]) for v in nodes]
    cliques = {
        s
        for s in range(1, 1 << m)
        if all(s & ~adj[a] == 1 << a for a in range(m) if s >> a & 1)
    }
    maximal = [s for s in cliques if not any(s | 1 << a in cliques for a in range(m) if not s >> a & 1)]
    return sorted(sorted(nodes[a] for a in range(m) if s >> a & 1) for s in maximal)


def assert_all_pass(report):
    assert not report.structural
    assert report.passed, [tag for tag, v in report.axioms.items() if not v.passed]


class TestVerify:
    def test_boolean_one_atom(self):
        assert_all_pass(verify_orthospace(boolean_orthospace(1)))

    def test_smallest_nondegenerate(self, bool2):
        assert_all_pass(verify_orthospace(bool2))

    @pytest.mark.parametrize("n", [3, 4])
    def test_boolean_exhaustive(self, n):
        assert_all_pass(verify_orthospace(boolean_orthospace(n)))

    def test_mo2(self, mo2):
        assert_all_pass(verify_orthospace(mo2))
        # sanity on the shape: 6 events, a not orthogonal to b
        assert mo2.n_events == 6
        a, b = 1, 3
        assert not mo2.ortho[a, b]

    def test_projection_derived(self, qubit):
        assert_all_pass(verify_orthospace(qubit.system.space))

    def test_noncommutative_sum_caught(self, bool2):
        st = bool2.sum_table.copy()
        # make sum(1, 2) disagree with sum(2, 1)
        st[1, 2] = bool2.unit
        st[2, 1] = bool2.zero
        bad = OrthoSpace(4, bool2.zero, bool2.unit, bool2.ortho, st, bool2.complement)
        report = verify_orthospace(bad)
        assert not report.passed
        tags = [tag for tag, v in report.axioms.items() if not v.passed]
        assert "partial-sum" in tags or "sum-associativity" in tags


class TestMutationHarness:
    """Every single directed table mutation of Boolean(3) must be caught."""

    def test_ortho_flips(self, bool3):
        n = bool3.n_events
        for e in range(n):
            for f in range(n):
                ortho = bool3.ortho.copy()
                ortho[e, f] = not ortho[e, f]
                mutant = OrthoSpace(
                    n, bool3.zero, bool3.unit, ortho, bool3.sum_table, bool3.complement
                )
                report = verify_orthospace(mutant)
                assert not report.passed, f"ortho flip ({e},{f}) undetected"

    def test_sum_entry_rewrites(self, bool3):
        n = bool3.n_events
        rng = np.random.default_rng(7)
        for e in range(n):
            for f in range(n):
                old = int(bool3.sum_table[e, f])
                new = old
                while new == old:
                    new = int(rng.integers(-1, n))
                st = bool3.sum_table.copy()
                st[e, f] = new
                mutant = OrthoSpace(
                    n, bool3.zero, bool3.unit, bool3.ortho, st, bool3.complement
                )
                report = verify_orthospace(mutant)
                assert not (report.passed and not report.structural), (
                    f"sum rewrite ({e},{f}) {old}->{new} undetected"
                )

    def test_complement_rewrites(self, bool3):
        n = bool3.n_events
        for e in range(n):
            for new in range(n):
                if new == int(bool3.complement[e]):
                    continue
                comp = bool3.complement.copy()
                comp[e] = new
                mutant = OrthoSpace(
                    n, bool3.zero, bool3.unit, bool3.ortho, bool3.sum_table, comp
                )
                report = verify_orthospace(mutant)
                assert not (report.passed and not report.structural), (
                    f"complement rewrite {e}->{new} undetected"
                )


class TestWitnessReplay:
    def test_witnesses_replay_on_mutants(self, bool3):
        ortho = bool3.ortho.copy()
        ortho[1, 2] = True  # atoms 1 and 2 are not disjoint subsets? they are; pick overlapping
        ortho[1, 3] = True  # event 3 contains atom 1: genuine violation
        mutant = OrthoSpace(
            bool3.n_events, bool3.zero, bool3.unit, ortho, bool3.sum_table, bool3.complement
        )
        report = verify_orthospace(mutant)
        assert not report.passed
        for tag, verdict in report.axioms.items():
            for w in verdict.witnesses:
                assert replay_axiom_witness(mutant, tag, w)

    def test_clean_space_has_no_witnesses(self, bool3):
        report = verify_orthospace(bool3)
        for verdict in report.axioms.values():
            assert verdict.witnesses == []

    def test_mutant_witness_not_reproduced_on_clean_table(self, bool3):
        ortho = bool3.ortho.copy()
        ortho[1, 3] = True
        mutant = OrthoSpace(
            bool3.n_events, bool3.zero, bool3.unit, ortho, bool3.sum_table, bool3.complement
        )
        report = verify_orthospace(mutant)
        replayed_any = False
        for tag, verdict in report.axioms.items():
            for w in verdict.witnesses:
                if replay_axiom_witness(mutant, tag, w):
                    replayed_any = True
                    assert not replay_axiom_witness(bool3, tag, w)
        assert replayed_any


class TestQueries:
    def test_precedes_zero_and_self(self, bool3):
        for e in bool3.events():
            assert orthospace.precedes(bool3, bool3.zero, e)
            assert orthospace.precedes(bool3, e, e)

    def test_precedes_mo2(self, mo2):
        a, b = 1, 3
        assert not orthospace.precedes(mo2, a, b)

    def test_difference(self, bool3):
        # difference(0, f) = f and difference(e, unit) = complement
        for f in bool3.events():
            assert orthospace.difference(bool3, bool3.zero, f) == [f]
        for e in bool3.events():
            assert orthospace.difference(bool3, e, bool3.unit) == [bool3.comp(e)]
        # atoms: difference(a, a+b) = b with bitmask events
        assert orthospace.difference(bool3, 1, 3) == [2]

    def test_maximal_families_boolean(self, bool2):
        fams = maximal_orthogonal_families(bool2)
        assert [1, 2] in fams
        for fam in fams:
            assert bool2.zero not in fam

    def test_maximal_families_mo2(self, mo2):
        fams = maximal_orthogonal_families(mo2)
        # the two atom pairs plus the isolated unit
        assert [1, 2] in fams and [3, 4] in fams and [mo2.unit] in fams

    @pytest.mark.parametrize(
        "make_space",
        [
            lambda: boolean_orthospace(4),
            lambda: instances.mo_orthospace(3),
            lambda: instances.mo_orthospace(5),
            lambda: instances.qubit_instance().space,
        ],
        ids=["B4", "MO_3", "MO_5", "qubit"],
    )
    def test_maximal_families_match_subset_scan(self, make_space):
        space = make_space()
        assert maximal_orthogonal_families(space) == subset_scan_families(space)

    @pytest.mark.parametrize("n_atoms, bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_maximal_families_boolean_are_partitions(self, n_atoms, bell):
        # a maximal disjoint family of nonempty subsets is a partition of the atoms
        assert len(maximal_orthogonal_families(boolean_orthospace(n_atoms))) == bell

    def test_iterated_sum(self, bool3):
        assert iterated_sum(bool3, [1, 2, 4]) == bool3.unit
        assert iterated_sum(bool3, []) == bool3.zero
        assert iterated_sum(bool3, [1, 3]) is None  # overlapping, sum undefined


class TestConstructions:
    def test_boolean_sizes(self):
        assert boolean_orthospace(1).n_events == 2
        assert boolean_orthospace(2).n_events == 4
        assert boolean_orthospace(3).n_events == 8

    def test_boolean_size_cap(self):
        with pytest.raises(SizeError):
            boolean_orthospace(13)
        with pytest.raises(SizeError):
            boolean_orthospace(0)

    def test_mo_layout(self):
        # events [0, a_1, a_1', ..., a_k, a_k', unit]; only complements are orthogonal
        for k in (1, 2, 5):
            mo = instances.mo_orthospace(k)
            assert (mo.n_events, mo.zero, mo.unit) == (2 * k + 2, 0, 2 * k + 1)
            pairs = {(2 * i + 1, 2 * i + 2) for i in range(k)}
            with_zero = {(0, e) for e in mo.events()}
            expected = with_zero | pairs | {(f, e) for e, f in with_zero | pairs}
            assert {(int(e), int(f)) for e, f in np.argwhere(mo.ortho)} == expected
            for a, b in pairs:
                assert (mo.complement[a], mo.complement[b]) == (b, a)
                assert mo.sum_of(a, b) == mo.sum_of(b, a) == mo.unit

    def test_horizontal_sum_passes_axioms(self, bool2, bool3):
        glued = horizontal_sum([bool2, bool3, bool2])
        assert_all_pass(verify_orthospace(glued))
        assert glued.n_events == 2 + 2 + 6 + 2

    def test_horizontal_sum_rejects_empty(self):
        with pytest.raises(StructuralError):
            horizontal_sum([])

    def test_single_block_sum_is_identity(self, bool3):
        assert horizontal_sum([bool3]) == bool3


class TestProjectionDerived:
    def test_diagonal_qubit_projections_boolean(self):
        from ucpspace import jordan

        z = jordan.zero("C", 2)
        i = jordan.identity("C", 2)
        e = jordan.diag("C", [1, 0])
        ec = jordan.diag("C", [0, 1])
        system = projection_orthospace([z, i, e, ec])
        assert system.space == boolean_orthospace(2) or system.space.n_events == 4
        assert_all_pass(verify_orthospace(system.space))

    def test_qubit_instance_horizontal_shape(self, qubit):
        # zero, unit, and three complementary projection pairs
        space = qubit.system.space
        assert space.n_events == 8
        fams = maximal_orthogonal_families(space)
        pairs = [f for f in fams if len(f) == 2]
        assert len(pairs) == 3
        assert [space.unit] in fams

    def test_diagonal_qutrit_closure_boolean(self):
        from ucpspace import jordan

        els = []
        for mask in range(8):
            els.append(jordan.diag("R", [float(mask >> i & 1) for i in range(3)]))
        system = projection_orthospace(els)
        assert system.space.n_events == 8
        assert_all_pass(verify_orthospace(system.space))

    @pytest.mark.parametrize("family_seed", [5, 11, 7671])
    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 60])
    def test_stacked_orthogonality_matches_pairwise_idempotency(self, family_seed, block, monkeypatch):
        from ucpspace import jordan

        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)  # 60: two events' pairs per block
        els = instances.qutrit_instance(seed=family_seed).system.elements
        space = projection_orthospace(els).space
        for i, p in enumerate(els):
            for j, q in enumerate(els):
                assert space.ortho[i, j] == jordan.is_idempotent(p + q)
                if space.ortho[i, j]:
                    assert jordan.max_abs(els[space.sum_table[i, j]] - (p + q)) <= 1e-8

    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 3])
    def test_missing_orthogonal_sum_names_first_pair(self, block, monkeypatch):
        from ucpspace import jordan

        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
        els = [jordan.diag("R", [float(mask >> i & 1) for i in range(3)]) for mask in range(8)]
        del els[3]  # diag(1, 1, 0): the sum of the first orthogonal pair of atoms (1, 2)
        with pytest.raises(StructuralError, match=r"^sum of orthogonal pair \(1, 2\) missing from family$"):
            projection_orthospace(els)

    @pytest.mark.parametrize("family_seed", [5, 11, 7671])
    def test_tables_equal_across_block_sizes(self, family_seed, monkeypatch):
        els = instances.qutrit_instance(seed=family_seed).system.elements
        whole = projection_orthospace(els).space
        for block in (1, 60):
            monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
            assert projection_orthospace(els).space == whole

    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 1])
    def test_missing_complement_names_projection(self, block, monkeypatch):
        from ucpspace import jordan

        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
        # a complementary pair, then a projection orthogonal to neither whose complement is left out
        tilted = jordan.element("R", np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])[..., None])
        els = [jordan.zero("R", 3), jordan.identity("R", 3), jordan.diag("R", [1, 0, 0]), jordan.diag("R", [0, 1, 1]),
               tilted]
        with pytest.raises(StructuralError, match=r"^complement of projection 4 missing from family$"):
            projection_orthospace(els)

    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 1])
    def test_missing_triple_sum_names_first_triple(self, block, monkeypatch):
        from ucpspace import jordan

        # every element, pair sum and complement matches within tol = 1e-8, but
        # near-zero + a + b lands 1.8e-8 from the near-identity
        eps = 0.9e-8
        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
        els = [jordan.diag("R", [-eps, 0]), jordan.diag("R", [1 + eps, 1]), jordan.diag("R", [1, 0]),
               jordan.diag("R", [0, 1])]
        with pytest.raises(StructuralError, match=r"^triple sum \(0, 2, 3\) missing from family$"):
            projection_orthospace(els)

    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 1])
    def test_duplicate_names_first_pair(self, block, monkeypatch):
        from ucpspace import jordan

        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
        els = [jordan.diag("R", [float(mask >> i & 1) for i in range(3)]) for mask in range(8)]
        els[6] = els[5] + jordan.diag("R", [0, 0, 1e-9])
        # duplicate pairs (2, 8), (5, 6) and (5, 9): the first in row-major order is named
        with pytest.raises(StructuralError, match=r"^duplicate projections at 2 and 8$"):
            projection_orthospace(els + [els[2], els[5]])

    def test_first_bad_element_decides_the_error(self):
        from ucpspace import jordan

        ok, half, other = jordan.identity("R", 2), 0.5 * jordan.identity("R", 2), jordan.identity("R", 3)
        with pytest.raises(StructuralError, match="non-idempotent"):
            projection_orthospace([ok, half, other])
        with pytest.raises(StructuralError, match="mixed algebra"):
            projection_orthospace([ok, other, half])
