"""Axiom verifier, constructions, and the single-entry mutation harness."""

import numpy as np
import pytest

import reference
from ucpspace import instances, orthospace
from ucpspace.errors import SizeError, StructuralError
from ucpspace.orthospace import (
    WITNESS_SHAPES,
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

    def test_sum_entry_past_the_last_event_is_reported_not_raised(self, bool2):
        # B2 with 1 + 2 = 9: recorded as out of range, then read as undefined by every axiom sweep
        st = bool2.sum_table.copy()
        st[1, 2] = st[2, 1] = 9
        bad = OrthoSpace(4, bool2.zero, bool2.unit, bool2.ortho, st, bool2.complement)
        report = verify_orthospace(bad)
        assert not report.passed
        assert report.structural == [("index-out-of-range",)]
        assert report.axioms["partial-sum"].witnesses == [(1, 2), (2, 1)]
        assert report.axioms["difference-characterization"].witnesses == [(1, 3), (2, 3)]
        assert report.axioms["sum-associativity"].passed
        for tag, verdict in report.axioms.items():
            for w in verdict.witnesses:
                assert replay_axiom_witness(bad, tag, w), (tag, w)


def corrupted(base, rng, edits):
    """base with `edits` random edits: a flipped ortho cell, a rewritten sum or complement cell, or a sum
    entry past the last event."""
    n = base.n_events
    st, ortho, comp = base.sum_table.copy(), base.ortho.copy(), base.complement.copy()
    for _ in range(edits):
        e, f = (int(v) for v in rng.integers(n, size=2))
        kind = int(rng.integers(4))
        if kind == 0:
            ortho[e, f] = not ortho[e, f]
        elif kind == 1:
            st[e, f] = int(rng.integers(-1, n))
        elif kind == 2:
            comp[e] = int(rng.integers(n))
        else:
            st[e, f] = int(rng.integers(n, 2 * n))
    return OrthoSpace(n, base.zero, base.unit, ortho, st, comp)


class TestSweepsMatchPerEventScans:
    """verify_orthospace's whole-table passes against the per-event, per-g scans of reference.per_g_axioms:
    equal reports, field by field and witness by witness."""

    @pytest.mark.parametrize("block", [orthospace._PAIR_BLOCK, 1], ids=["default-blocks", "one-g-blocks"])
    def test_random_corruptions(self, block, monkeypatch):
        # with _PAIR_BLOCK 1 a block's mask holds n * max deg(g) entries: B4 and MO_5 sweep in several blocks
        monkeypatch.setattr(orthospace, "_PAIR_BLOCK", block)
        bases = [boolean_orthospace(3), boolean_orthospace(4), instances.mo_orthospace(3), instances.mo_orthospace(5)]
        rng = np.random.default_rng(39)
        for trial in range(400):
            mutant = corrupted(bases[trial % 4], rng, int(rng.integers(1, 6)))
            report = verify_orthospace(mutant)
            assert report == reference.per_g_axioms(mutant), trial
            for verdict in report.axioms.values():
                for w in verdict.witnesses:
                    assert all(type(v) is int for v in w if not isinstance(v, tuple)), w

    def test_many_blocks_and_full_witness_lists(self):
        # B7: the sum-associativity sweep runs over several blocks of g; with many edits the witness lists
        # fill and the sweep stops early
        base = boolean_orthospace(7)
        rng = np.random.default_rng(7)
        for edits in (1, 2, 3, 200):
            mutant = corrupted(base, rng, edits)
            assert verify_orthospace(mutant) == reference.per_g_axioms(mutant), edits

    def test_clean_spaces(self):
        for space in (boolean_orthospace(5), instances.mo_orthospace(4), instances.qubit_instance().space):
            assert verify_orthospace(space) == reference.per_g_axioms(space)


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

    def test_checker_and_replay_read_the_same_sum_cells(self):
        # with 1 + 2 undefined and 2 + 1 defined, (0 + 2) + 1 is defined
        space = boolean_orthospace(2)
        st = space.sum_table.copy()
        st[1, 2] = -1
        mutant = OrthoSpace(space.n_events, space.zero, space.unit, space.ortho, st, space.complement)
        report = verify_orthospace(mutant)
        assert report.axioms["partial-sum"].witnesses == [(1, 2)]
        assert report.axioms["sum-associativity"].witnesses == []
        assert not replay_axiom_witness(mutant, "sum-associativity", (0, 2, 1))

    @pytest.mark.parametrize("atoms", [2, 3])
    def test_every_reported_witness_replays_after_random_edits(self, atoms):
        # one to three edits of the sum table, orthogonality or complement per trial
        base = boolean_orthospace(atoms)
        n = base.n_events
        rng = np.random.default_rng(atoms)
        for _ in range(150):
            st, ortho, comp = base.sum_table.copy(), base.ortho.copy(), base.complement.copy()
            for _ in range(int(rng.integers(1, 4))):
                e, f = (int(v) for v in rng.integers(n, size=2))
                kind = int(rng.integers(3))
                if kind == 0:
                    st[e, f] = int(rng.integers(-1, n))
                elif kind == 1:
                    ortho[e, f] = not ortho[e, f]
                else:
                    comp[e] = f
            mutant = OrthoSpace(n, base.zero, base.unit, ortho, st, comp)
            for tag, verdict in verify_orthospace(mutant).axioms.items():
                for w in verdict.witnesses:
                    assert replay_axiom_witness(mutant, tag, w), (tag, w)
                    # the shape a --replay report is checked against
                    length, events = WITNESS_SHAPES[tag]
                    assert len(w) == length and all(0 <= v < n for v in w[:events]), (tag, w)

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


class TestReplayReadsTheReportedCells:
    """replay_axiom_witness reproduces a witness exactly when verify_orthospace reports it."""

    def test_replay_is_true_exactly_on_reported_cells(self):
        # every cell of every tag whose witness list is not cut at _MAX_WITNESSES: the pairs (e, f), the
        # triples (g, e, f), or the single events; a unique-complement witness is read by its event
        bases = [boolean_orthospace(2), boolean_orthospace(3), instances.mo_orthospace(2), instances.mo_orthospace(3)]
        rng = np.random.default_rng(40)
        for trial in range(200):
            mutant = corrupted(bases[trial % 4], rng, int(rng.integers(1, 5)))
            n = mutant.n_events
            for tag, verdict in verify_orthospace(mutant).axioms.items():
                if len(verdict.witnesses) >= orthospace._MAX_WITNESSES:
                    continue
                events = WITNESS_SHAPES[tag][1]
                cells = [tuple(int(v) for v in c) for c in np.ndindex(*(n,) * events)]
                if tag == "unique-complement":
                    reported = {w[:1] for w in verdict.witnesses}
                    replayed = {c for c in cells if replay_axiom_witness(mutant, tag, (*c, ()))}
                else:
                    reported = set(verdict.witnesses)
                    replayed = {c for c in cells if replay_axiom_witness(mutant, tag, c)}
                assert replayed == reported, (trial, tag)

    def test_zero_event_verify_passes_does_not_replay(self, bool2):
        # B2 with 1 not orthogonal to 0 but 1 + 0 = 2: e + 0 is read only where e ortho 0, so verify
        # reports no zero-event witness, and (1,) does not reproduce
        ortho, st = bool2.ortho.copy(), bool2.sum_table.copy()
        ortho[1, 0] = False
        st[1, 0] = 2
        mutant = OrthoSpace(4, bool2.zero, bool2.unit, ortho, st, bool2.complement)
        assert verify_orthospace(mutant).axioms["zero-event"].passed
        assert not replay_axiom_witness(mutant, "zero-event", (1,))

    def test_mirror_of_an_upper_pair_is_stale(self, bool2):
        # ortho-symmetry and commutativity are reported at the upper cell (e, f), e <= f, only
        ortho, st = bool2.ortho.copy(), bool2.sum_table.copy()
        ortho[2, 1] = False
        mutant = OrthoSpace(4, bool2.zero, bool2.unit, ortho, st, bool2.complement)
        assert verify_orthospace(mutant).axioms["ortho-symmetry"].witnesses == [(1, 2)]
        assert replay_axiom_witness(mutant, "ortho-symmetry", (1, 2))
        assert not replay_axiom_witness(mutant, "ortho-symmetry", (2, 1))
        st = bool2.sum_table.copy()
        st[2, 1] = bool2.zero
        mutant = OrthoSpace(4, bool2.zero, bool2.unit, bool2.ortho, st, bool2.complement)
        assert verify_orthospace(mutant).axioms["partial-sum"].witnesses == [(1, 2)]
        assert replay_axiom_witness(mutant, "partial-sum", (1, 2))
        assert not replay_axiom_witness(mutant, "partial-sum", (2, 1))

    def test_difference_witness_on_out_of_range_complement_is_stale(self, bool2):
        # with a complement past the last event, difference-characterization is not read at all
        comp = bool2.complement.copy()
        comp[1] = 9
        mutant = OrthoSpace(4, bool2.zero, bool2.unit, bool2.ortho, bool2.sum_table, comp)
        report = verify_orthospace(mutant)
        assert report.structural == [("index-out-of-range",)]
        assert report.axioms["difference-characterization"].passed
        for e in mutant.events():
            for f in mutant.events():
                assert not replay_axiom_witness(mutant, "difference-characterization", (e, f))

    def test_unknown_tag_raises(self, bool2):
        with pytest.raises(ValueError, match="unknown axiom tag"):
            replay_axiom_witness(bool2, "no-such-axiom", (0,))


class TestQueries:
    def test_precedes_zero_and_self(self, bool3):
        for e in bool3.events():
            assert orthospace.precedes(bool3, bool3.zero, e)
            assert orthospace.precedes(bool3, e, e)

    def test_precedes_mo2(self, mo2):
        a, b = 1, 3
        assert not orthospace.precedes(mo2, a, b)

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
