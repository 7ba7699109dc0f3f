"""Minor search, labellings, grounded triples, detachable pairs."""

import itertools
import tracemalloc

import pytest

from matroidkit import minors
from matroidkit.core import Matroid, bit, is_isomorphic, mask_of, popcount
from matroidkit.builders import (fano, nonfano, paving8, spike,
                                 twisted_cube_matroid, uniform, wheel, whirl)
from matroidkit.minors import (HypothesisUnmet, NLabelling,
                               detachable_after_exchange, detachable_pairs,
                               element_status, grounded_triads,
                               grounded_triangles, has_minor, labellings,
                               switch_labels, verify_labelling)
from matroidkit.structures import triangles


class TestHasMinor:
    def test_fano_has_no_u24(self):
        # oracle: exhaustive enumeration over all (C, D); the Fano is binary
        assert has_minor(fano(), uniform(2, 4)) is None

    def test_construction_minor_witness(self):
        m = twisted_cube_matroid()
        nf = nonfano()
        assert has_minor(m, nf) is not None
        # the explicit witness: contract p1, delete {s1,s2,p2,q2}
        witness = NLabelling(m.set_of(["p1"]),
                             m.set_of(["s1", "s2", "p2", "q2"]))
        assert is_isomorphic(
            m.minor(witness.contract, witness.delete), nf) is not None

    def test_self_minor(self):
        f = fano()
        assert has_minor(f, f) == NLabelling(0, 0)
        assert list(labellings(f, f)) == [NLabelling(0, 0)]

    def test_rank_reduction_always_by_contraction(self):
        m = wheel(4)
        n = wheel(3)
        lab = has_minor(m, n)
        assert lab is not None
        assert popcount(lab.contract) == m.rank - n.rank

    def test_every_labelling_revalidates(self):
        m = whirl(3)
        n = uniform(2, 4)
        count = 0
        for lab in labellings(m, n):
            assert verify_labelling(m, n, lab)
            count += 1
        assert count > 0

    def test_survivor_cap(self):
        m = whirl(3)
        n = uniform(2, 4)
        region = m.set_of(["s1", "s2", "s3"])
        for lab in labellings(m, n, survivor_cap=region):
            assert popcount(region & ~(lab.contract | lab.delete)) <= 1

    def test_removed_cap(self):
        m = whirl(3)
        n = uniform(2, 4)
        region = m.set_of(["s1", "s2"])
        for lab in labellings(m, n, removed_cap=region):
            assert popcount((lab.contract | lab.delete) & region) <= 1


class TestLabellingSearchBounds:
    def test_peak_memory_of_an_exhaustive_scan(self):
        # 3,003 bases and 78 heads of two elements, with no labelling: the
        # cell bound keeps every matrix of the search small
        m, n = uniform(6, 14), fano()
        tracemalloc.start()
        try:
            assert list(labellings(m, n)) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_first_labelling_is_least_in_lex_order(self):
        assert next(labellings(uniform(6, 14), uniform(3, 6))) == \
            NLabelling(0b111, 0b11111000)


class TestMinorMemo:
    """The memo is keyed on the rank tables, so equal matroids share an
    entry however they were built, and a hit derives no bases."""

    @pytest.fixture()
    def memo(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(minors, "_minor_memo", memo)
        return memo

    def _no_search(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("memo miss")
        monkeypatch.setattr(minors, "labellings", fail)

    def test_minor_and_basis_built_copy_share_an_entry(self, memo,
                                                       monkeypatch):
        m = twisted_cube_matroid()
        nf = nonfano()
        cases = [(m.contract(m.set_of(["p1"])), nf),
                 (m.delete(m.set_of(["p1"])), nf),
                 (fano().delete(1), uniform(2, 4))]
        want = [has_minor(minor, n_mat) for minor, n_mat in cases]
        assert want[0] is not None and want[2] is None
        assert all(memo[minor.table().tobytes(), n_mat.table().tobytes()]
                   == lab for (minor, n_mat), lab in zip(cases, want))
        size = len(memo)
        self._no_search(monkeypatch)
        for (minor, n_mat), lab in zip(cases, want):
            again = Matroid(minor.n, minor.bases, minor.labels)
            assert has_minor(again, n_mat) == lab
        assert len(memo) == size

    def test_hit_leaves_bases_underived(self, memo, monkeypatch):
        m = twisted_cube_matroid()
        nf = nonfano()
        p1 = m.set_of(["p1"])
        has_minor(m.contract(p1), nf)
        self._no_search(monkeypatch)
        fresh = m.contract(p1)
        has_minor(fresh, nf)
        assert fresh._bases is None

    def _survivors(self, monkeypatch):
        """The minors `labellings` hands to `is_isomorphic`, as called."""
        seen = []

        def spy(m1, m2):
            seen.append(m1)
            return is_isomorphic(m1, m2)
        monkeypatch.setattr(minors, "is_isomorphic", spy)
        return seen

    def test_isomorphism_verdicts_are_memoised(self, memo, monkeypatch):
        m, n = whirl(3), uniform(2, 4)
        seen = self._survivors(monkeypatch)
        first = list(labellings(m, n))
        assert first and seen
        tested = list(seen)
        seen.clear()
        assert list(labellings(m, n)) == first
        assert seen == []
        # each verdict is the has_minor answer for that equal-size pair
        self._no_search(monkeypatch)
        for survivor in tested:
            assert has_minor(survivor, n) == NLabelling(0, 0)

    def test_non_isomorphic_survivor_stores_none(self, memo, monkeypatch):
        # one minor of the twisted cube's dual passes the basis-count and
        # degree filters against paving8 without being isomorphic to it
        m, n = twisted_cube_matroid().dual(), paving8()
        seen = self._survivors(monkeypatch)
        assert list(labellings(m, n)) == []
        assert len(seen) == 1 and seen[0].n == n.n
        assert memo[seen[0].table().tobytes(), n.table().tobytes()] is None
        self._no_search(monkeypatch)
        assert has_minor(seen[0], n) is None


class TestElementStatus:
    def test_self_minor_blocks_everything(self):
        f = fano()
        for e in range(f.n):
            assert element_status(f, f, e) == (False, False, False)

    def test_uniform_everything_doubly_labelled(self):
        m = uniform(3, 7)
        n = uniform(2, 4)
        for e in range(m.n):
            con, dele, both = element_status(m, n, e)
            assert con and dele and both


class TestGrounded:
    def test_whirl_has_no_grounded_triangles(self):
        m = whirl(3)
        n = uniform(2, 4)
        assert grounded_triangles(m, n) == []
        assert grounded_triads(m, n) == []

    def test_self_minor_grounds_everything(self):
        f = fano()
        assert len(grounded_triangles(f, f)) == len(triangles(f)) == 7

    def test_twisted_cube_all_grounded(self):
        m = twisted_cube_matroid()
        nf = nonfano()
        assert len(grounded_triangles(m, nf)) == len(triangles(m))


class TestDetachablePairs:
    def test_u37_deletion_pairs(self):
        m = uniform(3, 7)
        n = uniform(3, 5)
        got = detachable_pairs(m, n)
        deletions = {r.pair for r in got if r.mode == "delete"}
        assert deletions == set(itertools.combinations(range(7), 2))

    def test_twisted_cube_has_none(self):
        m = twisted_cube_matroid()
        assert detachable_pairs(m, nonfano()) == []

    def test_pure_pairs_within_separator(self):
        m = twisted_cube_matroid()
        x = m.set_of(["p1", "p2", "q1", "q2", "s1", "s2"])
        got = detachable_pairs(m, None, within=x)
        frozen = {(frozenset(m.label_list(mask_of(r.pair))), r.mode)
                  for r in got}
        assert frozen == {(frozenset(["p1", "q2"]), "delete"),
                          (frozenset(["p2", "q1"]), "delete")}

    def test_deterministic_order(self):
        m = uniform(3, 7)
        n = uniform(3, 5)
        assert detachable_pairs(m, n) == detachable_pairs(m, n)

    def test_duality(self):
        m = whirl(3)
        n = uniform(2, 4)
        dels = {r.pair for r in detachable_pairs(m, n) if r.mode == "delete"}
        cons = {r.pair for r in detachable_pairs(m.dual(), n.dual())
                if r.mode == "contract"}
        assert dels == cons


class TestExchangeStage:
    def test_whirl_finds_pair_after_exchange(self):
        m = whirl(4)
        n = uniform(2, 4)
        assert detachable_pairs(m, n) == []
        got = detachable_after_exchange(m, n, first_only=True)
        assert got and got[0].stage in ("after-delta-wye", "after-wye-delta")

    def test_no_triangles_no_triads_trivial(self):
        m = uniform(3, 7)   # circuits of size 4, cocircuits of size 5
        assert detachable_after_exchange(m, uniform(3, 5)) == []

    def test_twisted_cube_empty_after_exchange(self):
        m = twisted_cube_matroid()
        assert detachable_after_exchange(m, nonfano()) == []


class TestSwitchLabels:
    def test_spike_tip_switch(self):
        m = spike(4)
        x1, y1, t = m.id_of("x1"), m.id_of("y1"), m.id_of("t")
        n = m.minor(bit(x1), bit(y1))
        lab = NLabelling(bit(x1), bit(y1))
        assert verify_labelling(m, n, lab)
        # {y1, t} is a parallel pair in M/x1
        switched = switch_labels(m, n, lab, y1, t)
        assert switched.delete == bit(t) and switched.contract == bit(x1)
        back = switch_labels(m, n, switched, t, y1)
        assert back == lab

    def test_hypothesis_unmet(self):
        m = uniform(3, 7)
        n = uniform(3, 5)
        lab = NLabelling(0, m.set_of(["a", "b"]))
        with pytest.raises(HypothesisUnmet):
            switch_labels(m, n, lab, m.id_of("a"), m.id_of("c"))
