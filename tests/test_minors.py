"""Minor search, labellings, grounded triples, detachable pairs."""

import dataclasses
import itertools
import math
import sys
import tracemalloc

import pytest

from matroidkit import connectivity, harness, minors
from matroidkit.core import Matroid, bit, is_isomorphic, mask_of, popcount
from matroidkit.builders import (delta_wye, fano, nonfano, paving8, spike,
                                 spiked_fano, twisted_cube_matroid, uniform,
                                 wheel, whirl)
from matroidkit.corpus import generate_corpus
from matroidkit.minors import (HypothesisUnmet, NLabelling,
                               detachable_after_exchange, detachable_pairs,
                               grounded_triads, grounded_triangles,
                               has_minor, labellings, switch_labels,
                               verify_labelling)
from matroidkit.structures import triads, triangles


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
        # 3,003 bases, 364 contraction and 1,001 deletion sets, with no
        # labelling: the cell bound keeps every block of pairs small
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
        assert all(memo[minor.key, n_mat.key] == lab
                   for (minor, n_mat), lab in zip(cases, want))
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
        assert "bases" not in vars(fresh)

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
        assert memo[seen[0].key, n.key] is None
        self._no_search(monkeypatch)
        assert has_minor(seen[0], n) is None


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
        frozen = {(frozenset(m.label_list(mask_of(r.pair))), r.mode)
                  for r in detachable_pairs(m, None)
                  if not mask_of(r.pair) & ~x}
        assert frozen == {(frozenset(["p1", "q2"]), "delete"),
                          (frozenset(["p2", "q1"]), "delete")}

    def test_deterministic_order(self):
        m = uniform(3, 7)
        n = uniform(3, 5)
        assert detachable_pairs(m, n) == detachable_pairs(m, n)

    def test_pair_minors_tested_once_per_matroid(self, monkeypatch):
        # whether a pair minor is 3-connected depends only on M, so a later
        # call, with another N or none, tests no pair minor again; a pair
        # minor whose shape cannot hold N is not tested at all
        tested, kernel = [], connectivity._minor_connected

        def counting(m, c, d, k):
            tested.append((c, d))
            return kernel(m, c, d, k)

        monkeypatch.setattr(connectivity, "_minor_connected", counting)
        m = uniform(3, 7)
        first = detachable_pairs(m, uniform(3, 5))
        # every M/{x,y} has rank 1 < r(U(3,5)): only the deletions are tested
        pairs = math.comb(m.n, 2)
        assert first and len(tested) == pairs
        assert not any(c for c, _ in tested)
        assert detachable_pairs(m, None)
        assert len(tested) == 2 * pairs
        assert detachable_pairs(m, fano()) == []
        assert detachable_pairs(m, uniform(3, 5)) == first
        assert len(tested) == len(set(tested)) == 2 * pairs
        assert all(type(v) is bool for v in m._connected.values())

    def test_pair_questions_read_from_the_table(self, monkeypatch):
        # no pair minor is built to test its 3-connectivity, and after the
        # first search of each M that finds nothing, one scan of M rules
        # out the remaining pairs without a search, and each of the 10
        # distinct tables among the 15 exchanged matroids is searched once:
        # 13 searches in all.  The scan also comes before the
        # 3-connectivity test of each later pair, and on the exchanged
        # matroids, which have no N-minor, it has no survivor and ends the
        # search: 163 pair tests in all, 2,568 when every pair that passes
        # the shape guard was tested; no matroid is tested whole (C = D = 0)
        searches, tested = [], []
        search, kernel = has_minor, connectivity._minor_connected

        def counting_search(m, n_mat):
            searches.append(m)
            return search(m, n_mat)

        def counting_kernel(m, c, d, k):
            tested.append((c, d))
            return kernel(m, c, d, k)

        monkeypatch.setattr(minors, "has_minor", counting_search)
        monkeypatch.setattr(connectivity, "_minor_connected", counting_kernel)
        for m, n_mat in ((twisted_cube_matroid(), nonfano()),
                         (spiked_fano(4), fano()),
                         (spiked_fano(4, True), fano())):
            assert detachable_pairs(m, n_mat) == []
            assert detachable_after_exchange(m, n_mat) == []
        assert len(searches) <= 20
        assert len(tested) <= 250
        assert (0, 0) not in tested

    def test_duality(self):
        m = whirl(3)
        n = uniform(2, 4)
        dels = {r.pair for r in detachable_pairs(m, n) if r.mode == "delete"}
        cons = {r.pair for r in detachable_pairs(m.dual(), n.dual())
                if r.mode == "contract"}
        assert dels == cons


class TestSweepWork:
    def test_foundation_sweep_builds_few_minors(self, monkeypatch):
        """The shape guard answers most pair-minor questions of the
        foundation sweep from M's ranks, and each M\\d and M\\d\\d' is
        built once per M: on seed 0, before the guard, the sweep built
        7,181 minors and tested 1,886 pair minors for 3-connectivity; with
        it, 1,997 and 572; with `_foundation_outcome` handed M\\d rather
        than rebuilding it, 1,666 and 572; with M's cover asked before the
        3-connectivity test and M\\d\\d' built once, 1,389 and 257; with
        M's triangles and triads walked once for all of its N's, each pair
        minor built once for them, 1,089 minors.  The tests are counted as
        runs of the kernel with C + D != 0, so they include
        `_qualifying_x`'s: 289, each (C, D) once per M."""
        corpus = generate_corpus(0, max_n=16)
        built, tested = [], []
        minor, kernel = Matroid.minor, connectivity._minor_connected

        def counting_minor(m, c, d):
            built.append((c, d))
            return minor(m, c, d)

        def counting_kernel(m, c, d, k):
            if c | d:
                tested.append((c, d))
            return kernel(m, c, d, k)

        monkeypatch.setattr(Matroid, "minor", counting_minor)
        monkeypatch.setattr(connectivity, "_minor_connected", counting_kernel)
        assert harness.sweep_foundation(corpus, max_m=12)
        assert len(built) <= 1150 and len(tested) <= 300, \
            (len(built), len(tested))

    def test_splitter_check_builds_only_the_minors_it_searches(
            self, monkeypatch):
        """`_splitter_holds` reads the 3-connectivity of each single
        removal from M's table, so each removal it builds is one it then
        searches for N; it used to build every removal that could hold N
        and search only the 3-connected ones."""
        built, searched = [], set()
        minor, search = Matroid.minor, harness.has_minor
        holds = harness._splitter_holds.__code__

        def counting_minor(m, c, d):
            mm = minor(m, c, d)
            if sys._getframe(1).f_code is holds:
                built.append(mm)
            return mm

        def counting_search(m, n_mat):
            searched.add(id(m))
            return search(m, n_mat)

        monkeypatch.setattr(Matroid, "minor", counting_minor)
        monkeypatch.setattr(harness, "has_minor", counting_search)
        verdicts = harness.splitter_check(generate_corpus(0))
        assert verdicts and all(v.outcome == "pass" for v in verdicts)
        # `built` keeps each minor alive, so no two share an id
        assert built and all(id(mm) in searched for mm in built)


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

    def test_one_search_per_distinct_exchange(self, monkeypatch):
        # Delta-Y on two triangles of a spike through its tip gives one
        # matroid, so the 15 exchanges of the reference constructions make
        # 10 distinct tables, the 4 of spiked_fano(4) make 2 and the 4 of
        # spike(4) make 1; each distinct table is searched once
        searched, search = [], minors.detachable_pairs

        def counting(m, *args, **kwargs):
            searched.append(m)
            return search(m, *args, **kwargs)

        monkeypatch.setattr(minors, "detachable_pairs", counting)
        for cases, exchanges, searches in (
                ([(twisted_cube_matroid(), nonfano()),
                  (spiked_fano(4), fano()), (spiked_fano(4, True), fano())],
                 15, 10),
                ([(spiked_fano(4), uniform(2, 4))], 4, 2),
                ([(spike(4), uniform(2, 4))], 4, 1)):
            searched.clear()
            for m, n_mat in cases:
                detachable_after_exchange(m, n_mat)
            assert sum(len(triangles(m)) + len(triads(m))
                       for m, _ in cases) == exchanges
            assert len(searched) == searches

    def test_first_only_on_repeated_exchanges(self):
        # the first exchange of spiked_fano(4) already has pairs
        m, n_mat = spiked_fano(4), uniform(2, 4)
        x = triangles(m)[0]
        first = detachable_pairs(delta_wye(m, x), n_mat)[0]
        got = detachable_after_exchange(m, n_mat, first_only=True)
        assert got == [dataclasses.replace(first, stage="after-delta-wye",
                                           exchanged=x)]
        assert got == detachable_after_exchange(m, n_mat)[:1]


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
