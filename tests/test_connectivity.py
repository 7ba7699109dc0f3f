"""Connectivity calculus: lambda, separations, vertical/cyclic splits,
full closure, guts and coguts, blocking."""

import itertools

import pytest

from matroidkit.core import bit, elems, mask_of, popcount
from matroidkit.builders import (fano, parallel_add, spike, uniform, wheel,
                                 whirl)
from matroidkit.connectivity import (BadInput, NotThreeConnected, blocks,
                                     cyclic_3_separations, full_closure,
                                     is_3_connected, is_connected, lambda_,
                                     separations, vertical_3_separations)

SMALL = lambda: [uniform(2, 4), uniform(3, 6), fano(), wheel(3), wheel(4),
                 whirl(3), spike(3)]


def oracle_lambda(m, x):
    return m.rank_of(x) + m.rank_of(m.full ^ x) - m.rank


class TestLambda:
    def test_empty_set(self):
        for m in SMALL():
            assert lambda_(m, 0) == 0

    def test_u24_two_sets(self):
        m = uniform(2, 4)
        for c in itertools.combinations(range(4), 2):
            assert lambda_(m, mask_of(c)) == 2

    def test_symmetry_and_selfduality(self):
        for m in SMALL():
            d = m.dual()
            for x in range(1 << m.n):
                l = lambda_(m, x)
                assert l == lambda_(m, m.full ^ x)
                assert l == lambda_(d, x)

    def test_both_formulas_agree(self):
        for m in SMALL():
            for x in range(1 << m.n):
                alt = m.rank_of(x) + m.corank_of(x) - popcount(x)
                assert lambda_(m, x) == alt


class TestSeparations:
    def test_u24_is_3_connected(self):
        assert separations(uniform(2, 4), 2) == []
        assert is_3_connected(uniform(2, 4))

    def test_parallel_pair_gives_2_separation(self):
        m = parallel_add(uniform(2, 4), 0, "a2")
        seps = separations(m, 2)
        pair = m.set_of(["a", "a2"])
        assert any(rep.side in (pair, m.full ^ pair) for rep in seps)
        assert not is_3_connected(m)

    def test_wheel3_triangle_triad_sides(self):
        m = wheel(3)
        sides = {rep.side for rep in separations(m, 3)}
        sides |= {m.full ^ s for s in sides}
        from matroidkit.structures import triangles, triads
        for t in triangles(m) + triads(m):
            assert t in sides

    def test_canonical_side_contains_element_zero(self):
        for rep in separations(wheel(4), 3):
            assert rep.side & 1

    def test_report_field_consistency(self):
        for m in (wheel(4), spike(3), fano()):
            for k in (2, 3):
                for rep in separations(m, k):
                    comp = m.full ^ rep.side
                    assert rep.lam == lambda_(m, rep.side) <= k - 1
                    assert rep.exact == (rep.lam == k - 1)
                    assert rep.vertical == (m.rank_of(rep.side) >= k
                                            and m.rank_of(comp) >= k)
                    assert rep.cyclic == (m.corank_of(rep.side) >= k
                                          and m.corank_of(comp) >= k)
                    if rep.exact:
                        assert rep.guts == m.closure(rep.side) & m.closure(comp)
                        assert rep.coguts == \
                            m.coclosure(rep.side) & m.coclosure(comp)

    def test_fano_is_3_connected(self):
        assert is_3_connected(fano())

    def test_series_pair_breaks_3_connectivity(self):
        from matroidkit.builders import series_add
        m = series_add(uniform(2, 4), 0, "s")
        assert m.n >= 4 and not is_3_connected(m)

    def test_direct_sum_not_connected(self):
        # two disjoint triangles: bases are pairs of one element from each
        bases = [bit(i) | bit(j) | bit(k) | bit(l)
                 for i, j in itertools.combinations(range(3), 2)
                 for k, l in itertools.combinations(range(3, 6), 2)]
        from matroidkit.core import validate
        m = validate(bases, 6)
        assert not is_connected(m)
        assert not is_3_connected(m)


class TestVerticalCyclic:
    def test_u36_has_none(self):
        assert vertical_3_separations(uniform(3, 6)) == []

    def test_wheel4_vertical_splits_sit_at_spokes(self):
        # oracle: si(W4/rim) is a full K4 (3-connected) while si(W4/spoke)
        # keeps a series pair, so the splits appear exactly at spokes
        m = wheel(4)
        trips = vertical_3_separations(m)
        assert trips
        assert {z for (_, z, _) in trips} == set(range(4))

    def test_consistency_with_contraction_simplification(self):
        for m in (wheel(4), whirl(3), fano(), uniform(3, 6)):
            trips = vertical_3_separations(m)
            zs = {z for (_, z, _) in trips}
            for z in range(m.n):
                si = m.contract(bit(z)).simplify()[0]
                assert (z in zs) == (not is_3_connected(si))

    def test_requires_3_connected(self):
        m = parallel_add(uniform(2, 4), 0, "a2")
        with pytest.raises(NotThreeConnected):
            vertical_3_separations(m)
        with pytest.raises(NotThreeConnected):
            cyclic_3_separations(m)

    def test_cyclic_is_vertical_in_dual(self):
        m = wheel(4)
        assert cyclic_3_separations(m) == vertical_3_separations(m.dual())


class TestFullClosure:
    def test_fixpoint_of_fully_closed(self):
        m = fano()
        line = m.closure(0b0000011)
        assert full_closure(m, line) == line or \
            full_closure(m, full_closure(m, line)) == full_closure(m, line)

    def test_k4_triangle_explodes_to_everything(self):
        m = wheel(3)
        from matroidkit.structures import triangles
        t = triangles(m)[0]
        assert full_closure(m, t) == m.full

    def test_result_closed_and_coclosed(self):
        for m in SMALL():
            for x in range(0, 1 << m.n, 7):
                f = full_closure(m, x)
                assert m.closure(f) == f and m.coclosure(f) == f


class TestGutsClassification:
    def test_never_both_on_corpus(self):
        for m in (wheel(4), spike(3)):
            for x in range(1 << m.n):
                if lambda_(m, x) != 2 or popcount(x) < 3:
                    continue
                if m.n - popcount(x) < 1:
                    continue
                y = m.full ^ x
                for e in elems(x):
                    rest = x ^ bit(e)
                    g = bool(m.closure(rest) & m.closure(y) & bit(e))
                    c = bool(m.coclosure(rest) & m.coclosure(y) & bit(e))
                    assert not (g and c)


class TestBlocks:
    def test_all_three_classifications_occur(self):
        # frozen from a scan of the twisted-cube construction; the deleted
        # point p1 fully blocks the triad {q1,s1,s2} it used to extend
        from matroidkit.builders import twisted_cube_matroid
        from matroidkit.connectivity import lambda_minus
        m = twisted_cube_matroid()
        d = m.id_of("p1")
        assert blocks(m, d, m.set_of(["q1", "s1", "s2"])) == "fully-blocked"
        assert blocks(m, d, m.set_of(["p2", "q1", "q2", "s1", "s2"])) == "blocked"
        assert blocks(m, d, m.set_of(["p2", "q1"])) == "not-blocked"
        # the closure criterion cross-check inside blocks() never trips
        hit = {"fully-blocked": 0, "blocked": 0, "not-blocked": 0}
        bd = bit(d)
        for x in range(1 << m.n):
            if x & bd or popcount(x) < 2 or popcount(m.full ^ bd ^ x) < 2:
                continue
            if lambda_minus(m, bd, x) != 2:
                continue
            hit[blocks(m, d, x)] += 1
        assert min(hit.values()) > 0

    def test_not_blocked_when_in_closure(self):
        m = wheel(4)
        # delete a rim element r1 = id 4; the triangle {s1,s2,r1} loses r1,
        # and pairs inside cl of sides stay 3-separating
        d = 4
        md_ground = m.full ^ bit(d)
        found = False
        from matroidkit.connectivity import lambda_minus
        for x in range(1 << m.n):
            if x & ~md_ground or popcount(x) < 2:
                continue
            if popcount(md_ground ^ x) < 2:
                continue
            if lambda_minus(m, bit(d), x) != 2:
                continue
            if lambda_(m, x) <= 2:
                assert blocks(m, d, x) == "not-blocked"
                found = True
        assert found

    def test_bad_input(self):
        m = wheel(4)
        with pytest.raises(BadInput):
            blocks(m, 0, 0b11)   # d inside X
