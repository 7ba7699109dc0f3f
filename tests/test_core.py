"""Core axioms, rank calculus, duality, minors, isomorphism.

Expected values follow the oracle-first rule: each derived constant below
was computed with the set-based oracles in this file (which never touch the
bitmask machinery) and then frozen.
"""

import itertools
import random
import signal

import pytest

from matroidkit.core import (AxiomViolation, CardinalityMismatch, EmptyFamily,
                             GroundSetExhausted, Matroid, bit, elems,
                             is_isomorphic, mask_of, popcount, submasks,
                             validate)
from matroidkit.builders import (delta_wye, fano, graphic, nonfano, relax,
                                 uniform, wheel, whirl)

FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
              (1, 4, 6), (2, 3, 6), (2, 4, 5)]


# ---------------------------------------------------------------------------
# oracles: plain-set reimplementations, no bitmasks

def oracle_rank(bases_sets, x):
    return max(len(b & x) for b in bases_sets)


def oracle_closure(bases_sets, ground, x):
    r = oracle_rank(bases_sets, x)
    return {e for e in ground if oracle_rank(bases_sets, x | {e}) == r}


def oracle_dual_bases(bases_sets, ground):
    return [ground - b for b in bases_sets]


def as_sets(m):
    return [set(elems(b)) for b in m.bases], set(range(m.n))


def u24():
    return validate([mask_of(c) for c in itertools.combinations(range(4), 2)], 4)


def fano_raw():
    lines = {mask_of(l) for l in FANO_LINES}
    return validate([mask_of(c) for c in itertools.combinations(range(7), 3)
                     if mask_of(c) not in lines], 7)


# ---------------------------------------------------------------------------


class TestValidate:
    def test_u24_all_two_subsets(self):
        m = u24()
        assert m.rank == 2 and len(m.bases) == 6

    def test_exchange_failure_witnessed(self):
        with pytest.raises(AxiomViolation) as err:
            validate([0b0011, 0b1100], 4)
        assert err.value.witness is not None

    def test_fano_has_28_bases(self):
        # oracle: 35 three-subsets of a 7-set minus the 7 lines
        assert len(fano_raw().bases) == 35 - 7

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            validate([], 3)

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            validate([0b011, 0b111], 3)

    def test_sizes_out_of_range(self):
        with pytest.raises(ValueError):
            validate([1], 0)
        with pytest.raises(ValueError):
            validate([1], 25)

    def test_constructor_rejects_mixed_sizes(self):
        with pytest.raises(CardinalityMismatch):
            Matroid(3, [1, 6])

    def test_constructor_rejects_basis_outside_ground(self):
        with pytest.raises(ValueError):
            Matroid(2, [1 << 5])

    @pytest.mark.parametrize("call", [
        lambda: Matroid(2, [-1, 1]),
        lambda: validate([-1, 1], 2),
        lambda: elems(-1),
        lambda: relax(uniform(2, 4), -7),
        lambda: delta_wye(uniform(2, 4), -7),
        # `max` walks the generator in constant memory
        lambda: max(submasks(-7)),
    ], ids=["constructor", "validate", "elems", "relax", "delta_wye",
            "submasks"])
    def test_negative_mask_rejected(self, call):
        # a negative mask has infinitely many bits set, so a loop over its
        # bits never ends: the alarm fails such a call instead of hanging
        def hang(*_):
            raise AssertionError("no answer within 5 s")

        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError):
                call()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_id_of_range_checked(self):
        m = u24()
        assert m.id_of(3) == 3 and m.id_of("c") == 2
        for bad in (4, -1, "z"):
            with pytest.raises(ValueError):
                m.id_of(bad)


class TestIdentity:
    def test_labels_and_table_decide_equality(self):
        # a basis-built and a table-built copy are one matroid; the same
        # table under other labels, or another table, is not
        m = fano()
        copy = Matroid._from_table(m.table().copy(), m.labels)
        again = Matroid(m.n, m.bases, m.labels)
        assert m == copy == again and hash(m) == hash(copy) == hash(again)
        assert m != fano(list("ABCDEFG")) and m != nonfano()
        assert m != uniform(3, 7) and m != uniform(3, 8)


class TestRankCalculus:
    def test_rank_matches_oracle_everywhere(self):
        for m in (u24(), fano_raw(), wheel(3)):
            bs, ground = as_sets(m)
            for x in range(1 << m.n):
                assert m.rank_of(x) == oracle_rank(bs, set(elems(x)))

    def test_uniform_rank_of_triple(self):
        assert u24().rank_of(0b0111) == 2

    def test_rank_of_empty_and_full(self):
        m = fano_raw()
        assert m.rank_of(0) == 0
        assert m.rank_of(m.full) == m.rank == 3

    def test_fano_line_has_rank_two(self):
        m = fano_raw()
        for l in FANO_LINES:
            assert m.rank_of(mask_of(l)) == 2

    def test_closure_of_line_pair_is_line(self):
        m = fano_raw()
        for l in FANO_LINES:
            assert m.closure(mask_of(l[:2])) == mask_of(l)

    def test_closure_of_ground_set(self):
        m = u24()
        assert m.closure(m.full) == m.full

    def test_closure_matches_oracle(self):
        for m in (u24(), fano_raw()):
            bs, ground = as_sets(m)
            for x in range(1 << m.n):
                want = oracle_closure(bs, ground, set(elems(x)))
                assert set(elems(m.closure(x))) == want

    def test_coclosure_of_u24_triple(self):
        # oracle: closure in the dual; computed once and frozen: the whole set
        m = u24()
        bs, ground = as_sets(m)
        dual = [set(b) for b in oracle_dual_bases(bs, ground)]
        assert oracle_closure(dual, ground, {0, 1, 2}) == {0, 1, 2, 3}
        assert m.coclosure(0b0111) == 0b1111

    def test_closure_idempotent_extensive_monotone(self):
        for m in (u24(), fano_raw(), wheel(3)):
            for x in range(1 << m.n):
                c = m.closure(x)
                assert c & x == x
                assert m.closure(c) == c
                cc = m.coclosure(x)
                assert cc & x == x
                assert m.coclosure(cc) == cc
                for e in elems(m.full ^ x):
                    assert m.closure(x | bit(e)) & c == c


class TestDuality:
    def test_u24_self_dual(self):
        m = u24()
        assert m.dual().bases == m.bases

    def test_fano_dual_by_complementation(self):
        m = fano_raw()
        bs, ground = as_sets(m)
        want = {frozenset(b) for b in oracle_dual_bases(bs, ground)}
        got = {frozenset(elems(b)) for b in m.dual().bases}
        assert want == got and len(got) == 28

    def test_dual_involution(self):
        for m in (u24(), fano_raw(), wheel(4)):
            assert m.dual().dual() == m

    def test_wheel3_self_dual_up_to_iso(self):
        m = wheel(3)
        assert is_isomorphic(m, m.dual()) is not None

    def test_corank_formula(self):
        for m in (u24(), fano_raw()):
            bs, ground = as_sets(m)
            dual = [set(b) for b in oracle_dual_bases(bs, ground)]
            for x in range(1 << m.n):
                assert m.corank_of(x) == oracle_rank(dual, set(elems(x)))


class TestMinors:
    def test_u24_delete_is_u23(self):
        m = u24().delete(bit(3))
        assert is_isomorphic(m, uniform(2, 3)) is not None

    def test_u24_contract_is_u13(self):
        m = u24().contract(bit(3))
        assert is_isomorphic(m, uniform(1, 3)) is not None

    def test_delete_contract_commute(self):
        for m in (fano_raw(), wheel(3)):
            for c in range(1 << m.n):
                if popcount(c) != 1:
                    continue
                for d in range(1 << m.n):
                    if popcount(d) != 2 or c & d or (c | d) == m.full:
                        continue
                    a = m.contract(c).delete(m.compress(d, c))
                    b = m.delete(d).contract(m.compress(c, d))
                    assert a == b

    def test_minor_equals_manual_composition(self):
        m = fano_raw()
        c, d = 0b0000011, 0b0010100
        assert m.minor(c, d) == m.contract(c).delete(m.compress(d, c))

    def test_ground_set_exhausted(self):
        m = u24()
        with pytest.raises(GroundSetExhausted):
            m.delete(m.full)
        with pytest.raises(GroundSetExhausted):
            m.minor(0b0011, 0b1100)

    def test_masks_outside_the_ground_set(self):
        # a bit at or above n names no element, nor does a negative mask,
        # whose bits never run out
        m = u24()
        for c, d in ((1 << 4, 0), (0, 1 << 6), (-1, 0), (0, -4)):
            with pytest.raises(ValueError):
                m.minor(c, d)
        for remove in (m.delete, m.contract, m.restrict):
            with pytest.raises(ValueError):
                remove(1 << 5 | 1)

    def test_labels_retained(self):
        m = u24().delete(bit(1))
        assert m.labels == ("a", "c", "d")


class TestCircuits:
    def test_u24_circuits_are_triples(self):
        m = u24()
        assert sorted(m.circuits()) == sorted(
            mask_of(c) for c in itertools.combinations(range(4), 3))

    def test_fano_circuit_profile(self):
        # oracle: brute-force minimal dependent sets over subsets
        m = fano_raw()
        bs, ground = as_sets(m)

        def dependent(x):
            return oracle_rank(bs, x) < len(x)

        want = []
        for k in range(1, 8):
            for c in itertools.combinations(range(7), k):
                s = set(c)
                if dependent(s) and all(not dependent(s - {e}) for e in s):
                    want.append(mask_of(c))
        assert sorted(m.circuits()) == sorted(want)
        sizes = sorted(popcount(c) for c in m.circuits())
        assert sizes == [3] * 7 + [4] * 7

    def test_orthogonality(self):
        for m in (u24(), fano_raw(), wheel(3)):
            for c in m.circuits():
                for cc in m.cocircuits():
                    assert popcount(c & cc) != 1

    def test_cocircuits_are_dual_circuits(self):
        m = fano_raw()
        assert m.cocircuits() == m.dual().circuits()


class TestSimplify:
    def test_parallel_element_removed(self):
        from matroidkit.builders import parallel_add
        m = parallel_add(u24(), 0, "a2")
        s, rep = m.simplify()
        assert is_isomorphic(s, u24()) is not None
        assert rep["a2"] == "a"

    def test_simple_matroid_unchanged(self):
        m = fano_raw()
        s, rep = m.simplify()
        assert s == m and all(k == v for k, v in rep.items())

    def test_cosimplify_on_fan_end_deletion(self):
        # deleting a spoke of the rank-4 wheel leaves series pairs whose
        # cosimplification is 3-connected
        from matroidkit.connectivity import is_3_connected
        m = wheel(4)
        co, _ = m.delete(bit(0)).cosimplify()
        assert is_3_connected(co)


def assert_carries_bases(m1, m2, w):
    """w is a bijection of the ground set carrying bases onto bases."""
    assert sorted(w) == list(range(m1.n))
    assert {mask_of(w[i] for i in elems(b)) for b in m1.bases} == \
        set(m2.bases)


def shuffled(m, seed):
    labels = list(m.labels)
    random.Random(seed).shuffle(labels)
    return m.reorder(labels)


class TestIsomorphism:
    def test_fano_relabelled(self):
        m = fano_raw()
        perm = [3, 0, 5, 1, 6, 2, 4]
        other = Matroid(7, [mask_of(perm[i] for i in elems(b))
                            for b in m.bases])
        assert_carries_bases(m, other, is_isomorphic(m, other))

    # pairs whose elements refinement cannot tell apart: every cell stays
    # whole until an element is individualised

    @pytest.mark.parametrize("r,n", [(0, 4), (1, 5), (2, 6), (3, 7),
                                     (4, 8), (5, 5)])
    def test_uniform_relabelled(self, r, n):
        u = uniform(r, n)
        other = shuffled(u, n)
        assert_carries_bases(u, other, is_isomorphic(u, other))

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_wheel_against_whirl(self, r):
        assert is_isomorphic(wheel(r), whirl(r)) is None
        assert is_isomorphic(whirl(r), wheel(r)) is None
        for m in (wheel(r), whirl(r)):
            other = shuffled(m, r)
            assert_carries_bases(m, other, is_isomorphic(m, other))

    def test_k4_against_w3(self):
        k4 = graphic(4, list(itertools.combinations(range(4), 2)))
        w3 = shuffled(wheel(3), 3)
        assert_carries_bases(k4, w3, is_isomorphic(k4, w3))

    def test_fano_and_nonfano_relabelled(self):
        for m in (fano(), nonfano()):
            other = shuffled(m, 7)
            assert_carries_bases(m, other, is_isomorphic(m, other))
        assert is_isomorphic(fano(), shuffled(nonfano(), 7)) is None

    def test_fano_vs_nonfano(self):
        assert is_isomorphic(fano(), nonfano()) is None

    def test_wheel3_vs_dual(self):
        assert is_isomorphic(wheel(3), wheel(3).dual()) is not None

    def test_different_sizes(self):
        assert is_isomorphic(u24(), uniform(2, 5)) is None
