"""Brute-force cross-validation of the load-bearing search routines.

Each oracle here re-solves the same question by unpruned enumeration and
must agree with the production path exactly.
"""

import itertools
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from matroidkit.core import (AxiomViolation, Matroid, bit, elems,
                             is_isomorphic, mask_of, popcount, validate)
from matroidkit.builders import (fano, spike, spiked_fano,
                                 twisted_cube_matroid, uniform, wheel, whirl)
from matroidkit.corpus import random_sparse_paving
from matroidkit.minors import has_minor, labellings


def brute_isomorphic(m1, m2):
    if m1.n != m2.n or len(m1.bases) != len(m2.bases):
        return False
    b2 = set(m2.bases)
    for perm in itertools.permutations(range(m1.n)):
        if all(mask_of(perm[i] for i in elems(b)) in b2 for b in m1.bases):
            return True
    return False


def brute_has_minor(m, n_mat):
    # all disjoint (C, D) of the right total size, no reduced-form shortcut
    gap = m.n - n_mat.n
    if gap < 0:
        return False
    for csize in range(gap + 1):
        for c_ids in itertools.combinations(range(m.n), csize):
            c = mask_of(c_ids)
            rest = [i for i in range(m.n) if not (c >> i) & 1]
            for d_ids in itertools.combinations(rest, gap - csize):
                d = mask_of(d_ids)
                if brute_isomorphic(m.minor(c, d), n_mat):
                    return True
    return False


def brute_exchange_ok(bases, n):
    bset = set(bases)
    sizes = {popcount(b) for b in bases}
    if len(sizes) != 1:
        return False
    for b1 in bases:
        for b2 in bases:
            for x in elems(b1 & ~b2):
                if not any((b1 ^ bit(x)) | bit(y) in bset
                           for y in elems(b2 & ~b1)):
                    return False
    return True


def ref_dual(m):
    return Matroid(m.n, [m.full ^ b for b in m.bases], m.labels)


def ref_delete(m, d):
    # the largest traces of the bases on E - D, re-packed bit by bit
    keep = m.full ^ d
    r = max(popcount(b & keep) for b in m.bases)
    pos = {e: k for k, e in enumerate(elems(keep))}
    bases = {mask_of(pos[i] for i in elems(b & keep))
             for b in m.bases if popcount(b & keep) == r}
    return Matroid(len(pos), bases, [m.labels[i] for i in pos])


def ref_minor(m, c, d):
    # M/C = (M* \ C)*, then delete D in the contraction's own ids
    mc = ref_dual(ref_delete(ref_dual(m), c))
    return ref_delete(mc, mc.set_of(m.label_list(d)))


def assert_same(got, want):
    assert got.labels == want.labels and got.rank == want.rank
    assert got.bases == want.bases
    assert got.table().dtype == want.table().dtype
    assert np.array_equal(got.table(), want.table())


def small_matroids():
    yield uniform(2, 4)
    yield uniform(2, 5)
    yield uniform(3, 5)
    yield wheel(3)
    yield whirl(2)
    yield uniform(1, 4)
    yield uniform(3, 6)


class TestIsomorphismOracle:
    def test_agreement_on_small_pairs(self):
        ms = list(small_matroids())
        for m1 in ms:
            for m2 in ms:
                got = is_isomorphic(m1, m2) is not None
                assert got == brute_isomorphic(m1, m2), (m1, m2)

    def test_relabelled_copies(self):
        rng = random.Random(5)
        for m in small_matroids():
            perm = list(range(m.n))
            rng.shuffle(perm)
            other = Matroid(m.n, [mask_of(perm[i] for i in elems(b))
                                  for b in m.bases])
            assert (is_isomorphic(m, other) is not None) == \
                brute_isomorphic(m, other) is True

    def test_twisted_small_negatives(self):
        # same size and rank, different structure
        a = uniform(3, 6)
        b = wheel(3)
        assert is_isomorphic(a, b) is None
        assert not brute_isomorphic(a, b)


class TestMinorOracle:
    def test_agreement(self):
        ms = [uniform(2, 4), uniform(2, 5), wheel(3), whirl(2),
              uniform(3, 6), uniform(1, 3)]
        ns = [uniform(2, 4), uniform(1, 2), uniform(2, 3), wheel(3)]
        for m in ms:
            for n_mat in ns:
                if n_mat.n > m.n:
                    continue
                got = has_minor(m, n_mat) is not None
                want = brute_has_minor(m, n_mat)
                assert got == want, (m, n_mat)

    def test_fano_spike_cases(self):
        # the binary Fano has no 4-point line minor either way
        assert has_minor(fano(), uniform(2, 4)) is None
        assert not brute_has_minor(fano(), uniform(2, 4))
        # the free spike has one
        assert has_minor(spike(3), uniform(2, 4)) is not None
        assert brute_has_minor(spike(3), uniform(2, 4))

    def test_survivor_cap_against_post_filter(self):
        m = whirl(3)
        n_mat = uniform(2, 4)
        region = m.set_of(["s1", "s2", "s3"])
        capped = set(labellings(m, n_mat, survivor_cap=(region, 1)))
        unfiltered = {lab for lab in labellings(m, n_mat)
                      if popcount(region & ~(lab.contract | lab.delete)) <= 1}
        assert capped == unfiltered

    def test_removed_cap_against_post_filter(self):
        m = whirl(3)
        n_mat = uniform(2, 4)
        region = m.set_of(["r1", "r2"])
        capped = set(labellings(m, n_mat, removed_cap=(region, 1)))
        unfiltered = {lab for lab in labellings(m, n_mat)
                      if popcount(region & (lab.contract | lab.delete)) <= 1}
        assert capped == unfiltered


class TestValidateOracle:
    def test_random_families_agree_with_pairwise_exchange(self):
        rng = random.Random(11)
        n, r = 5, 3
        all_sets = [mask_of(c) for c in itertools.combinations(range(n), r)]
        for trial in range(120):
            k = rng.randint(1, 6)
            fam = sorted(rng.sample(all_sets, k))
            want = brute_exchange_ok(fam, n)
            try:
                validate(fam, n)
                got = True
            except AxiomViolation:
                got = False
            assert got == want, fam

    def test_witness_is_a_real_violation(self):
        try:
            validate([0b00011, 0b01100, 0b11000], 5)
        except AxiomViolation as err:
            b1, b2, x = err.witness
            if x is not None:
                bset = {0b00011, 0b01100, 0b11000}
                assert not any((b1 ^ bit(x)) | bit(y) in bset
                               for y in elems(b2 & ~b1))
        else:
            raise AssertionError("family should fail exchange")


class TestDerivedCaches:
    def test_circuit_cache_equals_recomputation(self):
        m = fano()
        first = m.circuits()
        fresh = Matroid(m.n, m.bases, m.labels).circuits()
        assert first == fresh
        assert m.circuits() is first   # cached object, same content


class TestMinorGatherOracle:
    """Minors and duals gathered from the rank table against the same
    matroids built from basis families."""

    def test_every_minor_of_small_matroids(self):
        for m in small_matroids():
            assert_same(m.dual(), ref_dual(m))
            for roles in itertools.product("kcd", repeat=m.n):
                if "k" not in roles:
                    continue
                c = mask_of(i for i, x in enumerate(roles) if x == "c")
                d = mask_of(i for i, x in enumerate(roles) if x == "d")
                assert_same(m.minor(c, d), ref_minor(m, c, d))

    def test_single_and_double_minors_of_references(self):
        for m in (twisted_cube_matroid(), spiked_fano()):
            assert_same(m.dual(), ref_dual(m))
            for k in (1, 2):
                for ids in itertools.combinations(range(m.n), k):
                    for roles in itertools.product("cd", repeat=k):
                        c = mask_of(i for i, x in zip(ids, roles) if x == "c")
                        d = mask_of(i for i, x in zip(ids, roles) if x == "d")
                        assert_same(m.minor(c, d), ref_minor(m, c, d))

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.data())
    def test_minor_identities_on_sparse_paving(self, data):
        n = data.draw(st.integers(3, 9))
        r = data.draw(st.integers(1, n - 1))
        m = random_sparse_paving(data.draw(st.randoms(use_true_random=False)),
                                 n, r)
        roles = data.draw(st.lists(st.sampled_from("kcd"), min_size=n,
                                   max_size=n).filter(lambda x: "k" in x))
        c = mask_of(i for i, x in enumerate(roles) if x == "c")
        d = mask_of(i for i, x in enumerate(roles) if x == "d")
        minor = m.minor(c, d)
        assert_same(minor, ref_minor(m, c, d))
        # (M/C\D)* = M*\C/D
        assert minor.dual() == m.dual().minor(d, c)
        # deletion and contraction commute
        mc, md = m.contract(c), m.delete(d)
        assert minor == mc.delete(mc.set_of(m.label_list(d)))
        assert minor == md.contract(md.set_of(m.label_list(c)))
        again = Matroid(minor.n, minor.bases, minor.labels)
        assert again == minor and hash(again) == hash(minor)
