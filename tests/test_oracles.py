"""Brute-force cross-validation of the load-bearing search routines.

Each oracle here re-solves the same question by unpruned enumeration and
must agree with the production path exactly.
"""

import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import builders, cli, minors
from matroidkit.core import (_NONE, AxiomViolation, Matroid, MatroidError,
                             _blocks, _lex_masks, _low16, _masks_of_size,
                             _pinned, bit, elems, is_isomorphic, lex_key,
                             mask_of, popcount, rank_table, submasks,
                             validate)
from matroidkit.builders import (BadParams, NotModularFlat,
                                 RestrictionMismatch, delta_wye, fano,
                                 graphic, nonfano, parallel_add,
                                 parallel_connection, relax, series_add,
                                 spike, spiked_fano, twisted_cube_matroid,
                                 uniform, wheel, whirl, wye_delta)
from matroidkit.connectivity import (_k_separating, _lambda_sets,
                                     _minor_3_connected, _minor_connected,
                                     _vertical_triples, cyclic_3_separations,
                                     is_3_connected, is_connected, lambda_,
                                     separations, vertical_3_separations)
from matroidkit.corpus import (_nonsingular, _pivot_coordinates,
                               from_vectors, generate_corpus,
                               random_sparse_paving)
from matroidkit.minors import (NLabelling, all_triples_grounded,
                               detachable_after_exchange, detachable_pairs,
                               grounded_triads, grounded_triangles,
                               has_minor, labellings)
from matroidkit.harness import _minor_pairs, _u3k_planes
from matroidkit.structures import (StructureReport, _subset_bits,
                                   detect_spike_like, fans, flans, is_quad,
                                   is_triad, is_triangle, quads, triads,
                                   triangles)


def popcounts(n):
    """int8 |X| for every mask X < 2^n."""
    return np.bitwise_count(np.arange(1 << n)).astype(np.int8)


def brute_isomorphic(m1, m2):
    if m1.n != m2.n or len(m1.bases) != len(m2.bases):
        return False
    b2 = set(m2.bases)
    for perm in itertools.permutations(range(m1.n)):
        if all(mask_of(perm[i] for i in elems(b)) in b2 for b in m1.bases):
            return True
    return False


def _element_profile(m, use_circuits):
    deg = [0] * m.n
    for b in m.bases:
        for i in elems(b):
            deg[i] += 1
    if not use_circuits:
        return [(d,) for d in deg]
    profs = [[] for _ in range(m.n)]
    for c in m.circuits():
        k = popcount(c)
        for i in elems(c):
            profs[i].append(k)
    return [(deg[i], tuple(sorted(profs[i]))) for i in range(m.n)]


def ref_is_isomorphic(m1, m2):
    """The backtracking search `is_isomorphic` used before refinement:
    elements placed in order of fewest candidates, pruned by the basis
    degree (and, for n <= 12, circuit-size) profile, by the ranks of
    element pairs and by the bases whose last element is placed."""
    if (m1.n, m1.rank, len(m1.bases)) != (m2.n, m2.rank, len(m2.bases)):
        return None
    n = m1.n
    if m1.rank == 0:
        return list(range(n))
    use_circ = n <= 12
    p1 = _element_profile(m1, use_circ)
    p2 = _element_profile(m2, use_circ)
    if sorted(p1) != sorted(p2):
        return None
    cands = [[j for j in range(n) if p2[j] == p1[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(cands[i]), i))
    pos = {e: k for k, e in enumerate(order)}
    done_at = [[] for _ in range(n)]
    for b in m1.bases:
        done_at[max(pos[i] for i in elems(b))].append(b)
    bset2 = set(m2.bases)
    t1, t2 = m1._ranks(), m2._ranks()
    img = [-1] * n
    used = [False] * n

    def place(k):
        if k == n:
            return True
        e = order[k]
        be = 1 << e
        for f in cands[e]:
            if used[f]:
                continue
            bf = 1 << f
            if any(t1[be | 1 << e0] != t2[bf | 1 << img[e0]]
                   for e0 in order[:k]):
                continue
            img[e] = f
            used[f] = True
            if all(mask_of(img[i] for i in elems(b)) in bset2
                   for b in done_at[k]) and place(k + 1):
                return True
            used[f] = False
            img[e] = -1
        return False

    return list(img) if place(0) else None


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


def ref_validate(bases, n, labels=None):
    # exchange fails iff an independent (r-1)-set I spans a basis: scan the
    # (r-1)-sets in mask order, build cl(I) by per-element lookups, and take
    # the least bases holding I and inside cl(I) by scanning all r-sets
    m = Matroid(n, bases, labels)
    r, t = m.rank, m._ranks()
    if r == 0:
        return m
    r_sets = sorted(map(mask_of, itertools.combinations(range(n), r)))
    for i_mask in sorted(map(mask_of,
                             itertools.combinations(range(n), r - 1))):
        if t[i_mask] != r - 1:
            continue
        cl = i_mask
        for y in range(n):
            if t[i_mask | bit(y)] == r - 1:
                cl |= bit(y)
        if t[cl] == r - 1:
            continue
        b1 = next(b for b in r_sets if b & i_mask == i_mask and t[b] == r)
        b2 = next(b for b in r_sets if b & ~cl == 0 and t[b] == r)
        raise AxiomViolation(
            f"exchange fails: independent set {sorted(elems(i_mask))} is "
            f"maximal in {sorted(elems(cl))} but rank there is {t[cl]}",
            (b1, b2, elems(b1 ^ i_mask)[0]))
    return m


def purity_ok(bases, n):
    # the verdict of the full purity criterion over int64 index and mask
    # arrays, one gather per bit: every independent I that cannot be
    # extended inside A = E - (ext(I) - I) has rank(A) = |I|
    m = Matroid(n, bases)
    tab = m.table()
    pc = popcounts(n)
    idx = np.arange(1 << n, dtype=np.int64)
    ext = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        b = 1 << i
        grows = (tab[idx | b] == tab + 1) & ((idx & b) == 0)
        ext[grows] |= b
    return not ((tab == pc) & (tab[m.full ^ ext] != pc)).any()


def assert_real_exchange_failure(witness, bases):
    # B1 and B2 are members, x is in B1 - B2, and no y in B2 - B1 makes
    # B1 - x + y a member
    b1, b2, x = witness
    bset = set(bases)
    assert b1 in bset and b2 in bset, witness
    assert b1 & ~b2 & bit(x), witness
    assert not any((b1 ^ bit(x)) | bit(y) in bset for y in elems(b2 & ~b1)), \
        witness


def brute_rank_table(n, bases):
    # the definition: r(X) = max over the members B of |X & B|
    idx = np.arange(1 << n)
    pc = popcounts(n)
    out = np.zeros(1 << n, dtype=np.int8)
    for b in bases:
        np.maximum(out, pc[idx & b], out=out)
    return out


def ref_rank_table(n, bases):
    """The two-pass kernel `rank_table` ran before its OR pass was packed:
    a bool OR pass marking every subset of a member, then the int8 max
    pass, both along every axis with the two halves taken as blocks (the
    production kernel went column by column on the short axes, which
    changes the speed, not the bytes)."""
    indep = np.zeros(1 << n, dtype=bool)
    indep[np.fromiter(bases, dtype=np.int64)] = True
    for i in range(n):
        s = 1 << i
        v = indep.reshape(-1, 2 * s)
        v[:, :s] |= v[:, s:]
    g = np.where(indep, popcounts(n), np.int8(0))
    for i in range(n):
        s = 1 << i
        v = g.reshape(-1, 2 * s)
        np.maximum(v[:, s:], v[:, :s], out=v[:, s:])
    return g


def ref_lambda(m):
    """lambda(X) for every mask X, as one full table."""
    t = m.table().astype(np.int16)
    return t + t[::-1] - m.rank


def ref_separating(m, k):
    """The sides X of k-separations, ascending, over the full tables."""
    pc = popcounts(m.n)
    return np.flatnonzero((ref_lambda(m) < k) & (pc >= k)
                          & (pc <= m.n - k)).tolist()


def ref_is_connected(m):
    # no 1-separation
    return not ref_separating(m, 1)


def ref_is_3_connected(m):
    # no 1- or 2-separation
    return not (ref_separating(m, 1) or ref_separating(m, 2))


def ref_circuits(m):
    # dependent sets all of whose single-element deletions are independent
    t = m.table()
    return tuple(x for x in range(1, 1 << m.n)
                 if t[x] < popcount(x)
                 and all(t[x ^ bit(e)] == popcount(x) - 1 for e in elems(x)))


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


def ref_reorder(m, new_labels):
    # every basis rebuilt element by element
    perm = [m.id_of(lab) for lab in new_labels]   # new id -> old id
    inv = [0] * m.n
    for newid, oldid in enumerate(perm):
        inv[oldid] = newid
    bases = (mask_of(inv[i] for i in elems(b)) for b in m.bases)
    return Matroid(m.n, bases, new_labels)


def ref_labellings(m, n_mat, survivor_cap=0, removed_cap=0):
    # one candidate at a time, each re-packed into a Matroid from its bases;
    # a capped region may meet the survivors, or the removed elements, once
    gap = m.n - n_mat.n
    kc = m.rank - n_mat.rank
    if gap < 0 or kc < 0 or gap < kc:
        return
    t = m._ranks()
    for c_ids in itertools.combinations(range(m.n), kc):
        c = mask_of(c_ids)
        if t[c] != kc:
            continue
        if popcount(c & removed_cap) > 1:
            continue
        d_pool = [i for i in range(m.n) if not (c >> i) & 1]
        for d_ids in itertools.combinations(d_pool, gap - kc):
            d = mask_of(d_ids)
            if popcount(survivor_cap & ~(c | d)) > 1:
                continue
            if popcount((c | d) & removed_cap) > 1:
                continue
            if t[m.full ^ d] != m.rank:
                continue
            survivors = elems(m.full ^ c ^ d)
            pos = {e: k for k, e in enumerate(survivors)}
            packed = [mask_of(pos[i] for i in combo)
                      for combo in itertools.combinations(survivors,
                                                          n_mat.rank)
                      if t[mask_of(combo) | c] == m.rank]
            if len(packed) != len(n_mat.bases):
                continue
            cand = Matroid(n_mat.n, packed, [m.labels[i] for i in survivors])
            if is_isomorphic(cand, n_mat) is not None:
                yield NLabelling(c, d)


def ref_parallel_connection(m1, m2, t_labels):
    # every rank read one subset at a time through a scalar closure loop
    t_labels = list(t_labels)
    for lab in t_labels:
        if lab not in m1.labels or lab not in m2.labels:
            raise RestrictionMismatch(lab)
    t1, t2 = m1.set_of(t_labels), m2.set_of(t_labels)
    r1, r2 = m1.restrict(t1), m2.restrict(t2)
    to1 = [r1.labels.index(lab) for lab in r2.labels]   # r2 id -> r1 id
    if set(r1.bases) != {mask_of(to1[i] for i in elems(b))
                         for b in r2.bases}:
        raise RestrictionMismatch("the two restrictions to T differ")
    n1 = m1.n
    tail = [i for i in range(m2.n) if not (t2 >> i) & 1]
    n = n1 + len(tail)
    if n > 24:
        raise BadParams("glued ground set would exceed 24 elements")
    labels = list(m1.labels) + [m2.labels[i] for i in tail]
    if len(set(labels)) != n:
        raise RestrictionMismatch("non-T labels of the two sides collide")
    g2 = [0] * m2.n
    for k, i in enumerate(tail):
        g2[i] = n1 + k
    for lab in t_labels:
        g2[m2.id_of(lab)] = m1.id_of(lab)
    lo = (1 << n1) - 1

    def extract2(x):
        return mask_of(i for i in range(m2.n) if (x >> g2[i]) & 1)

    def expand2(x2):
        return mask_of(g2[i] for i in elems(x2))

    def rank_of(x):
        f = x
        while True:
            nxt = f | m1.closure(f & lo) | expand2(m2.closure(extract2(f)))
            if nxt == f:
                break
            f = nxt
        return (m1.rank_of(f & lo) + m2.rank_of(extract2(f))
                - m1.rank_of(f & t1))

    r = rank_of((1 << n) - 1)
    bases = [mask_of(c) for c in itertools.combinations(range(n), r)
             if rank_of(mask_of(c)) == r]
    try:
        glued = validate(bases, n, labels)
    except MatroidError as exc:
        raise NotModularFlat(str(exc)) from exc
    if glued.restrict(mask_of(range(n1))) != m1:
        raise NotModularFlat("glued matroid does not restrict to the first side")
    r2chk = glued.restrict(glued.set_of(m2.labels))
    if {frozenset(r2chk.label_list(b)) for b in r2chk.bases} != \
       {frozenset(m2.label_list(b)) for b in m2.bases}:
        raise NotModularFlat("glued matroid does not restrict to the second side")
    return glued


def ref_triangles(m):
    # every 3-set tested on its own through the scalar rank lookups
    return [mask_of(c) for c in itertools.combinations(range(m.n), 3)
            if is_triangle(m, mask_of(c))]


def ref_quads(m):
    # every 4-set tested on its own through the scalar rank lookups of M
    # and of M*
    return [mask_of(c) for c in itertools.combinations(range(m.n), 4)
            if is_quad(m, mask_of(c))]


def ref_detect_spike_like(m, p):
    # legs paired up depth-first, ascending, each union of two legs tested
    # by `is_quad`; p is taken to be exactly 3-separating
    k = popcount(p)
    if k < 6 or k % 2:
        return None

    def pair_up(rest, legs):
        if not rest:
            return legs
        e = rest[0]
        for f in rest[1:]:
            leg = bit(e) | bit(f)
            if all(is_quad(m, leg | other) for other in legs):
                got = pair_up([x for x in rest[1:] if x != f], legs + [leg])
                if got:
                    return got
        return None

    legs = pair_up(elems(p), [])
    if not legs:
        return None
    return StructureReport("spike-like", p, {"legs": tuple(legs)})


def ref_all_triples_grounded(m, n_mat):
    # both grounded lists built in full, then compared by length
    return (len(grounded_triangles(m, n_mat)) == len(triangles(m))
            and len(grounded_triads(m, n_mat)) == len(triads(m)))


def ref_vertical_triples(m):
    """The pass `_vertical_triples` ran before it went block by block: for
    each z, one gather per rank over every mask X < 2^n that holds the
    lowest element other than z."""
    t = m.table()
    masks = np.arange(1 << m.n, dtype=np.int32)
    out = []
    for z in range(m.n):
        bz = 1 << z
        rest = m.full ^ bz
        low = rest & -rest
        x = masks[(masks & (bz | low)) == low]
        y = rest ^ x
        tx, ty = t[x], t[y]
        ok = (np.bitwise_count(x) >= 3) & (np.bitwise_count(y) >= 3) \
            & (tx >= 3) & (ty >= 3) & (t[x | bz] == tx) & (t[y | bz] == ty) \
            & (tx + ty <= m.rank + 2)
        out += sorted(((side, z, rest ^ side) for side in x[ok].tolist()),
                      key=lambda triple: lex_key(triple[0]))
    return out


def brute_vertical_triples(m):
    # the scalar scan: every X holding the lowest element other than z
    t = m._ranks()
    out = []
    for z in range(m.n):
        bz = 1 << z
        rest = m.full ^ bz
        if not rest:
            continue
        low = 1 << elems(rest)[0]
        for sub in submasks(rest ^ low):
            x = sub | low
            y = rest ^ x
            if popcount(x) < 3 or popcount(y) < 3:
                continue
            if t[x] < 3 or t[y] < 3:
                continue
            if t[x] + t[y | bz] - m.rank > 2:
                continue
            if t[x | bz] + t[y] - m.rank > 2:
                continue
            if t[x | bz] != t[x] or t[y | bz] != t[y]:
                continue  # z in cl(X) and cl(Y)
            out.append((x, z, y))
    out.sort(key=lambda triple: (triple[1], lex_key(triple[0])))
    return out


def ref_rank_exact(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def ref_from_vectors(vectors, labels):
    # one Fraction elimination per r-subset of the vectors
    n = len(vectors)
    r = ref_rank_exact(vectors)
    bases = [mask_of(c) for c in itertools.combinations(range(n), r)
             if ref_rank_exact([vectors[i] for i in c]) == r]
    return validate(bases, n, labels)


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

    CORPUS = [e.matroid for e in generate_corpus(0, max_n=10)]

    def check_against_references(self, m1, m2):
        got = is_isomorphic(m1, m2)
        want = ref_is_isomorphic(m1, m2) is not None
        assert (got is not None) == want
        if m1.n <= 8:
            assert brute_isomorphic(m1, m2) == want
        if got is not None:
            assert sorted(got) == list(range(m1.n))
            assert {mask_of(got[i] for i in elems(b)) for b in m1.bases} \
                == set(m2.bases)

    @settings(max_examples=80)
    @given(st.data())
    def test_random_relabellings(self, data):
        m = data.draw(st.sampled_from(self.CORPUS))
        perm = data.draw(st.permutations(range(m.n)))
        self.check_against_references(m, m.reorder(
            [m.labels[i] for i in perm]))

    @settings(max_examples=80)
    @given(st.data())
    def test_random_equal_size_pairs(self, data):
        m1 = data.draw(st.sampled_from(self.CORPUS))
        m2 = data.draw(st.sampled_from(
            [m for m in self.CORPUS if m.n == m1.n]))
        perm = data.draw(st.permutations(range(m2.n)))
        self.check_against_references(m1, m2.reorder(
            [m2.labels[i] for i in perm]))


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
        capped = set(labellings(m, n_mat, survivor_cap=region))
        unfiltered = {lab for lab in labellings(m, n_mat)
                      if popcount(region & ~(lab.contract | lab.delete)) <= 1}
        assert capped == unfiltered

    def test_removed_cap_against_post_filter(self):
        m = whirl(3)
        n_mat = uniform(2, 4)
        region = m.set_of(["r1", "r2"])
        capped = set(labellings(m, n_mat, removed_cap=region))
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
            assert purity_ok(fam, n) == want, fam
            try:
                validate(fam, n)
                got = True
            except AxiomViolation:
                got = False
            assert got == want, fam

    @settings(max_examples=80)
    @given(st.data())
    def test_witness_is_a_real_violation(self, data):
        fixed = [0b00011, 0b01100, 0b11000]
        with pytest.raises(AxiomViolation) as err:
            validate(fixed, 5)
        assert_real_exchange_failure(err.value.witness, fixed)
        n, bases = _draw_family(data)
        try:
            validate(bases, n)
        except AxiomViolation as exc:
            assert_real_exchange_failure(exc.witness, bases)


class TestDerivedCaches:
    def test_circuit_cache_equals_recomputation(self):
        m = fano()
        first = m.circuits()
        fresh = Matroid(m.n, m.bases, m.labels).circuits()
        assert first == fresh


def _random_family(rng, n, r, kind):
    # an equicardinal family of r-sets: a sparse paving matroid, the same
    # with one basis dropped, or a random sample of r-sets
    if kind == "random":
        r_sets = [mask_of(c) for c in itertools.combinations(range(n), r)]
        return rng.sample(r_sets, rng.randint(1, min(len(r_sets), 40)))
    bases = list(random_sparse_paving(rng, n, r).bases)
    if kind == "dropped" and len(bases) > 1:
        bases.remove(rng.choice(bases))
    return bases


def _validate_outcome(check, bases, n):
    try:
        m = check(bases, n)
    except AxiomViolation as err:
        return str(err), err.witness
    return m.bases, m.table().dtype.str, m.table().tobytes()


FAMILY_KINDS = ("matroid", "dropped", "random")


def _draw_family(data):
    n = data.draw(st.integers(3, 10))
    r = data.draw(st.integers(1, n - 1))
    rng = data.draw(st.randoms(use_true_random=False))
    return n, _random_family(rng, n, r,
                             data.draw(st.sampled_from(FAMILY_KINDS)))


def _check_validate(bases, n):
    # byte-equal to the scalar oracle, with the verdict of the full purity
    # pass and of pairwise exchange and a real witness; True when the
    # family fails
    got = _validate_outcome(validate, bases, n)
    assert got == _validate_outcome(ref_validate, bases, n), bases
    failed = isinstance(got[0], str)
    assert failed != purity_ok(bases, n), bases
    assert failed != brute_exchange_ok(bases, n), bases
    if failed:
        assert_real_exchange_failure(got[1], bases)
    return failed


class TestTableKernelOracle:
    """`validate` against its scalar oracle, the full purity pass and
    pairwise exchange, and the blockwise `circuits` and `cocircuits`
    against the definition, on matroids and non-matroids."""

    @settings(max_examples=80)
    @given(st.data())
    def test_validate_and_circuits_agree(self, data):
        n, bases = _draw_family(data)
        _check_validate(bases, n)
        m = Matroid(n, bases)
        assert m.circuits() == ref_circuits(m)
        assert m.dual().circuits() == ref_circuits(m.dual())
        assert m.cocircuits() == ref_circuits(m.dual())

    @pytest.mark.parametrize("n", [17, 18])
    def test_circuits_across_blocks(self, n):
        # past 2^16 masks the kernel reads X - i for the bits above 16 from
        # an earlier block of the table
        for seed in range(2):
            m = random_sparse_paving(random.Random(seed), n, 4)
            assert m.circuits() == ref_circuits(m)
            assert m.cocircuits() == ref_circuits(m.dual())

    def test_seeded_families_cover_both_outcomes(self):
        rng = random.Random(7)
        verdicts = []
        for _ in range(150):
            n = rng.randint(3, 10)
            bases = _random_family(rng, n, rng.randint(1, n - 1),
                                   rng.choice(FAMILY_KINDS))
            verdicts.append(_check_validate(bases, n))
        assert 20 <= sum(verdicts) <= 130

    def test_tables_are_read_only(self):
        m = twisted_cube_matroid()
        fresh = Matroid(m.n, m.bases, m.labels)
        for mat in (m, fresh, m.dual(), m.minor(1, 2),
                    validate(m.bases, m.n)):
            with pytest.raises(ValueError):
                mat.table()[3] = 0
            with pytest.raises(TypeError):
                mat._ranks()[3] = 0
            assert mat.rank_of(3) == mat.table()[3]


class TestRankTableOracle:
    """`rank_table`, whose four lowest axes come from one lookup table and
    whose other passes run in blocks of 2^20 masks, against the definition
    and against the all-blocks kernel, on matroids and non-matroids."""

    @settings(max_examples=80)
    @given(st.data())
    def test_agrees_with_the_definition(self, data):
        n = data.draw(st.integers(3, 10))
        r = data.draw(st.integers(1, n - 1))
        rng = data.draw(st.randoms(use_true_random=False))
        bases = _random_family(rng, n, r,
                               data.draw(st.sampled_from(FAMILY_KINDS)))
        got = rank_table(n, bases)
        assert got.dtype == np.int8
        assert got.tobytes() == brute_rank_table(n, bases).tobytes()
        assert got.tobytes() == ref_rank_table(n, bases).tobytes()

    # one chunk per block (n < 19), two (19), four (n >= 20), odd and even
    # numbers of row bits per block, and several blocks (n > 20)
    @pytest.mark.parametrize("n", [15, 17, 19, 20, 21, 22, 23, 24])
    @pytest.mark.parametrize("kind", FAMILY_KINDS)
    def test_large_tables_match_the_blocks_kernel(self, n, kind):
        bases = _random_family(random.Random(n), n, 4, kind)
        got = rank_table(n, bases)
        assert got.tobytes() == ref_rank_table(n, bases).tobytes()

    @settings(max_examples=150)
    @given(st.data())
    def test_packed_kernel_matches_the_two_pass_kernel(self, data):
        # any equicardinal family, not only matroids; rank 0 is the empty
        # set as the only basis, and n < 6 pads the table to one word
        n = data.draw(st.integers(1, 14))
        r = data.draw(st.integers(0, n))
        bases = data.draw(st.lists(
            st.sampled_from(_masks_of_size(n, r).tolist()),
            min_size=1, max_size=60, unique=True))
        got = rank_table(n, bases)
        assert got.dtype == np.int8
        assert got.tobytes() == ref_rank_table(n, bases).tobytes()

    @pytest.mark.parametrize("n", range(1, 15))
    def test_single_members_and_uniform_families(self, n):
        for r in range(n + 1):
            sets = _masks_of_size(n, r).tolist()
            for bases in ([sets[0]], [sets[-1]], sets):
                got = rank_table(n, bases)
                assert got.tobytes() == ref_rank_table(n, bases).tobytes()

    def test_low_axes_table_against_its_definition(self):
        # LOW[w, L] is the largest |L'| over the L' inside L whose bit is
        # set in w, for every 16-bit word w, and _NONE where there is none
        low = _low16()
        assert low.dtype == np.int8 and low.shape == (1 << 16, 16)
        assert not low.flags.writeable
        words = np.arange(1 << 16)
        for big in range(16):
            want = np.full(1 << 16, _NONE, dtype=np.int8)
            for sub in submasks(big):
                np.maximum(want, np.where(words >> sub & 1, popcount(sub),
                                          _NONE), out=want)
            assert low[:, big].tobytes() == want.tobytes(), big

    @pytest.mark.parametrize("seed", range(4))
    def test_cap_tables_are_pinned(self, seed):
        m = random_sparse_paving(random.Random(seed), 24, 4)
        digest = hashlib.sha256(rank_table(24, m.bases).tobytes())
        assert digest.hexdigest() == CAP_TABLE_SHA256[seed]

    def test_uniform_12_24_table_is_pinned(self):
        table = rank_table(24, _masks_of_size(24, 12).tolist())
        digest = hashlib.sha256(table.tobytes())
        assert digest.hexdigest() == CAP_TABLE_SHA256["U(12,24)"]


# sha256 of the rank tables of random_sparse_paving(random.Random(seed), 24,
# 4) and of U(12, 24), as the two-pass kernel built them
CAP_TABLE_SHA256 = {
    0: "000e58c61eb3899bbfd59ec4d9d6a7162fc1ff556ed54fb93ca33c8375933c8c",
    1: "5b26d04042a25ed721aaeb756d0d94068552273570edb8f65be2a75165bcb1d2",
    2: "3075bf10d2688f701958f2474724fd62c79c05820227cfb5ab8fdf82a9118836",
    3: "9d864fc49caf8a37453e5bbbd4ede535b91a26bc9918e8324fad8721c489ef15",
    "U(12,24)":
        "35ad8ac2edf0ba8d5043a3f7afd918b5b4384bb315fb009a8fb146277ca16a3d",
}


def _corpus_single_element_minors():
    for entry in generate_corpus(0, max_n=12):
        m = entry.matroid
        for e in range(m.n if m.n > 1 else 0):
            yield m.delete(1 << e)
            yield m.contract(1 << e)


LOOP, PARALLEL = 1 << 16, 1 << 15 | 1 << 16


class TestConnectivityOracle:
    """The blockwise half-lattice scans of `is_connected` and
    `is_3_connected` against full-table expressions."""

    def test_corpus_single_element_minors(self):
        for m in _corpus_single_element_minors():
            assert is_connected(m) == ref_is_connected(m), m
            assert is_3_connected(m) == ref_is_3_connected(m), m

    @pytest.mark.parametrize("r,n,want", [
        (0, 1, (True, True)), (1, 1, (True, True)), (1, 2, (True, True)),
        (2, 4, (True, True)), (0, 2, (False, False)),
        (2, 2, (False, False))])
    def test_tiny_ground_sets(self, r, n, want):
        m = uniform(r, n)
        got = (is_connected(m), is_3_connected(m))
        assert got == want == (ref_is_connected(m), ref_is_3_connected(m))

    @pytest.mark.parametrize("r,keep,want", [
        (3, lambda b: not b & LOOP, (False, False)),
        (3, lambda b: b & PARALLEL != PARALLEL, (True, False)),
        (4, lambda b: b & LOOP, (False, False))],
        ids=["loop-16", "parallel-15-16", "coloop-16"])
    def test_separations_past_the_first_block(self, r, keep, want):
        # every separating set that misses element 17 holds element 16, so
        # a scan of X without 17 finds them only past the first 2^16 masks
        m = Matroid(18, filter(keep, _masks_of_size(18, r).tolist()))
        got = (is_connected(m), is_3_connected(m))
        assert got == want == (ref_is_connected(m), ref_is_3_connected(m))


def _past_one_block():
    """Matroids on 17 and 18 elements, so more than one 2^16 block, with a
    series or parallel pair, a loop or a coloop at element 16, so that
    their small separations hold elements past the first block."""
    paving16 = random_sparse_paving(random.Random(17), 16, 4)
    yield series_add(paving16, 0, "q")
    yield parallel_add(paving16, 15, "q")
    for r, keep in ((3, lambda b: not b & LOOP),
                    (3, lambda b: b & PARALLEL != PARALLEL),
                    (4, lambda b: b & LOOP)):
        yield Matroid(18, filter(keep, _masks_of_size(18, r).tolist()))


LAMBDA_KEEPS = {
    "lambda-at-most-2": lambda lam, size: lam <= 2,
    "exact-3-six-up": lambda lam, size: (lam == 2) & (size >= 6),
    "exact-3-even": lambda lam, size: (lam == 2) & (size % 2 == 0),
    "size-only": lambda lam, size: size == 3,
}


class TestLambdaScanOracle:
    """The blockwise lambda scan and everything routed through it
    (`_lambda_sets`, `separations`, `is_connected`, `is_3_connected`)
    against the full lambda and popcount tables, at n = 17 and 18."""

    @pytest.mark.parametrize("name", LAMBDA_KEEPS)
    def test_lambda_sets(self, name):
        keep = LAMBDA_KEEPS[name]
        for m in _past_one_block():
            want = np.flatnonzero(keep(ref_lambda(m), popcounts(m.n)))
            assert _lambda_sets(m, keep) == want.tolist(), m

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_separations(self, k):
        found = 0
        for m in _past_one_block():
            lam = ref_lambda(m)
            want = sorted((x for x in ref_separating(m, k) if x & 1),
                          key=lex_key)
            got = separations(m, k)
            assert [rep.side for rep in got] == want, m
            assert [rep.lam for rep in got] == lam[want].tolist(), m
            found += len(got)
        assert found

    def test_connectivity(self):
        for m in _past_one_block():
            assert is_connected(m) == ref_is_connected(m), m
            assert is_3_connected(m) == ref_is_3_connected(m), m


class TestRandomSparsePaving:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_elements_is_bad_params(self, n):
        with pytest.raises(BadParams, match=f"n={n}, r=1"):
            random_sparse_paving(random.Random(0), n, 1)

    def test_three_elements_is_a_matroid(self):
        m = random_sparse_paving(random.Random(0), 3, 2)
        assert (m.n, m.rank) == (3, 2)


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

    def test_minor_tables_are_fresh_and_read_only(self):
        # every deletion and contraction of one or two elements, including
        # those whose slice of the parent table is contiguous
        m = twisted_cube_matroid()
        for k in (1, 2):
            for ids in itertools.combinations(range(m.n), k):
                for roles in itertools.product("cd", repeat=k):
                    c = mask_of(i for i, x in zip(ids, roles) if x == "c")
                    d = mask_of(i for i, x in zip(ids, roles) if x == "d")
                    tab = m.minor(c, d).table()
                    assert not tab.flags.writeable
                    assert not np.shares_memory(tab, m.table())

    def test_rank_formula_past_the_low_axes(self):
        # r'(X) = r(expand(X) | C) - r(C): every single-element removal at
        # n = 12, and pairs whose lowest element is 0 to 3 or above, as
        # the gather copies runs of 2^j entries, j the lowest removed one
        m = random_sparse_paving(random.Random(12), 12, 4)
        t = m.table().astype(np.int64)
        cases = [(c, d) for e in range(m.n)
                 for c, d in ((bit(e), 0), (0, bit(e)))]
        cases += [(0b11, 0), (bit(1), bit(7)), (0, 0b1100), (bit(3), bit(11)),
                  (0b1010000, 0), (bit(11), bit(5))]
        for c, d in cases:
            minor = m.minor(c, d)
            xs = m.expand(np.arange(1 << minor.n), c | d)
            assert np.array_equal(minor.table(), t[xs | c] - t[c]), (c, d)

    @settings(max_examples=60)
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

    @settings(max_examples=80)
    @given(st.data())
    def test_compress_and_expand(self, data):
        n = data.draw(st.integers(2, 12))
        m = uniform(1, n)
        roles = data.draw(st.lists(st.sampled_from("kcd"), min_size=n,
                                   max_size=n).filter(lambda x: "k" in x))
        c = mask_of(i for i, x in enumerate(roles) if x == "c")
        d = mask_of(i for i, x in enumerate(roles) if x == "d")
        x = data.draw(st.integers(0, m.full))
        removed = c | d
        small = m.compress(x, removed)
        assert m.expand(small, removed) == x & ~removed
        minor = m.minor(c, d)
        assert small >> minor.n == 0
        assert minor.label_list(small) == m.label_list(x & ~removed)
        y = data.draw(st.integers(0, minor.full))
        assert m.compress(m.expand(y, removed), removed) == y


class TestReorderOracle:
    """`Matroid.reorder`, which permutes the table's axes, against
    rebuilding every basis: the same labels and a bit-identical table."""

    @settings(max_examples=80)
    @given(st.data())
    def test_random_permutations(self, data):
        n = data.draw(st.integers(1, 10))
        r = data.draw(st.integers(0, n))
        m = random_sparse_paving(
            data.draw(st.randoms(use_true_random=False)), n, r) \
            if n >= 3 and 0 < r < n else uniform(r, n)
        for mat in (m, m.dual()):
            labels = data.draw(st.permutations(mat.labels))
            got, want = mat.reorder(labels), ref_reorder(mat, labels)
            assert got.labels == want.labels == tuple(labels)
            assert got.table().dtype == want.table().dtype
            assert got.table().tobytes() == want.table().tobytes()

    def test_rejects_a_label_twice_or_unknown(self):
        m = fano()
        for labels in (m.labels[:-1] + m.labels[:1], m.labels[:-1] + ("z",),
                       m.labels[:-1]):
            with pytest.raises(ValueError):
                m.reorder(labels)


def _random_mask(rng, n, p):
    return mask_of(i for i in range(n) if rng.random() < p)


class TestBatchedLabellingsOracle:
    """The batched labelling search against the per-candidate loop: the
    same labellings in the same order."""

    def test_corpus_sample_with_random_constraints(self):
        corpus = [e.matroid for e in generate_corpus(0, max_n=9)]
        pairs = [(m, n_mat) for m in corpus for n_mat in corpus
                 if 2 <= n_mat.n <= min(7, m.n)]
        rng = random.Random(23)
        found = 0
        for m, n_mat in rng.sample(pairs, 150):
            kw = {}
            if rng.random() < 0.4:
                kw["survivor_cap"] = _random_mask(rng, m.n, 0.4)
            if rng.random() < 0.4:
                kw["removed_cap"] = _random_mask(rng, m.n, 0.4)
            want = list(ref_labellings(m, n_mat, **kw))
            assert list(labellings(m, n_mat, **kw)) == want, (m, n_mat, kw)
            found += len(want)
        assert found > 100

    def test_edge_shapes(self):
        u26, u24, u36, u25 = uniform(2, 6), uniform(2, 4), uniform(3, 6), \
            uniform(2, 5)
        cases = [
            (u36, u25, {}),                            # no deletion
            (u26, u24, {}),                            # no contraction
            (fano(), fano(), {}),                      # no size gap
            (fano(), nonfano(), {}),                   # gap 0, no match
        ]
        for m, n_mat, kw in cases:
            want = list(ref_labellings(m, n_mat, **kw))
            assert list(labellings(m, n_mat, **kw)) == want, (m, n_mat, kw)
        assert len(list(labellings(u36, u25))) == 6

    CORPUS9 = [e.matroid for e in generate_corpus(0, max_n=9)]

    @settings(max_examples=60)
    @given(st.data())
    def test_random_corpus_pairs_and_caps(self, data):
        m = data.draw(st.sampled_from(self.CORPUS9))
        n_mat = data.draw(st.sampled_from(
            [x for x in self.CORPUS9 if x.n <= m.n]))
        kw = {cap: data.draw(st.integers(0, m.full))
              for cap in ("survivor_cap", "removed_cap")
              if data.draw(st.booleans())}
        assert list(labellings(m, n_mat, **kw)) == \
            list(ref_labellings(m, n_mat, **kw)), (m, n_mat, kw)

    @pytest.mark.parametrize("cells", [1, 97])
    def test_small_cell_bounds(self, cells, monkeypatch):
        # 1 makes every block of pairs a single pair and every gather of
        # counts or degree rows one pair's; 97 gives blocks of several rows
        # of C or slices of D, and uneven gathers
        monkeypatch.setattr(minors, "_CELLS", cells)
        self.test_corpus_sample_with_random_constraints()
        self.test_edge_shapes()


class TestBasisCountsOracle:
    """`Matroid.basis_counts`, the number of bases inside each set modulo
    2^16, against a count over the bases, and the labelling search past
    2^16 bases, where the counts wrap."""

    def test_against_a_count_over_the_bases(self):
        for entry in generate_corpus(0, max_n=10):
            # the dual's table is derived from M's, not built from bases
            for m in (entry.matroid, entry.matroid.dual()):
                bases = np.array(m.bases)
                ys = np.arange(1 << m.n)[:, None]
                want = ((bases & ~ys) == 0).sum(1)
                got = m.basis_counts()
                assert got.dtype == np.uint16 and not got.flags.writeable
                assert got.tolist() == want.tolist(), entry.name
                assert m.basis_counts() is got

    def test_counts_wrap_past_2_16_bases(self):
        # U(10, 20) has C(20, 10) = 184,756 bases
        m = uniform(10, 20)
        h = m.basis_counts()
        assert h[-1] == math.comb(20, 10) % (1 << 16) != math.comb(20, 10)
        bases = np.array(m.bases, dtype=np.int64)
        rng = random.Random(7)
        for _ in range(40):
            ids = rng.sample(range(m.n), 8)
            kc = rng.randrange(5)
            c, d = mask_of(ids[:kc]), mask_of(ids[kc:kc + rng.randrange(4)])
            exact = int((((bases & c) == c) & ((bases & d) == 0)).sum())
            got = sum((-1) ** popcount(t) * int(h[(m.full ^ d) ^ t])
                      for t in submasks(c))
            assert got % (1 << 16) == exact % (1 << 16), (c, d)
        # every M/C\\D with C independent and E - D spanning is uniform, so
        # the first labelling contracts the first elements and deletes the
        # next ones; |C| = 6 and |D| = 6 against U(4, 8), and |C| = 7 and
        # |D| = 6 against U(3, 7)
        assert has_minor(m, uniform(4, 8)) == \
            NLabelling(0b111111, 0b111111 << 6)
        assert has_minor(m, uniform(3, 7)) == \
            NLabelling(0b1111111, 0b111111 << 7)


def ref_detachable_pairs(m, n_mat, first_only=False):
    # the per-pair loop: every call builds and tests every pair minor again
    out = []
    if m.n < 3:
        return out
    for x1, x2 in itertools.combinations(range(m.n), 2):
        pair = bit(x1) | bit(x2)
        for mode in ("contract", "delete"):
            mm = m.contract(pair) if mode == "contract" else m.delete(pair)
            if not is_3_connected(mm):
                continue
            lab = None
            if n_mat is not None:
                lab = has_minor(mm, n_mat)
                if lab is None:
                    continue
            out.append(minors.DetachableResult((x1, x2), mode, "direct",
                                               None, lab))
            if first_only:
                return out
    return out


class TestDetachablePairsOracle:
    """The pair search, which keeps on M which pair minors are
    3-connected, against the per-pair loop, call after call on one M."""

    def test_corpus_with_and_without_n(self, monkeypatch):
        found = 0
        scans = _count_calls(monkeypatch, minors, "_covered")
        for entry in generate_corpus(0, max_n=9):
            m = entry.matroid
            for n_mat in (None, uniform(2, 4), uniform(3, 5), fano(),
                          nonfano(), wheel(3)):
                # a copy with nothing kept yet; the first call stops early,
                # so the next one finds only some pairs kept
                fresh = m.reorder(m.labels)
                for kw in ({"first_only": True}, {}):
                    # a cold memo, so that each call searches afresh
                    minors._minor_memo.clear()
                    got = detachable_pairs(fresh, n_mat, **kw)
                    want = ref_detachable_pairs(m, n_mat, **kw)
                    assert got == want, (entry.name, n_mat, kw)
                    found += len(want)
        assert found > 1200 and len(scans) > 15

    def test_parallel_and_series_pairs(self):
        # for a parallel pair p = {x, z}, M/p is M/x\z, and for a series
        # pair M\p is M\x/z: no labelling of M holds p in C (in D), yet
        # the pair minor may keep an N-minor, so it is searched even after
        # the scan of M
        kept = 0
        for entry in generate_corpus(0, max_n=8):
            if entry.name not in ("plane_triad8", "sparse8_0", "sparse8_2"):
                continue
            for x, extend, n_mat in itertools.product(
                    range(entry.matroid.n), (parallel_add, series_add),
                    (uniform(3, 5), wheel(3))):
                m = extend(entry.matroid, x, "z")
                minors._minor_memo.clear()
                got = detachable_pairs(m, n_mat)
                assert got == ref_detachable_pairs(m, n_mat), \
                    (entry.name, x, extend, n_mat)
                kept += (x, m.n - 1) in [r.pair for r in got]
        assert kept > 40

    def test_after_the_first_search_that_finds_nothing(self, monkeypatch):
        # the one search against U(3, 5) that finds nothing brings on the
        # scan of M, after which the covered pairs are still searched, and
        # the pairs that no survivor covers are skipped before their
        # 3-connectivity test
        m = next(e.matroid for e in generate_corpus(0, max_n=9)
                 if e.name == "elongquad9")
        n_mat = uniform(3, 5)
        scans = _count_calls(monkeypatch, minors, "_covered")
        searches = _count_calls(monkeypatch, minors, "has_minor")
        got = detachable_pairs(m, n_mat)
        assert len(scans) == 1 and len(got) == 18
        assert len(searches) == 19
        # fewer 3-connectivity answers than (pair, mode) keys that pass
        # the shape guard
        pairs = [bit(x1) | bit(x2)
                 for x1, x2 in itertools.combinations(range(m.n), 2)]
        shaped = sum(minors._may_hold(m, c, d, n_mat)
                     for p in pairs for c, d in ((p, 0), (0, p)))
        assert len(m._connected) < shaped
        assert got == ref_detachable_pairs(m, n_mat)

    def test_reference_constructions(self):
        for m, n_mat in ((twisted_cube_matroid(), nonfano()),
                         (spiked_fano(4), fano()),
                         (spiked_fano(4, True), fano())):
            minors._minor_memo.clear()
            assert detachable_pairs(m, n_mat) \
                == ref_detachable_pairs(m, n_mat), (m, n_mat)


class TestExchangeStageOracle:
    """The pair search on every single delta-wye or wye-delta exchange M'
    that `detachable_after_exchange` performs, against the per-pair loop.
    Every search on whirl(4) against U(2, 4) and on wheel(5) against M(K4)
    finds a minor, so no scan runs there; the twisted cube against M(K4)
    and against U(3, 6) finds most of its answers after the scan of M'
    that its first failed search brings on; and no M' of the reference
    constructions has an N-minor, so each search there ends at a scan of
    M' with no survivor.  The exchanges of spiked_fano(4) make two pairs of
    equal tables and those of spike(4) one table, so there the repeats take
    an earlier search's answers, re-tagged."""

    @pytest.mark.parametrize("build, size", [
        (lambda: (whirl(4), uniform(2, 4)), 32),
        (lambda: (wheel(5), wheel(3)), 40),
        (lambda: (twisted_cube_matroid(), wheel(3)), 64),
        (lambda: (twisted_cube_matroid(), uniform(3, 6)), 88),
        (lambda: (twisted_cube_matroid(), nonfano()), 0),
        (lambda: (spiked_fano(4), fano()), 0),
        (lambda: (spiked_fano(4, True), fano()), 0),
        (lambda: (spiked_fano(4), uniform(2, 4)), 144),
        (lambda: (spike(4), uniform(2, 4)), 32)],
        ids=["whirl4", "wheel5", "twistedcube-k4", "twistedcube-u36",
             "twistedcube", "spikedfano", "spikedfano-free",
             "spikedfano-u24", "spike4-u24"])
    def test_each_exchange(self, build, size):
        m, n_mat = build()
        want = []
        for triples, exchange, stage in (
                (triangles, delta_wye, "after-delta-wye"),
                (triads, wye_delta, "after-wye-delta")):
            for x in triples(m):
                mx = exchange(m, x)
                if not size:
                    assert has_minor(mx, n_mat) is None, (stage, x)
                got = detachable_pairs(mx, n_mat)
                assert got == ref_detachable_pairs(mx, n_mat), (stage, x)
                want += [dataclasses.replace(res, stage=stage, exchanged=x)
                         for res in got]
        assert len(want) == size
        assert detachable_after_exchange(m, n_mat) == want


def _count_calls(monkeypatch, owner, name):
    """The argument tuples of every call of owner.name from now on."""
    calls, fn = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _pair_minors(m):
    """(x1, x2, pair, contract, pair minor) for every pair of m."""
    for x1, x2 in itertools.combinations(range(m.n), 2):
        pair = bit(x1) | bit(x2)
        yield x1, x2, pair, True, m.contract(pair)
        yield x1, x2, pair, False, m.delete(pair)


class TestPinnedOracle:
    """`_pinned(t, ones, zeros)` against the entries of t at the masks
    that hold `ones` and miss `zeros`, listed by `Matroid.compress`."""

    @settings(max_examples=80)
    @given(st.data())
    def test_against_compress(self, data):
        n = data.draw(st.integers(1, 10))
        t = np.random.default_rng(data.draw(st.integers(0, 99))).integers(
            0, 100, 1 << n).astype(np.int8)
        pinned = data.draw(st.integers(0, (1 << n) - 1))
        # the fully pinned case, a 0-d view, in about one draw of five
        if data.draw(st.integers(0, 4)) == 0:
            pinned = (1 << n) - 1
        ones = data.draw(st.integers(0, pinned)) & pinned
        for a in (t, t[::-1]):
            want = np.empty(1 << n - popcount(pinned), dtype=np.int8)
            for x in range(1 << n):
                if x & pinned == ones:
                    want[Matroid.compress(x, pinned)] = a[x]
            got = _pinned(a, ones, pinned ^ ones)
            assert got.ndim == n - popcount(pinned)
            assert np.shares_memory(got, t)
            assert np.array_equal(got.reshape(-1), want)


def _removals(m, most):
    """(C, D) for every removal of at most `most` elements of m that keeps
    one, C and D disjoint."""
    for k in range(min(most, m.n - 1) + 1):
        for combo in itertools.combinations(range(m.n), k):
            for signs in itertools.product((0, 1), repeat=k):
                c = mask_of(e for e, s in zip(combo, signs) if s)
                yield c, mask_of(combo) ^ c


class TestPairKernelOracle:
    """`_minor_connected(m, c, d, k)`, read from M's table, for k = 2 and 3,
    and `is_connected` and `_minor_3_connected`, against the built minor
    M/C\\D (M itself when C and D are empty) with no run of the kernel:
    lambda over every subset by `lambda_` up to 10 elements, and beyond
    that the k-separations of `_k_separating`, a scan of the full table."""

    @staticmethod
    def check(m, removals):
        """The (k, verdict) pairs met."""
        verdicts = set()
        for c, d in removals:
            mm = m.minor(c, d)
            if mm.n <= 10:
                lam = [(lambda_(mm, x), min(popcount(x), mm.n - popcount(x)))
                       for x in range(1 << mm.n)]
                want = {k: all(v >= min(f, k - 1) for v, f in lam)
                        for k in (2, 3)}
            else:
                one = _k_separating(mm, 1)
                want = {2: not one, 3: not (one or _k_separating(mm, 2))}
            for k in (2, 3):
                assert _minor_connected(m, c, d, k) == want[k], (m, c, d, k)
                verdicts.add((k, want[k]))
            assert _minor_3_connected(m, c, d) == want[3], (m, c, d)
            assert is_connected(mm) == want[2], (m, c, d)
        return verdicts

    def test_corpus_and_duals(self):
        verdicts = set()
        for entry in generate_corpus(0, max_n=10):
            for m in (entry.matroid, entry.matroid.dual()):
                verdicts |= self.check(m, _removals(m, 2))
        assert verdicts == {(k, v) for k in (2, 3) for v in (False, True)}

    @settings(max_examples=80)
    @given(st.data())
    def test_minors_of_sparse_paving(self, data):
        # minors bring loops, coloops and parallel and series pairs
        n = data.draw(st.integers(3, 9))
        r = data.draw(st.integers(1, n - 1))
        m = random_sparse_paving(data.draw(st.randoms(use_true_random=False)),
                                 n, r)
        c = data.draw(st.integers(0, m.full))
        d = data.draw(st.integers(0, m.full)) & ~c
        mm = m if n - popcount(c | d) < 3 else m.minor(c, d)
        self.check(mm, _removals(mm, 2))

    @settings(max_examples=80)
    @given(st.data())
    def test_removals_of_sparse_paving(self, data):
        n = data.draw(st.integers(3, 9))
        r = data.draw(st.integers(1, n - 1))
        m = random_sparse_paving(data.draw(st.randoms(use_true_random=False)),
                                 n, r)
        removals = data.draw(st.lists(st.tuples(
            st.sets(st.integers(0, n - 1), max_size=min(3, n - 1)),
            st.integers(0, m.full)), min_size=1, max_size=20))
        # each drawn set is split into C, the bits the integer holds, and D
        self.check(m, [(mask_of(x) & y, mask_of(x) & ~y) for x, y in removals])

    @pytest.mark.parametrize("n", [17, 18, 20, 24])
    def test_past_one_block(self, n):
        # the minor's half lattice spans more than one 2^16 block of M's,
        # and from 19 elements on, its blocks are indexed by two or more
        # leading axes of the views
        if n < 20:
            for seed in range(2):
                m = random_sparse_paving(random.Random(seed), n, 4)
                pairs = [(c, d) for c, d in _removals(m, 2)
                         if popcount(c | d) == 2]
                assert {(3, False), (3, True)} <= self.check(m, pairs)
            return
        m = random_sparse_paving(random.Random(0), n, 4)
        # x and y are parallel in M/{a, b} for a circuit-hyperplane
        # {a, b, x, y}, a and b its two lowest elements
        sets = _masks_of_size(n, 4)
        h = int(sets[m.table()[sets] == 3][0])
        ab = mask_of(elems(h)[:2])
        verdicts = self.check(m, [(0, 0), (1, 0), (0, 1 << n - 1), (ab, 0)])
        # U(2, 10) + U(2, n - 10), whose first summand lies on elements
        # 0-7, 16 and 17: its one 1-separation sits on leading axes that
        # read differently backwards
        a = 0xff | 0b11 << 16
        b = (1 << n) - 1 ^ a
        pairs = [[mask_of(p) for p in itertools.combinations(elems(s), 2)]
                 for s in (a, b)]
        sums = Matroid(n, [p | q for p in pairs[0] for q in pairs[1]])
        verdicts |= self.check(sums, [(0, 0), (0, 1 << 8), (1 << n - 1, 0)])
        assert verdicts == {(k, v) for k in (2, 3) for v in (False, True)}


class TestPairScanOracle:
    """Every pair minor that one scan of M's own grid for N rules out has
    no N-minor: M/p for an independent p, and M\\p for a coindependent p,
    that no survivor of the scan holds in C, or in D, and every pair minor
    when the scan has no survivor at all."""

    def test_corpus_pairs(self):
        corpus = [e.matroid for e in generate_corpus(0, max_n=9)]
        ruled = 0
        for m in corpus:
            if m.n < 3:
                continue
            t = m._ranks()
            for n_mat in corpus:
                if n_mat.n > m.n - 2:
                    continue
                cover = minors._covered(minors._Grid(m, n_mat))
                for x1, x2, pair, contract, minor in _pair_minors(m):
                    if contract:
                        free = t[pair] == 2
                        held = cover and cover["contract"][x1, x2]
                    else:
                        free = t[m.full ^ pair] == m.rank
                        held = cover and cover["delete"][x1, x2]
                    # with no survivor, M and so each pair minor has none
                    if not cover or free and not held:
                        assert has_minor(minor, n_mat) is None, \
                            (m, n_mat, x1, x2, contract)
                        ruled += 1
        assert ruled > 30000


class TestShapeGuardOracle:
    """`_may_hold` reads the size, rank and corank of M/C\\D from M's
    ranks exactly, for every (C, D) with |C + D| <= 2 on every corpus pair
    with n <= 10.  What it rules out has no N-minor, and elsewhere
    `_minor_has` is `has_minor` on the built minor (checked for the
    3-connected N of at least four elements that the sweeps ask about)."""

    def test_corpus_pairs(self):
        corpus = [e.matroid for e in generate_corpus(0, max_n=10)]
        asked = {id(n) for n in corpus if n.n >= 4 and is_3_connected(n)}
        ruled = searched = 0
        for m in corpus:
            splits = [(c, s ^ c) for k in range(3)
                      for s in map(mask_of, itertools.combinations(
                          range(m.n), k)) if s != m.full
                      for c in submasks(s)]
            for c, d in splits:
                mm = m.minor(c, d)
                for n_mat in corpus:
                    fits = (mm.n >= n_mat.n and mm.rank >= n_mat.rank
                            and mm.n - mm.rank >= n_mat.n - n_mat.rank)
                    assert minors._may_hold(m, c, d, n_mat) == fits, \
                        (m, c, d, n_mat)
                    if not fits:
                        assert minors._minor_has(m, c, d, n_mat) is None
                        assert has_minor(mm, n_mat) is None, (m, c, d, n_mat)
                        ruled += 1
                    elif id(n_mat) in asked:
                        got = minors._minor_has(m, c, d, n_mat)
                        assert got == has_minor(mm, n_mat), (m, c, d, n_mat)
                        searched += got is not None
        assert ruled > 300000 and searched > 10000, (ruled, searched)


class TestSharedScanOracle:
    """`_minor_pairs` asks each M about its N's at once, one scan of M's
    grid per shape of N; it yields the pairs, and leaves in the memo the
    first labellings and verdicts, of a `has_minor` call per pair."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_against_per_n_search(self, seed):
        corpus = generate_corpus(seed, max_n=16)
        minors._minor_memo.clear()
        got = [(em.name, en.name) for em, en in _minor_pairs(corpus, 12, 1)]
        shared = dict(minors._minor_memo)
        minors._minor_memo.clear()
        want = [(em.name, en.name) for em in corpus for en in corpus
                if em.matroid.n <= 12 and is_3_connected(em.matroid)
                and en.matroid.n >= 4 and em.matroid.n > en.matroid.n
                and is_3_connected(en.matroid)
                and has_minor(em.matroid, en.matroid) is not None]
        assert got == want and len(got) > 200
        assert shared == minors._minor_memo


def _outcome(build, *args):
    # the built matroid's bases and labels, or the type of what it raised
    try:
        g = build(*args)
    except MatroidError as exc:
        return type(exc)
    return g.bases, g.labels


def ref_from_circuits(circuits, n, labels):
    # greedy rank, then every r-set tested against every listed set
    def independent(x):
        return not any(c and c & x == c for c in circuits)

    ind = 0
    for e in range(n):
        if independent(ind | bit(e)):
            ind |= bit(e)
    return validate([mask_of(c) for c in
                     itertools.combinations(range(n), popcount(ind))
                     if independent(mask_of(c))], n, labels)


def ref_paving(r, n, circuits):
    forbidden = set(circuits)
    return validate([mask_of(c) for c in itertools.combinations(range(n), r)
                     if mask_of(c) not in forbidden], n)


class TestBodyBuildersOracle:
    """The `circuits` body builder and `paving`, which take their r-sets
    from `_masks_of_size`, against r-set loops, on matroids' circuit
    families and on arbitrary families."""

    @settings(max_examples=80)
    @given(st.data())
    def test_circuits_body(self, data):
        n = data.draw(st.integers(1, 8))
        fams = st.lists(st.integers(0, (1 << n) - 1), max_size=12)
        if n >= 3 and data.draw(st.booleans()):
            m = random_sparse_paving(data.draw(st.randoms(
                use_true_random=False)), n, data.draw(st.integers(1, n - 1)))
            fams = st.just(list(m.circuits()))
        circuits = data.draw(fams)
        assert _outcome(cli._from_circuits, circuits, n, None) \
            == _outcome(ref_from_circuits, circuits, n, None)

    @settings(max_examples=80)
    @given(st.data())
    def test_paving(self, data):
        n = data.draw(st.integers(1, 8))
        r = data.draw(st.integers(0, n))
        circuits = data.draw(st.lists(
            st.sampled_from(_masks_of_size(n, r).tolist()), max_size=8))
        assert _outcome(builders.paving, r, n, circuits) \
            == _outcome(ref_paving, r, n, circuits)


def ref_delta_wye(m, tri, glue):
    # M(K4) glued to M along T by `glue`, T deleted, and the star's primes
    # renamed back into T's labels and positions
    tl = m.label_list(tri)
    primes = [lab + "'" for lab in tl]
    while any(p in m.labels for p in primes):
        primes = [p + "'" for p in primes]
    k4 = graphic(4, [(2, 3), (1, 3), (1, 2), (0, 1), (0, 2), (0, 3)],
                 tl + primes)
    cut = glue(k4, m, tl).delete(k4.set_of(tl))
    back = dict(zip(primes, tl))
    labels = [back.get(lab, lab) for lab in cut.labels]
    return Matroid(m.n, cut.bases, labels).reorder(m.labels)


def ref_wye_delta(m, triad, glue):
    return ref_delta_wye(m.dual(), triad, glue).dual()


def _exchanges(m, glue=None):
    """Every Delta-Y and Y-Delta exchange of m, by the formula or, given
    `glue`, by the gluing it does."""
    ops = ((delta_wye, triangles(m)), (wye_delta, triads(m)))
    if glue is not None:
        ops = ((functools.partial(ref_delta_wye, glue=glue), triangles(m)),
               (functools.partial(ref_wye_delta, glue=glue), triads(m)))
    return [_outcome(op, m, x) for op, xs in ops for x in xs]


def ref_modular_cut_extension(m, gens, label):
    # the flats as closures of every set, the cut grown one modular meet
    # at a time and closed upward after each, and the bases of M plus I + e
    # for each independent (r-1)-set I whose closure is off the cut
    flats = {m.closure(x) for x in range(1 << m.n)}
    t = m._ranks()
    cut = {f for f in flats if any(f & g == g for g in gens)}
    while True:
        meet = next((f & g for f in cut for g in cut
                     if t[f] + t[g] == t[f | g] + t[f & g]
                     and f & g not in cut), None)
        if meet is None:
            break
        cut |= {f for f in flats if f & meet == meet}
    new = [i | bit(m.n)
           for i in map(mask_of, itertools.combinations(range(m.n),
                                                          m.rank - 1))
           if t[i] == m.rank - 1 and m.closure(i) not in cut]
    return Matroid(m.n + 1, list(m.bases) + new, m.labels + (label,))


class TestFlatsOracle:
    SMALL = [e.matroid for e in generate_corpus(0, max_n=8)]

    def test_all_flats_are_the_closures(self):
        for m in self.SMALL:
            assert builders._all_flats(m).tolist() == \
                sorted({m.closure(x) for x in range(1 << m.n)})

    @settings(max_examples=80)
    @given(st.data())
    def test_modular_cut_extension(self, data):
        m = data.draw(st.sampled_from(
            [m for m in self.SMALL if m.rank > 0]))
        flats = sorted({m.closure(x) for x in range(1 << m.n)})
        gens = data.draw(st.lists(st.sampled_from(flats), min_size=1,
                                  max_size=3))
        got = builders.modular_cut_extension(m, gens, "z")
        assert_same(got, ref_modular_cut_extension(m, gens, "z"))
        validate(got.bases, got.n)


class TestParallelConnectionOracle:
    """The array gluing against the scalar closure loop: equal matroids,
    or the same exception.  The Delta-Y and Y-Delta formulas against the
    gluing with M(K4) that they stand for, done by each."""

    def test_exchanges_match(self):
        ms = [e.matroid for e in generate_corpus(0, max_n=8)]
        ms += [twisted_cube_matroid(), spiked_fano(4), spiked_fano(4, True)]
        got = [_exchanges(m) for m in ms]
        for glue in (parallel_connection, ref_parallel_connection):
            assert got == [_exchanges(m, glue) for m in ms], glue.__name__
        assert sum(map(len, got)) > 200

    def test_whole_ground_set(self):
        # T = E, so each term of the formula is a 0-d view: the triangle
        # U(2,3) becomes the star of M(K4), U(3,3), and the triad U(1,3)
        # becomes U(0,3)
        for op, ref, m, want in (
                (delta_wye, ref_delta_wye, uniform(2, 3), uniform(3, 3)),
                (wye_delta, ref_wye_delta, uniform(1, 3), uniform(0, 3))):
            assert op(m, m.full) == want
            for glue in (parallel_connection, ref_parallel_connection):
                assert _outcome(ref, m, m.full, glue) == \
                    _outcome(op, m, m.full)

    @settings(max_examples=30)
    @given(st.data())
    def test_sparse_paving_exchanges_match(self, data):
        # rank 3 gives triangles, corank 3 triads
        n = data.draw(st.integers(5, 9))
        r = data.draw(st.sampled_from([3, n - 3]))
        m = random_sparse_paving(data.draw(st.randoms(use_true_random=False)),
                                 n, r)
        got = _exchanges(m)
        assert got and got == _exchanges(m, parallel_connection)

    def test_self_gluings_match(self):
        rng = random.Random(3)
        raised = 0
        for _ in range(40):
            n = rng.randint(4, 7)
            m = random_sparse_paving(rng, n, rng.randint(2, min(4, n - 1)))
            shared = rng.sample(range(n), rng.randint(1, n - 1))
            la = [f"a{i}" for i in range(n)]
            lb = [la[i] if i in shared else f"b{i}" for i in range(n)]
            args = (Matroid(n, m.bases, la), Matroid(n, m.bases, lb),
                    [la[i] for i in shared])
            got = _outcome(parallel_connection, *args)
            assert got == _outcome(ref_parallel_connection, *args), \
                (m.bases, shared)
            raised += got is NotModularFlat
        assert raised


def _with_loop(m):
    # one more element, in no basis
    return Matroid(m.n + 1, m.bases, m.labels + ("loop",))


class TestTrianglesOracle:
    """The table-wide triangle scan against the per-3-set test: the same
    masks in the same order, for M and M*."""

    @settings(max_examples=80)
    @given(st.data())
    def test_sparse_paving(self, data):
        n = data.draw(st.integers(3, 10))
        r = data.draw(st.integers(1, n - 1))
        m = random_sparse_paving(data.draw(st.randoms(use_true_random=False)),
                                 n, r)
        for mat in (m, m.dual()):
            assert triangles(mat) == ref_triangles(mat)

    def test_loops_and_parallel_pairs(self):
        ms = [parallel_add(fano(), 3, "x"), parallel_add(uniform(2, 4), 0, "y"),
              series_add(uniform(2, 4), 1, "s"),
              parallel_add(parallel_add(wheel(3), 0, "x"), 0, "y")]
        ms += [_with_loop(m) for m in ms]
        for m in ms:
            for mat in (m, m.dual()):
                assert triangles(mat) == ref_triangles(mat)
        assert any(triangles(m) for m in ms)
        assert any(triads(m) for m in ms)

    def test_tiny_ground_sets(self):
        for n in (1, 2):
            for r in range(n + 1):
                m = uniform(r, n)
                assert triangles(m) == ref_triangles(m) == []
                assert triads(m) == ref_triangles(m.dual()) == []

    def test_cap_matroids(self):
        # the seeded rank-4 cap matroid has none; a rank-3 one has some
        for r in (4, 3):
            m = random_sparse_paving(random.Random(24), 24, r)
            for mat in (m, m.dual()):
                assert triangles(mat) == ref_triangles(mat)
        assert triangles(m)


class TestTriadsOracle:
    """`triads` and the per-set `is_triad`, read from M's own table, against
    the triangles of M*: the same masks in the same order, and no dual built
    on the way."""

    @staticmethod
    def check(m):
        fresh = Matroid._from_table(m.table(), m.labels)
        got = triads(fresh)
        per_set = [x for x in _lex_masks(m.n, 3).tolist()
                   if is_triad(fresh, x)]
        assert fresh._dual is None
        assert got == per_set == triangles(fresh.dual()) \
            == ref_triangles(m.dual()), m

    def test_seed_0_corpus(self):
        corpus = generate_corpus(0)
        for entry in corpus:
            self.check(entry.matroid)
        assert any(triads(entry.matroid) for entry in corpus)

    @settings(max_examples=80)
    @given(st.data())
    def test_minors_of_sparse_paving(self, data):
        # minors bring loops, coloops and parallel and series pairs
        n = data.draw(st.integers(3, 10))
        r = data.draw(st.integers(1, n - 1))
        m = random_sparse_paving(data.draw(st.randoms(use_true_random=False)),
                                 n, r)
        c = data.draw(st.integers(0, m.full))
        d = data.draw(st.integers(0, m.full)) & ~c
        self.check(m if c | d == m.full else m.minor(c, d))


class TestPopcountBlocks:
    """The popcounts of `_blocks`, read from the one 2^16 table, and
    `_masks_of_size`, against `int.bit_count` for every n <= 18, so past
    the edge of the first 2^16 block."""

    @pytest.mark.parametrize("n", range(1, 19))
    def test_against_bit_count(self, n):
        want = np.array([x.bit_count() for x in range(1 << n)],
                        dtype=np.int8)
        starts, got = zip(*_blocks(n))
        assert list(starts) == list(range(0, 1 << n, len(got[0])))
        assert np.concatenate(got).tobytes() == want.tobytes()
        for k in range(-1, n + 2):
            # the uncached function, so each (n, k) is built afresh here
            masks = _masks_of_size.__wrapped__(n, k)
            assert masks.dtype == np.int32 and not masks.flags.writeable
            assert masks.tolist() == np.flatnonzero(want == k).tolist()


class TestNoReferenceCycles:
    """With the cyclic collector off, a matroid and its tables die with
    the last reference to it, also after `fans`, `flans` and `dual`."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("build", [wheel, whirl])
    def test_fans_and_flans(self, build):
        m = build(4)
        ref = weakref.ref(m)
        assert fans(m) and flans(m)
        del m
        assert ref() is None

    def test_dual_both_ways(self):
        m = wheel(4)
        d = m.dual()
        assert d.dual() is m and m.dual() is d
        refs = weakref.ref(m), weakref.ref(d)
        del m, d
        assert [ref() for ref in refs] == [None, None]

    def test_is_isomorphic(self):
        m1 = wheel(4)
        m2 = m1.reorder(m1.labels[::-1])
        ref = weakref.ref(m2.table())
        assert is_isomorphic(m1, m2) is not None
        del m2
        assert ref() is None

    def test_dual_outlives_its_matroid(self):
        # the dual holds M weakly; once M is gone it builds M afresh
        m = wheel(4)
        d, tab, ref = m.dual(), m.table().tobytes(), weakref.ref(m)
        del m
        assert ref() is None
        again = d.dual()
        assert again.table().tobytes() == tab and again.dual() is d


def ref_u3k_planes(m, k):
    """The k-sets in lex order whose rank, and every 3-subset's rank, is 3,
    by a loop over `itertools.combinations`."""
    t = m._ranks()
    return [mask_of(c) for c in itertools.combinations(range(m.n), k)
            if t[mask_of(c)] == 3 and all(t[mask_of(s)] == 3 for s in
                                          itertools.combinations(c, 3))]


class TestSubsetTableOracle:
    """The shared lex-order k-subset table, its single-bit view, and the
    U(3,k)-plane gather that reads both, against itertools loops."""

    def test_combos_and_bits(self):
        for n in range(9):
            for k in range(n + 2):
                want = list(itertools.combinations(range(n), k))
                masks, bits = _lex_masks(n, k), _subset_bits(n, k)
                assert masks.dtype == bits.dtype == np.int32
                assert masks.tolist() == [mask_of(c) for c in want]
                assert bits.shape == (len(want), k)
                assert bits.tolist() == [[1 << e for e in c] for c in want]
                assert not (masks.flags.writeable or bits.flags.writeable)

    def test_u3k_planes(self):
        ms = [m for m in _corpus12() if m.n <= 11]
        ms += [uniform(3, 7), spiked_fano(4), relax(whirl(3), triangles(whirl(3))[0])]
        found = 0
        for m in ms:
            for k in (5, 6):
                got = _u3k_planes(m, k)
                assert got == ref_u3k_planes(m, k), (m, k)
                found += len(got)
        assert found


def _exact_even_sets(m):
    # every even, exactly 3-separating set of at least six elements
    pc = popcounts(m.n)
    return np.flatnonzero((ref_lambda(m) == 2) & (pc >= 6)
                          & (pc % 2 == 0)).tolist()


def _check_spike_like(m):
    """`quads` and `detect_spike_like` on M against the scalar references;
    how many sets are spike-like."""
    assert quads(m) == tuple(ref_quads(m))
    hits = 0
    for p in _exact_even_sets(m):
        got = detect_spike_like(m, p)
        assert got == ref_detect_spike_like(m, p), (m, m.fmt(p))
        hits += got is not None
    return hits


@functools.cache
def _corpus12():
    return tuple(e.matroid for e in generate_corpus(0, max_n=12))


class TestSpikeLikeOracle:
    """The quad table and the spike-like search that reads it against the
    per-4-set `is_quad` scan and the per-pair `is_quad` recursion: the
    same quads in the same order, and the same reports, legs included."""

    @settings(max_examples=60)
    @given(st.data())
    def test_corpus(self, data):
        # a new element order changes the search order, so the legs too
        m = data.draw(st.sampled_from(_corpus12()))
        m = m.reorder(data.draw(st.permutations(m.labels)))
        for mat in (m, m.dual()):
            _check_spike_like(mat)

    @pytest.mark.parametrize("r", [3, 4, 5, 6])
    def test_spikes(self, r):
        m = spike(r)
        # the unions of j legs, 3 <= j < r; all r legs miss only the tip,
        # which is 2-separating
        want = sum(math.comb(r, j) for j in range(3, r))
        assert _check_spike_like(m) == _check_spike_like(m.dual()) == want
        assert len(quads(m)) == math.comb(r, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_sparse_paving(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 12)
        # in rank 4 on 8 elements, a circuit-hyperplane whose complement
        # is one too is a quad
        for m in (random_sparse_paving(rng, n, rng.randint(2, n - 2)),
                  random_sparse_paving(random.Random(seed), 8, 4)):
            for mat in (m, m.dual()):
                _check_spike_like(mat)

    def test_enough_quads_but_no_legs(self):
        # U(3,6) on b..g plus U(1,2) on a, h: P = {a,...,f} is exactly
        # 3-separating, the five 4-sets of {b,...,f} are quads inside it,
        # but none holds a, so a pairs with nothing
        bases = [mask_of(c) | 1 << x for c in itertools.combinations(
            range(6), 3) for x in (6, 7)]
        m = Matroid(8, bases, "bcdefgah")
        p = m.set_of("abcdef")
        inside = [q for q in quads(m) if not q & ~p]
        assert lambda_(m, p) == 2
        assert len(inside) == 5 >= math.comb(3, 2)
        assert detect_spike_like(m, p) is ref_detect_spike_like(m, p) is None
        _check_spike_like(m)

    def test_cached_per_matroid(self):
        m = spike(4)
        assert quads(m) is quads(m)


class TestGroundingOracle:
    """The short-circuit `all_triples_grounded` against grounding every
    triangle and triad."""

    def test_corpus_pairs(self):
        corpus = [e.matroid for e in generate_corpus(0, max_n=9)]
        ns = [n_mat for n_mat in corpus if is_3_connected(n_mat)]
        got = [all_triples_grounded(m, n_mat) for m in corpus for n_mat in ns]
        assert got == [ref_all_triples_grounded(m, n_mat)
                       for m in corpus for n_mat in ns]
        assert 100 <= got.count(False) <= len(got) - 100


class TestVerticalTriplesOracle:
    """The blockwise pass behind `vertical_3_separations` and
    `cyclic_3_separations` against the all-masks pass it replaced and the
    scalar scan: the same triples in the same order."""

    def test_three_connected_corpus_and_duals(self):
        ms = [e.matroid for e in generate_corpus(0, max_n=12)] \
            + [twisted_cube_matroid(), spiked_fano(4)]
        found = 0
        for m in ms:
            if not is_3_connected(m):
                continue
            vertical = vertical_3_separations(m)
            cyclic = cyclic_3_separations(m)
            assert vertical == ref_vertical_triples(m), m
            assert vertical == brute_vertical_triples(m), m
            assert cyclic == ref_vertical_triples(m.dual()), m
            assert cyclic == brute_vertical_triples(m.dual()), m
            found += len(vertical) + len(cyclic)
        assert found > 150

    def test_one_element(self):
        for r in (0, 1):
            m = uniform(r, 1)
            assert vertical_3_separations(m) == ref_vertical_triples(m) == []

    @settings(max_examples=80)
    @given(st.data())
    def test_any_family(self, data):
        # the pass reads only the table, so any equicardinal family will do
        n = data.draw(st.integers(1, 10))
        r = data.draw(st.integers(0, n))
        m = Matroid(n, data.draw(st.lists(
            st.sampled_from(_masks_of_size(n, r).tolist()),
            min_size=1, max_size=40, unique=True)))
        got = _vertical_triples(m)
        assert got == ref_vertical_triples(m) == brute_vertical_triples(m)

    @pytest.mark.parametrize("seed", range(3))
    def test_two_blocks(self, seed):
        # n = 17 spans two blocks of 2^16 masks; a random family of 5-sets
        # has many sets of rank 3 to 5 on both sides
        m = Matroid(17, _random_family(random.Random(seed), 17, 5, "random"))
        got = _vertical_triples(m)
        assert got == ref_vertical_triples(m)
        assert {x >> 16 for x, _, _ in got} == {0, 1}


def _same_linear_matroid(vectors):
    labels = [f"v{i}" for i in range(len(vectors))]
    got = from_vectors(vectors, labels)
    want = ref_from_vectors(vectors, labels)
    assert got.labels == want.labels
    assert got.bases == want.bases
    assert got.table().tobytes() == want.table().tobytes()
    return got


class TestFromVectorsOracle:
    """`from_vectors`, one batched Bareiss pass over every r-subset, against
    a Fraction elimination per r-subset."""

    @settings(max_examples=120)
    @given(st.data())
    def test_agrees_with_fraction_elimination(self, data):
        # rank at most r in d = r..r+2 coordinates: each coordinate past
        # the first r repeats one of them, then the coordinates are shuffled
        n = data.draw(st.integers(1, 10))
        r = data.draw(st.integers(0, 5))
        d = data.draw(st.integers(r, r + 2))
        copies = data.draw(st.lists(st.integers(0, max(r - 1, 0)),
                                    min_size=d - r, max_size=d - r))
        perm = data.draw(st.permutations(range(d)))
        vectors = []
        for _ in range(n):
            kind = data.draw(st.sampled_from(
                ["free", "free", "zero", "repeat"]))
            if kind == "repeat" and vectors:
                vectors.append(list(data.draw(st.sampled_from(vectors))))
                continue
            core = [0] * r if kind == "zero" else data.draw(
                st.lists(st.integers(-4, 4), min_size=r, max_size=r))
            row = core + [core[j] if r else 0 for j in copies]
            vectors.append([row[j] for j in perm])
        _same_linear_matroid(vectors)

    def test_all_zero_vectors(self):
        m = _same_linear_matroid([[0, 0, 0]] * 4)
        assert (m.rank, m.bases) == (0, (0,))

    def test_single_vector(self):
        assert _same_linear_matroid([[0, -3]]).bases == (1,)
        assert _same_linear_matroid([[0, 0]]).bases == (0,)

    def test_pivot_coordinates_skip_a_dependent_leading_coordinate(self):
        # coordinate 1 repeats coordinate 0, so of the first r = 2
        # coordinates only one is a pivot and the third must be taken
        vectors = [[1, 1, 0], [2, 2, 1], [0, 0, 1], [1, 1, 1]]
        assert _pivot_coordinates(vectors) == [0, 2]
        assert _same_linear_matroid(vectors).rank == 2

    def test_row_swap_at_the_first_column(self):
        mats = np.array([[[0, 1], [1, 0]], [[0, 1], [0, 2]],
                         [[0, 2], [3, 1]], [[2, 4], [1, 2]]])
        assert _nonsingular(mats).tolist() == [0, 2]
        assert _same_linear_matroid([[0, 1], [1, 0]]).bases == (3,)


class TestFromVectorsContract:
    def test_ragged_rows(self):
        with pytest.raises(BadParams, match=r"vector 2 \[1\] has 1"):
            from_vectors([[1, 0], [0, 1], [1]], "abc")

    @pytest.mark.parametrize("bad", [1.0, Fraction(1), True, np.True_, "1"])
    def test_entries_must_be_integers(self, bad):
        with pytest.raises(BadParams, match="vector 1 .* not an integer"):
            from_vectors([[1, 0], [0, bad]], "ab")

    def test_numpy_integers_are_integers(self):
        m = from_vectors(np.array([[1, 0], [0, 1], [1, 1]]), "abc")
        assert m == from_vectors([[1, 0], [0, 1], [1, 1]], "abc")

    def test_hadamard_bound(self):
        # (r * max|a|^2)^r must stay below 2^63: at r = 2, max|a| <= 38967
        vectors = [[38967, 38967], [38967, -38967], [1, 0]]
        assert _same_linear_matroid(vectors).bases == (3, 5, 6)
        with pytest.raises(BadParams, match="vector 1 .* int64 bound"):
            from_vectors([[1, 0], [0, -38968]], "ab")
        with pytest.raises(BadParams, match="vector 1 "):
            from_vectors([[1, 0, 0], [0, 2 ** 70, 0]], "ab")

    def test_constructor_errors_stay(self):
        with pytest.raises(ValueError, match="ground set size 0"):
            from_vectors([], [])
        with pytest.raises(ValueError, match="labels"):
            from_vectors([[1], [2]], "a")

    def test_more_vectors_than_the_cap(self):
        with pytest.raises(BadParams, match="25 vectors"):
            from_vectors([[1]] * 25, [f"e{i}" for i in range(25)])
