"""Brute-force cross-validation of the load-bearing search routines.

Each oracle here re-solves the same question by unpruned enumeration and
must agree with the production path exactly.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matroidkit import builders, minors
from matroidkit.core import (AxiomViolation, Matroid, MatroidError,
                             _exchange_witness, _popcount_table, bit, elems,
                             is_isomorphic, lex_key, mask_of, popcount,
                             submasks, validate)
from matroidkit.builders import (BadParams, NotModularFlat,
                                 RestrictionMismatch, delta_wye, fano,
                                 nonfano, parallel_add, parallel_connection,
                                 series_add, spike, spiked_fano,
                                 twisted_cube_matroid, uniform, wheel, whirl,
                                 wye_delta)
from matroidkit.connectivity import (cyclic_3_separations, is_3_connected,
                                     vertical_3_separations)
from matroidkit.corpus import generate_corpus, random_sparse_paving
from matroidkit.minors import (NLabelling, all_triples_grounded,
                               grounded_triads, grounded_triangles, has_minor,
                               labellings)
from matroidkit.structures import is_triangle, triads, triangles


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


def ref_validate(bases, n, labels=None):
    # the purity criterion over int64 index and mask arrays, one gather per bit
    m = Matroid(n, bases, labels)
    full = m.full
    tab = m.table()
    pc = _popcount_table(n)
    idx = np.arange(1 << n, dtype=np.int64)
    ext = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        b = 1 << i
        grows = (tab[idx | b] == tab + 1) & ((idx & b) == 0)
        ext[grows] |= b
    bad = (tab == pc) & (tab[full ^ ext] != pc)
    if bad.any():
        i_mask = int(np.nonzero(bad)[0][0])
        a_mask = full ^ int(ext[i_mask])
        raise AxiomViolation(
            f"exchange fails: independent set {sorted(elems(i_mask))} is "
            f"maximal in {sorted(elems(a_mask))} but rank there is "
            f"{int(tab[a_mask])}", _exchange_witness(m.bases, i_mask, a_mask))
    return m


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


def ref_all_triples_grounded(m, n_mat):
    # both grounded lists built in full, then compared by length
    return (len(grounded_triangles(m, n_mat)) == len(triangles(m))
            and len(grounded_triads(m, n_mat)) == len(triads(m)))


def ref_vertical_triples(m):
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


class TestTableKernelOracle:
    """The stride-based `validate` and `circuits` against the int64 index
    version and the definition, on matroids and non-matroids."""

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(st.data())
    def test_validate_and_circuits_agree(self, data):
        n = data.draw(st.integers(3, 10))
        r = data.draw(st.integers(1, n - 1))
        rng = data.draw(st.randoms(use_true_random=False))
        bases = _random_family(rng, n, r,
                               data.draw(st.sampled_from(FAMILY_KINDS)))
        assert _validate_outcome(validate, bases, n) == \
            _validate_outcome(ref_validate, bases, n)
        m = Matroid(n, bases)
        assert m.circuits() == ref_circuits(m)
        assert m.dual().circuits() == ref_circuits(m.dual())

    def test_seeded_families_cover_both_outcomes(self):
        rng = random.Random(7)
        verdicts = []
        for _ in range(150):
            n = rng.randint(3, 10)
            bases = _random_family(rng, n, rng.randint(1, n - 1),
                                   rng.choice(FAMILY_KINDS))
            got = _validate_outcome(validate, bases, n)
            assert got == _validate_outcome(ref_validate, bases, n), bases
            verdicts.append(isinstance(got[0], str))
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

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
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

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
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

    @pytest.mark.parametrize("cells", [1, 97])
    def test_small_cell_bounds(self, cells, monkeypatch):
        # 1 makes every head all of C and slices D and the survivors one at
        # a time; 97 gives heads of every length in between, uneven slices
        monkeypatch.setattr(minors, "_CELLS", cells)
        self.test_corpus_sample_with_random_constraints()
        self.test_edge_shapes()


def _outcome(build, *args):
    # the built matroid's bases and labels, or the type of what it raised
    try:
        g = build(*args)
    except MatroidError as exc:
        return type(exc)
    return g.bases, g.labels


def _exchanges(m):
    return [_outcome(op, m, x)
            for op, xs in ((delta_wye, triangles(m)), (wye_delta, triads(m)))
            for x in xs]


class TestParallelConnectionOracle:
    """The array gluing against the scalar closure loop: equal matroids,
    or the same exception."""

    def test_exchanges_match(self, monkeypatch):
        ms = [e.matroid for e in generate_corpus(0, max_n=8)]
        ms += [twisted_cube_matroid(), spiked_fano(4), spiked_fano(4, True)]
        got = [_exchanges(m) for m in ms]
        monkeypatch.setattr(builders, "parallel_connection",
                            ref_parallel_connection)
        assert got == [_exchanges(m) for m in ms]
        assert sum(map(len, got)) > 200

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

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
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
    """The per-z numpy pass behind `vertical_3_separations` and
    `cyclic_3_separations` against the scalar scan: the same triples in the
    same order."""

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
            assert cyclic == ref_vertical_triples(m.dual()), m
            found += len(vertical) + len(cyclic)
        assert found > 150

    def test_one_element(self):
        for r in (0, 1):
            m = uniform(r, 1)
            assert vertical_3_separations(m) == ref_vertical_triples(m) == []
