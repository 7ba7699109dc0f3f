"""Behaviour at the 24-element cap, with stated time and memory bounds.

One seeded rank-4 sparse paving matroid on 24 elements goes through
`validate`, `circuits`, `triangles`, `triads` and `is_3_connected`, and a
24-element family that breaks basis exchange only at its last (r-1)-set
must fail `validate`.  `is_isomorphic` must decide seeded sparse paving
matroids of ranks 4, 8 and 9 against relabelled copies and their duals,
and U(4, 24) and U(12, 24) against relabelled copies.  A `circuits` file
and `paving` and `uniform` must build 24-element matroids, U(12, 24)
among them, and `separators` must run on a 24-element file.  Two
table-built copies of U(12, 24), and of a rank-4 sparse paving matroid,
compare equal within WALL_S and 1 MiB, deriving no bases.

The rank table has 2^24 entries, so a single table-sized int64 array is
128 MiB; the bound below admits a few int8/bool tables and arrays over
the sets of one size, but not a table-sized int32 or int64 array or a
Python-list copy of a table.  Tighter pins hold the n = 24 kernels to the
table they return: `rank_table` stays within one table plus 4 MiB (the
packed OR pass and its 1 MiB lookup table), a single-element minor within
half a table plus 1 MiB and, on element 1, 4x the time of one on element
23, and `_masks_of_size(24, 3)`, `is_3_connected`
and `separations` within 1 MiB each, as every popcount comes from one
2^16 table and every lambda scan runs block by block; `separators` and
`vertical_3_separations`, table build included, stay within one table
plus 4 MiB, and so do `circuits` and `cocircuits`, which walk the table
in 2^16-mask blocks.  A `circuits` file parses within one table plus
5 MiB, its circuits' flags read packed.  `triads`, `cocircuits` and the
`analyze` path read M's own table and never build the dual.  `has_minor`
decides the rank-4 matroid against U(2, 4), which it holds, and M(K4),
which it does not, each within WALL_S and within M's uint16 subset-sum
table of basis counts (two tables' worth, built inside) plus 8 MiB, as
its memo key is a view of the table, not a copy.  The labelling search
of U(12, 24) against U(4, 8), over 735,471 contraction sets of eight
elements, stays within four tables: the subset-sum table, the 12-sets
it is built from and the 8-sets.  `detachable_pairs` against the Fano
plane, which M does not hold, stays within WALL_S and four tables, as the
scan of M that its first failed search brings on has no survivor and
ends the search; and without N it reads every pair's 3-connectivity from
M's table, so it builds no minor at all.  Delta-Y and then Y-Delta on a
triangle of the 22- and 24-element wheels give the wheel back, and
`validate` accepts the Delta-Y result; each exchange stays within WALL_S
and two tables, as it reads its input's table and allocates only its
output and one sum over an eighth of the table.
"""

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from matroidkit.builders import (delta_wye, fano, paving, uniform, wheel,
                                 wye_delta)
from matroidkit.cli import main, parse, serialize
from matroidkit.connectivity import (_minor_3_connected, is_3_connected,
                                     separations, vertical_3_separations)
from matroidkit.core import (MAX_GROUND, AxiomViolation, Matroid,
                             _masks_of_size, is_isomorphic, mask_of,
                             popcount, rank_table, validate)
from matroidkit.corpus import random_sparse_paving
from matroidkit.minors import (NLabelling, detachable_pairs, has_minor,
                               labellings, verify_labelling)
from matroidkit.structures import fans, flans, quads, triads, triangles

PEAK_MIB = 256
WALL_S = 10.0
TABLE_MIB = (1 << MAX_GROUND) / 2 ** 20


def uniform_table(n, r):
    """int8 min(|X|, r) for every mask X < 2^n: the rank table of U(r, n)."""
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.int32))
    return np.minimum(sizes, r).astype(np.int8)


def test_cap_kernels_within_time_and_memory_bounds():
    n = MAX_GROUND
    src = random_sparse_paving(random.Random(24), n, 4)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        m = validate(src.bases, n, src.labels)
        circs = m.circuits()
        tris, trds, conn = triangles(m), triads(m), is_3_connected(m)
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    # a rank-4 sparse paving matroid: every 3-set is independent and
    # co-independent, and on 24 elements it is 3-connected
    assert (m.n, m.rank, m.bases) == (n, 4, src.bases)
    # the circuits are the circuit-hyperplanes H and the 5-sets holding
    # none of them; two members of H share at most two elements, so no
    # 5-set holds two, and each member lies in 20 of the C(24, 5) 5-sets
    hyper = math.comb(n, 4) - len(m.bases)
    assert 0 < hyper
    assert len(circs) == hyper + math.comb(n, 5) - (n - 4) * hyper
    assert sum(popcount(c) == 4 for c in circs) == hyper
    assert (tris, trds, conn) == ([], [], True)
    assert peak <= PEAK_MIB, f"tracemalloc peak {peak:.0f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


def test_connectivity_scan_builds_no_table_sized_temporary():
    n = MAX_GROUND
    src = random_sparse_paving(random.Random(24), n, 4)
    tracemalloc.start()
    try:
        tab = rank_table(n, src.bases)
        table_peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
        m = Matroid._from_table(tab, src.labels)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        conn = is_3_connected(m)
        scan_peak = (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
        # a removal test reads the same table through strided views
        removal_peaks = []
        for c, d in ((0b11, 0), (0, 1 << 3 | 1 << 17)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert _minor_3_connected(m, c, d)
            removal_peaks.append(
                (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20)
    finally:
        tracemalloc.stop()
    assert tab.tobytes() == src.table().tobytes()
    assert table_peak <= TABLE_MIB + 4, f"rank_table peak {table_peak:.1f} MiB"
    assert scan_peak <= 1, f"is_3_connected peak {scan_peak:.2f} MiB"
    assert max(removal_peaks) <= 1, f"removal test peaks {removal_peaks} MiB"
    # every single-element minor of a rank-4 sparse paving matroid on 24
    # elements is 3-connected, so each scan runs over the whole half table
    t0 = time.perf_counter()
    minors = [is_3_connected(f(1 << e)) for e in (0, n - 1)
              for f in (m.delete, m.contract)]
    wall = time.perf_counter() - t0
    assert conn and all(minors)
    assert wall <= WALL_S, f"{wall:.1f} s"


def traced_mib(fn):
    """(fn(), the peak of fn's traced allocations above those live before
    it, in MiB)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        tracemalloc.stop()
    return out, peak


def test_masks_of_size_builds_nothing_table_sized():
    # the uncached function, so the shared array of other tests is kept
    masks, peak = traced_mib(lambda: _masks_of_size.__wrapped__(24, 3))
    assert masks.dtype == np.int32 and len(masks) == math.comb(24, 3)
    assert peak <= 1, f"_masks_of_size(24, 3) peak {peak:.2f} MiB"


def test_single_element_minor_makes_one_half_table():
    m = random_sparse_paving(random.Random(24), MAX_GROUND, 4)
    m.table()
    # e = 1 and 2 put the slice on a strided axis, e = 23 on the leading one
    for e in (1, 2, MAX_GROUND - 1):
        for f in (m.delete, m.contract):
            minor, peak = traced_mib(lambda: f(1 << e))
            assert minor.table().nbytes == TABLE_MIB * 2 ** 19
            assert peak <= TABLE_MIB / 2 + 1, f"minor peak {peak:.1f} MiB"
    # the gather copies runs of 2^e entries as single items, so a low e
    # costs little more than the top one (28x when it copied 2-byte runs)
    def best_s(e):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            m.delete(1 << e)
            best = min(best, time.perf_counter() - t0)
        return best

    low, top = best_s(1), best_s(MAX_GROUND - 1)
    assert low <= 4 * top, f"{low * 1e3:.1f} ms against {top * 1e3:.1f} ms"


@pytest.mark.parametrize("name", ["U(2,4)", "M(K4)"])
def test_minor_search_at_the_cap_within_bounds(name):
    # C runs over 2-sets against U(2, 4) and over single elements against
    # M(K4), and D over the 18- and 17-sets.  The circuit-hyperplanes of a
    # sparse paving matroid share at most two elements: in M/{a,b} they
    # make disjoint parallel pairs, so 4-point lines abound, and in M/e
    # disjoint triangles, while those of M(K4) meet
    n_mat = uniform(2, 4) if name == "U(2,4)" else wheel(3)
    m = random_sparse_paving(random.Random(24), MAX_GROUND, 4)
    m.table()
    t0 = time.perf_counter()
    lab, peak = traced_mib(lambda: has_minor(m, n_mat))
    wall = time.perf_counter() - t0
    assert (lab is not None) == (name == "U(2,4)")
    if lab is not None:
        assert verify_labelling(m, n_mat, lab)
    assert m.basis_counts().nbytes == 2 * TABLE_MIB * 2 ** 20
    assert peak <= 2 * TABLE_MIB + 8, f"has_minor peak {peak:.1f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


def test_minor_search_over_large_contraction_sets_within_bounds():
    # against U(4, 8), C and D both run over the C(24, 8) = 735,471 8-sets
    # of U(12, 24), 2^8 submasks each: the submasks are made per block of
    # C sets, never for all of them at once.  U(12, 24) has C(24, 12)
    # bases, past 2^16, and the lex-first labelling is the first pair
    n = MAX_GROUND
    m = Matroid._from_table(uniform_table(n, 12), [str(i) for i in range(n)])
    t0 = time.perf_counter()
    lab, peak = traced_mib(lambda: next(labellings(m, uniform(4, 8)), None))
    wall = time.perf_counter() - t0
    assert lab == NLabelling(0xFF, 0xFF00)
    # the subset-sum table, two tables' worth, the 12-sets it is built
    # from, two thirds of a table as int32, and the masks of the 8-sets
    assert peak <= 4 * TABLE_MIB, f"labellings peak {peak:.1f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


def test_detachable_pairs_at_the_cap_within_bounds():
    # the rank-4 matroid has no Fano minor: M/p has rank 2, so the shape
    # guard passes over it, and the first search of an M\p, which finds
    # nothing, brings on one scan of M's own grid; the scan has no
    # survivor, so no labelling of M and no pair minor has an N-minor, and
    # the search ends there, after one 3-connectivity test.  Within M's
    # subset-sum table (two tables' worth) plus the memo key of the
    # searched pair minor, a quarter table, and their temporaries
    m = random_sparse_paving(random.Random(24), MAX_GROUND, 4)
    m.table()
    t0 = time.perf_counter()
    got, peak = traced_mib(lambda: detachable_pairs(m, fano(),
                                                    first_only=True))
    wall = time.perf_counter() - t0
    assert got == []
    assert peak <= 4 * TABLE_MIB, f"detachable_pairs peak {peak:.1f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


def test_pure_pairs_at_the_cap_build_no_minor(monkeypatch):
    m = random_sparse_paving(random.Random(24), MAX_GROUND, 4)
    within = 0b111111
    want = [(pair, mode) for pair in itertools.combinations(range(6), 2)
            for mode, remove in (("contract", m.contract),
                                 ("delete", m.delete))
            if is_3_connected(remove(1 << pair[0] | 1 << pair[1]))]

    def no_minor(*args):
        raise AssertionError("a pair minor was built")

    monkeypatch.setattr(Matroid, "_from_table", no_minor)
    got = detachable_pairs(m, None)
    assert [(r.pair, r.mode) for r in got
            if not mask_of(r.pair) & ~within] == want
    assert len(want) == 26


def test_triads_and_analyze_build_no_dual(tmp_path, capsys, monkeypatch):
    # r* = 20 differs from r = 4, so no dual is needed: triads are read
    # from M's table, and self-duality is settled by the ranks
    n = MAX_GROUND
    src = random_sparse_paving(random.Random(24), n, 4)
    m = Matroid(n, src.bases, src.labels)
    m.table()
    trds, peak = traced_mib(lambda: triads(m))
    assert (trds, m._dual) == ([], None)
    assert peak <= 1, f"triads peak {peak:.2f} MiB"
    assert (triangles(m), is_3_connected(m)) == ([], True)
    assert (fans(m), flans(m), m._dual) == ([], [], None)
    path = tmp_path / "cap24.mtx"
    path.write_text(serialize(src, "cap24"))

    def no_dual(self):
        raise AssertionError("analyze built a dual")

    monkeypatch.setattr(Matroid, "dual", no_dual)
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "self-dual no\ntriangles none\ntriads none\n" in out


def test_circuits_and_cocircuits_within_bounds(monkeypatch):
    # the table build included: each kernel walks the table in 2^16-mask
    # blocks and keeps only its output beside the table, and cocircuits
    # reads M's own table, so no dual is built
    n = MAX_GROUND
    src = random_sparse_paving(random.Random(24), n, 4)

    def no_dual(self):
        raise AssertionError("built a dual")

    monkeypatch.setattr(Matroid, "dual", no_dual)
    out = {}
    for kernel in (Matroid.circuits, Matroid.cocircuits):
        m = Matroid(n, src.bases, src.labels)
        t0 = time.perf_counter()
        out[kernel.__name__], peak = traced_mib(lambda: kernel(m))
        wall = time.perf_counter() - t0
        assert peak <= TABLE_MIB + 4, f"{kernel.__name__} peak {peak:.1f} MiB"
        assert wall <= WALL_S, f"{wall:.1f} s"
    # the hyperplanes are the circuit-hyperplanes H and the 3-sets inside
    # none of them, as no 3-set lies in two; the cocircuits are their
    # complements
    hyper = math.comb(n, 4) - len(src.bases)
    assert len(out["circuits"]) == hyper + math.comb(n, 5) - (n - 4) * hyper
    assert len(out["cocircuits"]) == math.comb(n, 3) - 3 * hyper
    assert sum(popcount(c) == n - 4 for c in out["cocircuits"]) == hyper


def within_time_and_memory_bounds(build, peak_mib=PEAK_MIB):
    """build(), after checking that it runs within WALL_S and that its
    traced allocations peak within `peak_mib`.  It runs twice, the timed run
    first and untraced: tracemalloc's cost per Python object would swamp
    the time of a build that makes millions of them.  So the traced run
    finds the shared per-n mask arrays already built."""
    t0 = time.perf_counter()
    out = build()
    wall = time.perf_counter() - t0
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= peak_mib, f"tracemalloc peak {peak:.1f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"
    return out


def test_circuits_file_parses_within_bounds():
    n = MAX_GROUND
    src = random_sparse_paving(random.Random(24), n, 4)
    circs = [src.fmt(c) for c in src.circuits()]
    text = "name cap\nelements " + " ".join(src.labels) + "\n" + "".join(
        "circuits " + " ".join(circs[i:i + 8]) + "\n"
        for i in range(0, len(circs), 8))
    # the table, the 2 MiB of packed flags its build holds beside it, and
    # the 42,277 parsed circuits as Python ints (1.7 MiB, held by `parse`):
    # 20.1 MiB measured, 36.1 while the circuits' flags were unpacked
    _, m = within_time_and_memory_bounds(lambda: parse(text),
                                         TABLE_MIB + 5)
    assert (m.labels, m.bases) == (src.labels, src.bases)


def test_paving_builds_uniform_12_24_within_bounds():
    n = MAX_GROUND
    m = within_time_and_memory_bounds(lambda: paving(12, n, []))
    assert (m.n, m.rank) == (n, 12)
    assert len(m.bases) == math.comb(n, 12)
    assert m.table().tobytes() == uniform_table(n, 12).tobytes()


def test_uniform_12_24_within_bounds():
    n = MAX_GROUND
    m = within_time_and_memory_bounds(lambda: uniform(12, n))
    assert m.bases == tuple(_masks_of_size(n, 12).tolist())


def test_table_built_copies_compare_equal_within_bounds():
    # `==` and `hash` read the labels and the rank tables (`Matroid.key`),
    # so no basis family is derived, U(12, 24)'s 2.7 M bases among them,
    # and the tables are compared a 64 KiB block at a time
    n = MAX_GROUND
    labels = [str(i) for i in range(n)]
    paving_table = random_sparse_paving(random.Random(24), n, 4).table()
    for tab in uniform_table(n, 12), paving_table:
        m1, m2 = (Matroid._from_table(tab.copy(), labels) for _ in range(2))
        t0 = time.perf_counter()
        same, peak = traced_mib(lambda: m1 == m2 and hash(m1) == hash(m2))
        wall = time.perf_counter() - t0
        assert same
        assert peak <= 1, f"== peak {peak:.2f} MiB"
        assert wall <= WALL_S, f"{wall:.1f} s"
        assert "bases" not in vars(m1) and "bases" not in vars(m2)


def test_separators_at_the_cap_within_bounds(tmp_path, capsys):
    # in a rank-4 sparse paving matroid on 24 elements the exactly
    # 3-separating sets of at least six elements are the complements of
    # the 276 pairs; there are no quads, so no spike-like search runs
    n = MAX_GROUND
    src = random_sparse_paving(random.Random(24), n, 4)
    path = tmp_path / "cap24.mtx"
    path.write_text(serialize(src, "cap24"))
    rc = within_time_and_memory_bounds(lambda: main(["separators", str(path)]))
    # one more run, the table build included: the lambda scan adds nothing
    # table-sized beside the rank table
    rc2, peak = traced_mib(lambda: main(["separators", str(path)]))
    assert rc == rc2 == 0
    assert capsys.readouterr().out == "none\n" * 3
    assert quads(src) == ()
    assert peak <= TABLE_MIB + 4, f"separators peak {peak:.1f} MiB"


def test_vertical_separations_at_the_cap_within_bounds():
    # a rank-4 sparse paving matroid on 24 elements has no vertical
    # 3-separation: one side has at least 12 elements, so rank 4; the scan,
    # the table build included, adds nothing table-sized beside the table
    src = random_sparse_paving(random.Random(24), MAX_GROUND, 4)
    m = Matroid(MAX_GROUND, src.bases, src.labels)
    t0 = time.perf_counter()
    trips, peak = traced_mib(lambda: vertical_3_separations(m))
    wall = time.perf_counter() - t0
    assert trips == []
    assert peak <= TABLE_MIB + 4, f"vertical scan peak {peak:.1f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


def test_separations_scan_builds_nothing_table_sized():
    m = random_sparse_paving(random.Random(24), MAX_GROUND, 4)
    m.table()
    seps, peak = traced_mib(lambda: separations(m, 2))
    assert seps == []
    assert peak <= 1, f"separations peak {peak:.2f} MiB"


def uniform_minus_last_two(r, n):
    """U(r, n) without its two last bases in mask order: the lex-last one
    and its neighbour on r - 1 shared elements.  Exchange fails only at the
    (r-1)-set they share, the last independent (r-1)-set of all."""
    bases = _masks_of_size(n, r).tolist()
    assert popcount(bases[-1] & bases[-2]) == r - 1
    return bases[:-2]


def check_exchange_failure_within_bounds(r):
    """`validate` on `uniform_minus_last_two(r, 24)` raises the witness and
    message derived by hand, within WALL_S and PEAK_MIB."""
    n = MAX_GROUND
    bases = uniform_minus_last_two(r, n)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(AxiomViolation) as err:
            validate(bases, n)
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    # I is the last r - 1 elements, cl(I) the last r + 1; B1 = I + 0 is the
    # least basis on I, B2 the least r-set of cl(I), and the two missing
    # bases are the only r-sets on I inside cl(I)
    top = n - r - 1
    i_mask = (1 << n) - (1 << top + 2)
    cl = (1 << n) - (1 << top)
    assert err.value.witness == (i_mask | 1, cl ^ 1 << n - 1, 0)
    assert str(err.value) == (
        f"exchange fails: independent set {list(range(top + 2, n))} is "
        f"maximal in {list(range(top, n))} but rank there is {r}")
    assert peak <= PEAK_MIB, f"tracemalloc peak {peak:.0f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


def test_exchange_failure_within_time_and_memory_bounds():
    check_exchange_failure_within_bounds(4)


def shuffled(m, seed):
    labels = list(m.labels)
    random.Random(seed).shuffle(labels)
    return m.reorder(labels)


def carries_bases(m1, m2, img):
    """Whether the bijection `img` maps every basis of m1 to one of m2,
    decided on the tables."""
    r_sets = _masks_of_size(m1.n, m1.rank)
    b1 = r_sets[m1.table()[r_sets] == m1.rank]
    out = np.zeros_like(b1)
    for i, f in enumerate(img):
        out |= (b1 >> i & 1) << f
    return bool((m2.table()[out] == m2.rank).all())


def self_dual_sparse_paving(m):
    """Whether the sparse paving m is isomorphic to its dual, decided
    without `is_isomorphic`: the dual's circuit-hyperplanes are the
    complements of m's, and an element bijection carries one family onto
    the other iff, for some order of the families, the elements'
    incidence columns agree as multisets."""
    r_sets = _masks_of_size(m.n, m.rank)
    hyp = r_sets[m.table()[r_sets] < m.rank].tolist()

    def columns(fam):
        return sorted(tuple(x >> e & 1 for x in fam) for e in range(m.n))

    target = columns([m.full ^ x for x in hyp])
    if sorted(map(sum, columns(hyp))) != sorted(map(sum, target)):
        return False
    return any(columns(p) == target for p in itertools.permutations(hyp))


def check_isomorphism_within_bounds(pairs):
    """`is_isomorphic` on each (m1, m2, isomorphic?) triple gives that
    verdict, and a bijection carrying bases onto bases when it finds one,
    all within WALL_S and PEAK_MIB."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        found = [is_isomorphic(m1, m2) for m1, m2, _ in pairs]
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    for (m1, m2, iso), img in zip(pairs, found):
        assert (img is not None) == iso
        if iso:
            assert sorted(img) == list(range(m1.n))
            assert carries_bases(m1, m2, img)
    assert peak <= PEAK_MIB, f"tracemalloc peak {peak:.0f} MiB"
    assert wall <= WALL_S, f"{wall:.1f} s"


@pytest.mark.parametrize("r,n", [(4, 24), (8, 16), (9, 18)])
def test_isomorphism_of_sparse_paving_within_bounds(r, n):
    # every pair of elements has rank 2, which once left the backtracking
    # search unpruned until r elements were placed
    pairs = []
    for seed in range(4):
        m = random_sparse_paving(random.Random(seed), n, r)
        pairs.append((m, shuffled(m, seed), True))
        if n == 2 * r:
            pairs.append((m, m.dual(), self_dual_sparse_paving(m)))
    check_isomorphism_within_bounds(pairs)


@pytest.mark.parametrize("r", [4, 12])
def test_isomorphism_of_uniform_within_bounds(r):
    # built from its table: U(12, 24) has 2,704,156 bases
    n = MAX_GROUND
    u = Matroid._from_table(uniform_table(n, r),
                            [f"e{i}" for i in range(n)])
    check_isomorphism_within_bounds([(u, shuffled(u, r), True)])


def wheel_bases(r):
    """The bases of `wheel(r)`, its spanning trees, listed directly rather
    than tested one r-set at a time: the tree's rim edges, any set but the
    whole rim, cut the rim vertices into arcs, and each arc takes exactly
    one spoke to the hub.  Rim edge i joins rim vertices i and i + 1."""
    out = []
    for rim in range((1 << r) - 1):
        start = next(i for i in range(r) if not rim >> (i - 1) % r & 1)
        arcs = []
        for k in range(r):
            i = (start + k) % r
            if not rim >> (i - 1) % r & 1:
                arcs.append([])
            arcs[-1].append(1 << i)
        out += [rim << r | sum(spokes) for spokes in itertools.product(*arcs)]
    return out


def big_wheel(r):
    """`wheel(r)`, built from `wheel_bases` in a fraction of its time."""
    labels = [f"s{i + 1}" for i in range(r)] + [f"r{i + 1}" for i in range(r)]
    return Matroid(2 * r, wheel_bases(r), labels)


def test_wheel_bases_are_the_spanning_trees():
    for r in range(2, 8):
        assert big_wheel(r) == wheel(r)
    # the wheel with r spokes has L(2r) - 2 spanning trees, L the Lucas
    # numbers: L(22) = 39,603 and L(24) = 103,682
    assert [len(wheel_bases(r)) for r in (11, 12)] == [39601, 103680]


@pytest.mark.parametrize("r", [11, 12])
def test_exchanges_at_the_cap_within_bounds(r):
    m = big_wheel(r)
    m.table()
    tri = m.set_of(["s1", "s2", "r1"])
    t0 = time.perf_counter()
    dy, dy_peak = traced_mib(lambda: delta_wye(m, tri))
    t1 = time.perf_counter()
    back, back_peak = traced_mib(lambda: wye_delta(dy, tri))
    t2 = time.perf_counter()
    assert back == m
    assert validate(dy.bases, m.n, dy.labels) == dy
    assert (dy.n, dy.rank) == (m.n, m.rank + 1)
    for wall, peak in ((t1 - t0, dy_peak), (t2 - t1, back_peak)):
        assert peak <= 2 * TABLE_MIB, f"exchange peak {peak:.1f} MiB"
        assert wall <= WALL_S, f"{wall:.1f} s"
