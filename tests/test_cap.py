"""Behaviour at the 24-element cap, with stated time and memory bounds.

One seeded rank-4 sparse paving matroid on 24 elements goes through
`validate`, `circuits`, `triangles`, `triads` and `is_3_connected`, and a
24-element family that breaks basis exchange only at its last (r-1)-set
must fail `validate`.  The rank table has 2^24 entries, so a single
table-sized int64 array is 128 MiB; the bound below admits a few
int8/bool tables and arrays over the sets of one size, but not a
table-sized int32 or int64 array or a Python-list copy of a table.
"""

import math
import random
import time
import tracemalloc

import pytest

from matroidkit.connectivity import is_3_connected
from matroidkit.core import (MAX_GROUND, AxiomViolation, _masks_of_size,
                             popcount, validate)
from matroidkit.corpus import random_sparse_paving
from matroidkit.structures import triads, triangles

PEAK_MIB = 256
WALL_S = 10.0


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
