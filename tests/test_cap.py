"""Behaviour at the 24-element cap, with stated time and memory bounds.

One seeded rank-4 sparse paving matroid on 24 elements goes through
`validate`, `circuits`, `triangles`, `triads` and `is_3_connected`.  The rank table
has 2^24 entries, so a single table-sized int64 array is 128 MiB; the
bound below admits the int32 masks of `validate` and a few int8/bool
tables, but not the int64 index and mask arrays or a Python-list copy of
a table.
"""

import math
import random
import time
import tracemalloc

from matroidkit.connectivity import is_3_connected
from matroidkit.core import MAX_GROUND, popcount, validate
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
