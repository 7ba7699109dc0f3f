"""Long exhaustive runs, excluded from the default suite.

Run with `pytest -m slow tests/test_slow.py -s`.
"""

import time

import pytest

from matroidkit.builders import fano, spiked_fano
from matroidkit.connectivity import is_3_connected
from matroidkit.harness import verify_theorem_main
from matroidkit.minors import detachable_pairs

from test_cap import check_exchange_failure_within_bounds

pytestmark = pytest.mark.slow


def test_main_theorem_on_rank7_spike_construction():
    # the Fano-with-spike glue at spike rank 7 reaches the size gap of ten:
    # 18 elements against the 7-element minor
    t0 = time.perf_counter()
    m = spiked_fano(7)
    assert m.n == 18 and m.n - 7 == 11
    assert is_3_connected(m)
    v = verify_theorem_main(m, fano())
    assert v.outcome == "pass"
    assert v.witness == "spike-like-separator"
    elapsed = time.perf_counter() - t0
    print(f"\nrank-7 spike construction verified via {v.witness} "
          f"in {elapsed:.1f}s")
    # about 1 s; a search that blows up fails here instead of hanging
    assert elapsed < 20


def test_rank5_spike_construction_has_no_direct_pairs():
    # one size up from the acceptance replay: 14 elements, gap 7
    m = spiked_fano(5)
    assert is_3_connected(m)
    assert detachable_pairs(m, fano()) == []


def test_rank11_exchange_failure_at_the_cap():
    # the largest basis family at the cap: C(24, 11) - 2 bases, about 0.5 s
    check_exchange_failure_within_bounds(11)
