"""Connectivity calculus: lambda, k-separations with their guts and
coguts, vertical/cyclic splits, full closure and blocking.

The separation scans walk M's table, and its reverse, in blocks.  One
kernel, `_minor_connected`, decides whether M or any minor M/C\\D is
connected or 3-connected: it reads the minor's lambda from two `_pinned`
views of M's table, one block at a time with an early exit, so no minor
is built for it; M keeps each 3-connectivity verdict per (C, D)."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (_PC16, Matroid, MatroidError, _blocks, _pinned, lex_key,
                   popcount)


class NotThreeConnected(MatroidError):
    pass


class BadInput(MatroidError):
    pass


@dataclass(frozen=True)
class SeparationReport:
    side: int
    k: int
    lam: int
    exact: bool
    vertical: bool
    cyclic: bool
    guts: int
    coguts: int


def lambda_(m: Matroid, x: int) -> int:
    """Connectivity function r(X) + r(E-X) - r(M)."""
    t = m._ranks()
    return t[x] + t[m.full ^ x] - m.rank


def lambda_minus(m: Matroid, removed: int, x: int) -> int:
    """lambda of X inside the deletion minor M \\ removed, without relabelling."""
    t = m._ranks()
    ground = m.full ^ removed
    return t[x] + t[ground ^ x] - t[ground]


def _lambda_sets(m: Matroid, keep) -> list[int]:
    """The masks X, ascending, where keep(lambda block, |X| block) holds,
    one int8 block of `_blocks` at a time, so nothing table-sized is built."""
    t = m.table()
    rev = t[::-1]
    out = []
    for s, size in _blocks(m.n):
        lam = t[s:s + size.size] + rev[s:s + size.size]
        lam -= m.rank
        out += (np.flatnonzero(keep(lam, size)) + s).tolist()
    return out


def _k_separating(m: Matroid, k: int) -> list[int]:
    """The sides X of k-separations, ascending: lambda(X) < k and both X
    and E - X have at least k elements."""
    return _lambda_sets(m, lambda lam, size: (lam < k) & (size >= k)
                        & (size <= m.n - k))


def separations(m: Matroid, k: int) -> list[SeparationReport]:
    """All k-separations, one report per unordered pair.

    The reported side is the lexicographically smaller part, which is
    always the part containing element 0.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = [_report(m, x, k, lambda_(m, x))
           for x in _k_separating(m, k) if x & 1]  # canonical side holds id 0
    out.sort(key=lambda rep: lex_key(rep.side))
    return out


def _report(m: Matroid, x: int, k: int, lam: int) -> SeparationReport:
    y = m.full ^ x
    t = m._ranks()
    exact = lam == k - 1
    vertical = t[x] >= k and t[y] >= k
    cyclic = m.corank_of(x) >= k and m.corank_of(y) >= k
    if exact:
        guts = m.closure(x) & m.closure(y)
        coguts = m.coclosure(x) & m.coclosure(y)
    else:
        guts = coguts = 0
    return SeparationReport(x, k, lam, exact, vertical, cyclic, guts, coguts)


@functools.cache
def _floor(n: int, k: int, h: int) -> np.ndarray:
    """Read-only int8 min(|X|, n - |X|, k - 1) over one block of up to
    2^16 masks X < 2^(n-1) that hold h elements above the block."""
    size = _PC16[:min(1 << n - 1, _PC16.size)] + h
    floor = np.minimum(np.minimum(size, n - size), k - 1)
    floor.flags.writeable = False
    return floor


def _minor_connected(m: Matroid, c: int, d: int, k: int) -> bool:
    """Whether M/C\\D has no j-separation with j < k, for disjoint C and D
    with C + D != E, read from M's table: no minor is built.

    Its lambda, r(X + C) + r(E - D - X) - r(C) - r(E - D), and the floor
    min(|X|, n' - |X|, k - 1) are the same for X and E - C - D - X, so X
    runs over the subsets of E - C - D without its top element: `_pinned`
    views of the table at X + C and of its reverse at X + D, read one
    block of 2^16 X at a time up to the first holding a separation."""
    r, t = m._ranks(), m.table()
    n = m.n - popcount(c | d)
    top = 1 << (m.full ^ c ^ d).bit_length() - 1
    a, b = _pinned(t, c, d | top), _pinned(t[::-1], d, c | top)
    # a block is an index of the views' leading axes: with C + D != 0 the
    # views are strided, and a flat slice of them would be a copy
    for at in itertools.product((0, 1), repeat=max(n - 17, 0)):
        lam = a[at] + b[at]
        lam -= _floor(n, k, sum(at)).reshape(lam.shape)
        if lam.min() < r[c] + r[m.full ^ d]:
            return False
    return True


def _minor_3_connected(m: Matroid, c: int, d: int) -> bool:
    """`_minor_connected` for k = 3, kept on M per (C, D)."""
    got = m._connected.get((c, d))
    if got is None:
        got = m._connected[c, d] = _minor_connected(m, c, d, 3)
    return got


def is_connected(m: Matroid) -> bool:
    """No 1-separation: `_minor_connected` with C = D = 0."""
    return _minor_connected(m, 0, 0, 2)


def is_3_connected(m: Matroid) -> bool:
    """No 1- or 2-separation: `_minor_3_connected` with C = D = 0."""
    return _minor_3_connected(m, 0, 0)


def _vertical_triples(m: Matroid) -> list[tuple[int, int, int]]:
    """The triples of `vertical_3_separations`, sorted by z and then by X
    in lex order, where X holds the lowest element other than z.

    X runs over the table in the blocks of `_blocks`, and for each z that
    not every X of the block holds, over the X without z.  As
    Y = E - z - X, the ranks r(X), r(X + z), r(Y + z) and r(Y) of a block
    are slices of the table and of its reverse at X and X + z; lambda <= 2
    picks the few candidates, and the other conditions are read at those
    alone, so nothing table-sized is built.
    """
    t = m.table()
    rev, n = t[::-1], m.n
    found = [[] for _ in range(n)]
    for s, sizes in _blocks(n):
        step = sizes.size
        for z in range(n):
            bz = 1 << z
            if s & bz:
                continue  # every X of the block holds z
            low = 2 if z == 0 else 1  # the lowest element other than z
            # r(X + z) and r(Y), as far as the X + z stay inside the table
            txz, ty = t[s + bz:s + bz + step], rev[s + bz:s + bz + step]
            k = txz.size
            tx, tyz = t[s:s + k], rev[s:s + k]
            # z in cl(X) and cl(Y), so both flanking bipartitions have
            # lambda = r(X) + r(Y) - r(M)
            hit = np.flatnonzero(tx + ty <= m.rank + 2)
            hit = hit[hit & (bz | low) == low]
            size = sizes[hit]
            ok = (size >= 3) & (size <= n - 4) & (tx[hit] >= 3) \
                & (ty[hit] >= 3) & (txz[hit] == tx[hit]) \
                & (tyz[hit] == ty[hit])
            found[z] += (hit[ok] + s).tolist()
    return [(x, z, m.full ^ 1 << z ^ x) for z in range(n)
            for x in sorted(found[z], key=lex_key)]


def vertical_3_separations(m: Matroid) -> list[tuple[int, int, int]]:
    """All partitions (X, {z}, Y) where both flanking bipartitions are
    vertical 3-separations and z lies in cl(X) and cl(Y)."""
    if not is_3_connected(m):
        raise NotThreeConnected("vertical 3-separation scan needs a 3-connected matroid")
    return _vertical_triples(m)


def cyclic_3_separations(m: Matroid) -> list[tuple[int, int, int]]:
    if not is_3_connected(m):
        raise NotThreeConnected("cyclic 3-separation scan needs a 3-connected matroid")
    return _vertical_triples(m.dual())


def full_closure(m: Matroid, x: int) -> int:
    cur = x
    while True:
        nxt = m.coclosure(m.closure(cur))
        if nxt == cur:
            return cur
        cur = nxt


def blocks(m: Matroid, d: int, x: int) -> str:
    """How the element d interacts with a set X that is exactly 3-separating
    in M \\ d: 'not-blocked', 'blocked' or 'fully-blocked'."""
    bd = 1 << d
    if x & bd:
        raise BadInput("X must avoid d")
    rest = m.full ^ bd ^ x
    if lambda_minus(m, bd, x) != 2:
        raise BadInput("X is not exactly 3-separating in M \\ d")
    if lambda_(m, x) <= 2:
        return "not-blocked"
    fully = lambda_(m, x | bd) > 2
    # cross-check against the closure criterion for full blocking
    crit = not ((m.closure(x) | m.closure(rest)) & bd)
    if fully != crit:
        raise MatroidError("blocking criterion disagreement; rank logic broken")
    return "fully-blocked" if fully else "blocked"
