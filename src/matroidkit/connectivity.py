"""Connectivity calculus: lambda, k-separations, vertical/cyclic splits,
full closure, guts/coguts classification and blocking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Matroid, MatroidError, _popcount_table, lex_key, popcount


class NotThreeConnected(MatroidError):
    pass


class BadPartition(MatroidError):
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


def _lambda_all(m: Matroid) -> np.ndarray:
    """lambda(X) for every mask X, in int8 since lambda <= 2 r(M) <= 48."""
    t = m.table()
    lam = t + t[::-1]
    lam -= m.rank
    return lam


def _k_separating(m: Matroid, k: int) -> np.ndarray:
    """Bool over every mask X: X is a side of a k-separation, that is
    lambda(X) < k and both X and E - X have at least k elements."""
    pc = _popcount_table(m.n)
    return (_lambda_all(m) <= k - 1) & (pc >= k) & (pc <= m.n - k)


def separations(m: Matroid, k: int) -> list[SeparationReport]:
    """All k-separations, one report per unordered pair.

    The reported side is the lexicographically smaller part, which is
    always the part containing element 0.
    """
    if k < 1:
        raise ValueError("k must be positive")
    ok = _k_separating(m, k)
    ok &= (np.arange(1 << m.n) & 1).astype(bool)  # canonical side holds id 0
    out = []
    for x in np.flatnonzero(ok).tolist():
        out.append(_report(m, x, k, lambda_(m, x)))
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


def is_connected(m: Matroid) -> bool:
    return not bool(_k_separating(m, 1).any())


def is_3_connected(m: Matroid) -> bool:
    if m._is3conn is None:
        lam = _lambda_all(m)
        pc = _popcount_table(m.n)
        n = m.n
        viol = (lam <= 0) & (pc >= 1) & (pc <= n - 1)
        viol |= (lam <= 1) & (pc >= 2) & (pc <= n - 2)
        m._is3conn = not bool(viol.any())
    return m._is3conn


def _vertical_triples(m: Matroid) -> list[tuple[int, int, int]]:
    """The triples of `vertical_3_separations`, sorted by z and then by X
    in lex order, where X holds the lowest element other than z.  One
    numpy pass per z over every such X."""
    t = m.table()
    pc = _popcount_table(m.n)
    masks = np.arange(1 << m.n, dtype=np.int32)
    out = []
    for z in range(m.n):
        bz = 1 << z
        rest = m.full ^ bz
        low = rest & -rest
        x = masks[(masks & (bz | low)) == low]
        y = rest ^ x
        tx, ty = t[x], t[y]
        # z in cl(X) and cl(Y), so both flanking bipartitions have
        # lambda = r(X) + r(Y) - r(M)
        ok = (pc[x] >= 3) & (pc[y] >= 3) & (tx >= 3) & (ty >= 3) \
            & (t[x | bz] == tx) & (t[y | bz] == ty) & (tx + ty <= m.rank + 2)
        out += sorted(((side, z, rest ^ side) for side in x[ok].tolist()),
                      key=lambda triple: lex_key(triple[0]))
    return out


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


def classify_guts(m: Matroid, x: int, y: int, e: int) -> str:
    """For an exactly 3-separating partition (X, Y) and e in X with |X| >= 3,
    classify e as a guts element, a coguts element, or neither."""
    if x | y != m.full or x & y or not (x >> e) & 1 or popcount(x) < 3:
        raise BadPartition("need a partition (X, Y) of E with e in X, |X| >= 3")
    if lambda_(m, x) != 2:
        raise BadPartition("(X, Y) is not exactly 3-separating")
    be = 1 << e
    rest = x ^ be
    if (m.closure(rest) & be) and (m.closure(y) & be):
        return "guts"
    if (m.coclosure(rest) & be) and (m.coclosure(y) & be):
        return "coguts"
    return "neither"


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
