"""Detection of named substructures: triangles, triads, segments, quads,
fans, flans, and the four special exactly-3-separating configurations.

Triangles, triads and quads are gathered from the matroid's own rank
table over every 3- or 4-subset at once, so no dual is built; the quads
are cached on the matroid, and spike-like detection reads its legs from
them.  Fan and flan orderings come from one depth-first search under a
step rule.  The six-element separators are rows of one table,
`_TEMPLATES`: the circuits and cocircuits inside P in a labelling's
names, read by one matcher."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Matroid, MatroidError, _lex_masks, bit, elems, lex_key,
                   mask_of, popcount, submasks)
from .connectivity import NotThreeConnected, is_3_connected, lambda_


class BadSize(MatroidError):
    pass


class NotExactlyThreeSeparating(MatroidError):
    pass


@dataclass(frozen=True)
class FanRecord:
    elements: tuple[int, ...]
    types: tuple  # per position: "spoke" | "rim" | None
    maximal: bool


@dataclass(frozen=True)
class FlanRecord:
    elements: tuple[int, ...]
    maximal: bool


@dataclass(frozen=True)
class StructureReport:
    kind: str
    support: int
    witness: dict


# ---------------------------------------------------------------------------
# small circuits and cocircuits

def _is_circuit(m: Matroid, x: int, dual: bool = False) -> bool:
    """Whether X is a circuit of M, or with `dual` of M*, from M's table."""
    r = m.corank_of if dual else m._ranks().__getitem__
    k = popcount(x)
    return r(x) == k - 1 and all(r(x ^ bit(e)) == k - 1 for e in elems(x))


def is_triangle(m: Matroid, x: int) -> bool:
    return popcount(x) == 3 and _is_circuit(m, x)


def is_triad(m: Matroid, x: int) -> bool:
    return popcount(x) == 3 and _is_circuit(m, x, dual=True)


@functools.cache
def _subset_bits(n: int, k: int) -> np.ndarray:
    """Read-only int32 single-bit masks of the elements of each k-set of
    `_lex_masks(n, k)`, one row each, ascending; shared per (n, k)."""
    rest = _lex_masks(n, k).copy()
    bits = np.empty((rest.size, k), dtype=np.int32)
    for j in range(k):
        bits[:, j] = rest & -rest
        rest ^= bits[:, j]
    bits.flags.writeable = False
    return bits


def _gather_circuits(t: np.ndarray, x: np.ndarray, bits: np.ndarray):
    """Whether each k-set X of `x`, with its single-bit columns in `bits`,
    is a circuit on the table t: r(X) = k - 1 = r(X - e), e in X."""
    k = bits.shape[1]
    ok = t[x] == k - 1
    for j in range(k):
        ok &= t[x ^ bits[:, j]] == k - 1
    return ok


def _gather_cocircuits(m: Matroid, x: np.ndarray, bits: np.ndarray):
    """Whether each mask X of `x`, with its single-bit columns in `bits`,
    is a cocircuit, read from M's own table: as r*(Y) = |Y| - r + r(E - Y),
    X is one when r(E - X) = r - 1 and r(E - X + e) = r for every e in X."""
    t = m.table()
    co = m.full ^ x
    ok = t[co] == m.rank - 1
    for j in range(bits.shape[1]):
        ok &= t[co | bits[:, j]] == m.rank
    return ok


def triangles(m: Matroid) -> list[int]:
    """Triangle masks in lex order: 3-sets X with r(X) = 2 and every
    2-subset independent."""
    x = _lex_masks(m.n, 3)
    return x[_gather_circuits(m.table(), x, _subset_bits(m.n, 3))].tolist()


def triads(m: Matroid) -> list[int]:
    """Triad masks in lex order, the triangles of M*, read from M's table
    so that no dual is built."""
    x = _lex_masks(m.n, 3)
    return x[_gather_cocircuits(m, x, _subset_bits(m.n, 3))].tolist()


def is_quad(m: Matroid, x: int) -> bool:
    return (popcount(x) == 4 and _is_circuit(m, x)
            and _is_circuit(m, x, dual=True))


def quads(m: Matroid) -> tuple[int, ...]:
    """Quad masks in lex order, computed once per matroid: 4-circuits X
    that are cocircuits, both read from M's table."""
    if m._quads is None:
        x, bits = _lex_masks(m.n, 4), _subset_bits(m.n, 4)
        ok = _gather_circuits(m.table(), x, bits)
        ok &= _gather_cocircuits(m, x, bits)
        m._quads = tuple(x[ok].tolist())
    return m._quads


def segments(m: Matroid) -> list[int]:
    """Maximal sets whose restriction is a line U_{2,k}, k >= 3."""
    t = m._ranks()
    loops = mask_of(e for e in range(m.n) if t[bit(e)] == 0)
    lines = set()
    for i, j in itertools.combinations(range(m.n), 2):
        p = bit(i) | bit(j)
        if t[p] == 2:
            lines.add(m.closure(p) & ~loops)
    out = set()
    for flat in lines:
        ids = elems(flat)
        classes = {}
        for e in ids:
            rep = next((f for f in classes if t[bit(e) | bit(f)] == 1), None)
            classes.setdefault(rep if rep is not None else e, []).append(e)
        groups = list(classes.values())
        if len(groups) < 3:
            continue
        for combo in itertools.product(*groups):
            out.add(mask_of(combo))
    return sorted(out, key=lex_key)


# ---------------------------------------------------------------------------
# fans

def _dead_ends(triples, step, min_len: int) -> list[tuple[int, ...]]:
    """Every ordering of at least `min_len` elements that no element allowed
    by `step(seq, mask)` extends, depth-first from each order of a triple.
    The search keeps an explicit stack, children pushed in reverse, so the
    orderings come in the order of a recursive search, and no recursive
    closure ties `step`'s matroid into a reference cycle."""
    out = []
    stack = [(seq, x) for x in sorted(triples)
             for seq in itertools.permutations(elems(x))][::-1]
    while stack:
        seq, mask = stack.pop()
        nxt = step(seq, mask)
        if nxt:
            stack += [(seq + (e,), mask | bit(e)) for e in reversed(nxt)]
        elif len(seq) >= min_len:
            out.append(seq)
    return out


def _step(m: Matroid, fams):
    """Step rule: after a prefix of length k, the elements that complete a
    triple of fams[k % 2] with its last two, or its closure if that is None."""
    def step(seq, mask):
        fam = fams[len(seq) % 2]
        if fam is None:
            return elems(m.closure(mask) & ~mask)
        ends = bit(seq[-2]) | bit(seq[-1])
        return [e for e in range(m.n)
                if not mask >> e & 1 and ends | bit(e) in fam]
    return step


def _fan_types(m: Matroid, seq) -> tuple:
    k = len(seq)
    if k < 4:
        return (None,) * k
    # odd positions are spokes when the first triple is a triangle
    tri_first = is_triangle(m, mask_of(seq[:3]))
    positions = range(1, k + 1) if k >= 5 else (1, k)
    types = [None] * k
    for i in positions:
        types[i - 1] = "spoke" if (i % 2 == 1) == tri_first else "rim"
    return tuple(types)


def fans(m: Matroid) -> list[FanRecord]:
    """Maximal fans, one record per support set, with the canonical
    (lexicographically least) ordering."""
    if not is_3_connected(m):
        raise NotThreeConnected("fan detection needs a 3-connected matroid")
    tris = set(triangles(m))
    trds = set(triads(m))
    # the consecutive triples alternate, from either kind of start
    orderings = (_dead_ends(tris, _step(m, (tris, trds)), 3)
                 + _dead_ends(trds, _step(m, (trds, tris)), 3))
    return [FanRecord(seq, _fan_types(m, seq), True)
            for seq in _maximal_supports(orderings)]


def _maximal_supports(orderings) -> list[tuple[int, ...]]:
    """The least ordering of each inclusion-maximal support, the supports
    in lex order."""
    by_support: dict[int, tuple] = {}
    for seq in orderings:
        sup = mask_of(seq)
        best = by_support.get(sup)
        if best is None or seq < best:
            by_support[sup] = seq
    sups = sorted(by_support, key=lex_key)
    return [by_support[s] for s in sups
            if not any(s != o and s & o == s for o in sups)]


# ---------------------------------------------------------------------------
# flans

def _flan_step(m: Matroid, trds: set[int]):
    """A flan ordering starts with a triad of `trds`; then an element of the
    prefix's closure alternates with one that completes a triad."""
    return _step(m, (trds, None))


def flans(m: Matroid) -> list[FlanRecord]:
    """Maximal flans with a canonical ordering; every prefix is re-checked
    to be 3-separating."""
    if not is_3_connected(m):
        raise NotThreeConnected("flan detection needs a 3-connected matroid")
    trds = set(triads(m))
    orderings = _dead_ends(trds, _flan_step(m, trds), 4)
    for seq in orderings:
        for i in range(1, len(seq) + 1):
            if lambda_(m, mask_of(seq[:i])) > 2 and i < m.n:
                raise MatroidError("flan prefix fails to be 3-separating")
    return [FlanRecord(seq, True) for seq in _maximal_supports(orderings)]


# ---------------------------------------------------------------------------
# special 3-separator detectors

def _require_exact3(m: Matroid, p: int):
    if lambda_(m, p) != 2:
        raise NotExactlyThreeSeparating(
            f"{m.fmt(p)} has connectivity {lambda_(m, p)}, want exactly 2")


def _inner_circuits(m: Matroid, p: int) -> set[int]:
    return {sub for sub in submasks(p) if sub and _is_circuit(m, sub)}


def detect_spike_like(m: Matroid, p: int):
    """Partition p into >= 3 pairs with every pair-union a quad.

    The unions of two of the k/2 legs are C(k/2, 2) distinct quads inside
    p, so with fewer quads there no search runs; otherwise legs are paired
    up depth-first, ascending, against the set of quads inside p."""
    _require_exact3(m, p)
    k = popcount(p)
    if k < 6 or k % 2:
        return None
    inside = {q for q in quads(m) if not q & ~p}
    if len(inside) < math.comb(k // 2, 2):
        return None
    ids = elems(p)

    def pair_up(rest, legs):
        if not rest:
            return legs
        e = rest[0]
        for f in rest[1:]:
            leg = bit(e) | bit(f)
            if all(leg | other in inside for other in legs):
                got = pair_up([x for x in rest[1:] if x != f], legs + [leg])
                if got:
                    return got
        return None

    legs = pair_up(ids, [])
    if not legs:
        return None
    return StructureReport("spike-like", p, {"legs": tuple(legs)})


# kind: (labelling order, circuits inside P, cocircuits inside P, pairs whose
# ids ascend); a set of both kinds is spelt alike in both.  The ascending
# pairs keep at least one labelling of each orbit under the kind's
# symmetries, so no structure is missed.
_TEMPLATES = {
    "elongated-quad": (
        "p1 p2 q1 q2 q3 q4",
        ("q1 q2 q3 q4", "p1 p2 q1 q2", "p1 p2 q3 q4"),
        ("q1 q2 q3 q4", "p1 p2 q1 q3", "p1 p2 q2 q4"),
        ("p1 p2", "q1 q2", "q1 q3", "q1 q4")),
    "skew-whiff": (
        "s1 s2 t1 t2 u1 u2",
        ("s1 s2 t2 u1", "s1 t1 t2 u2", "s2 t1 u1 u2"),
        ("s1 s2 t1 t2", "s1 s2 u1 u2", "t1 t2 u1 u2"), ()),
    "twisted-cube-like": (
        "p1 p2 q1 q2 s1 s2",
        ("p1 p2 s1 s2", "q1 q2 s1 s2", "p1 p2 q1 q2"),
        ("p1 q1 s1 s2", "p2 q2 s1 s2", "p1 p2 q1 q2 s1", "p1 p2 q1 q2 s2"),
        ("p1 p2", "s1 s2")),
}


def _match(m: Matroid, p: int, kind: str) -> StructureReport | None:
    """The report of the first labelling of the 6-set P that matches the
    `kind` row of `_TEMPLATES`, or None."""
    names, circuits, cocircuits, ascending = _TEMPLATES[kind]
    if popcount(p) != 6:
        raise BadSize(f"{kind} detection needs |P| = 6")
    _require_exact3(m, p)
    circ = _inner_circuits(m, p)
    cocirc = _inner_circuits(m.dual(), p)
    # a labelling carries the sets that are both kinds onto such sets
    if [len(circ), len(cocirc), len(circ & cocirc)] != [
            len(circuits), len(cocircuits), len({*circuits} & {*cocircuits})]:
        return None
    names = names.split()
    circuits, cocircuits, ascending = (
        [[names.index(x) for x in s.split()] for s in sets]
        for sets in (circuits, cocircuits, ascending))
    # permutations of an ascending list come in lex order
    for perm in itertools.permutations(elems(p)):
        if any(perm[i] > perm[j] for i, j in ascending):
            continue
        if (all(mask_of(perm[i] for i in c) in circ for c in circuits)
                and all(mask_of(perm[i] for i in c) in cocirc
                        for c in cocircuits)):
            return StructureReport(kind, p,
                                   {"labelling": dict(zip(names, perm))})
    return None


def detect_elongated_quad(m: Matroid, p: int):
    """Quad Q plus a pair {p1,p2}; the circuits inside P are exactly Q,
    {p1,p2,q1,q2}, {p1,p2,q3,q4} and the cocircuits exactly Q,
    {p1,p2,q1,q3}, {p1,p2,q2,q4}."""
    rep = _match(m, p, "elongated-quad")
    if rep is not None:
        lab = rep.witness["labelling"]
        pair = bit(lab["p1"]) | bit(lab["p2"])
        rep.witness.update(quad=p ^ pair, pair=pair)
    return rep


def detect_skew_whiff(m: Matroid, p: int):
    """Labelling {s1,s2,t1,t2,u1,u2} with circuits inside P exactly
    {s1,s2,t2,u1}, {s1,t1,t2,u2}, {s2,t1,u1,u2} and cocircuits exactly
    {s1,s2,t1,t2}, {s1,s2,u1,u2}, {t1,t2,u1,u2}."""
    return _match(m, p, "skew-whiff")


def detect_twisted_cube_like(m: Matroid, p: int):
    """Labelling {p1,p2,q1,q2,s1,s2} with circuits inside P exactly
    {p1,p2,s1,s2}, {q1,q2,s1,s2}, {p1,p2,q1,q2} and cocircuits exactly
    {p1,q1,s1,s2}, {p2,q2,s1,s2}, {p1,p2,q1,q2,s1}, {p1,p2,q1,q2,s2}."""
    return _match(m, p, "twisted-cube-like")


# The paper's special 3-separators, tried in order: (kind, detector, whether
# it reads M*).  No 6-set is two of them: only an elongated quad has a circuit
# inside P that is a cocircuit, and only the third has four circuits there.
SPECIAL_SEPARATORS = (
    ("elongated-quad", detect_elongated_quad, False),
    ("skew-whiff", detect_skew_whiff, False),
    ("twisted-cube-like-dual", detect_twisted_cube_like, True),
)


def special_separator(m: Matroid, p: int) -> str | None:
    """The kind of the first of `SPECIAL_SEPARATORS` that the exactly
    3-separating 6-set P is, or None."""
    return next((kind for kind, detect, dual in SPECIAL_SEPARATORS
                 if detect(m.dual() if dual else m, p) is not None), None)
