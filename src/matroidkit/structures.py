"""Detection of named substructures: triangles, triads, segments, quads,
fans, flans, and the four special exactly-3-separating configurations."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (Matroid, MatroidError, bit, elems, lex_key, mask_of,
                   popcount, submasks)
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

def _is_circuit(m: Matroid, x: int) -> bool:
    t = m._ranks()
    k = popcount(x)
    return t[x] == k - 1 and all(t[x ^ bit(e)] == k - 1 for e in elems(x))


def is_triangle(m: Matroid, x: int) -> bool:
    return popcount(x) == 3 and _is_circuit(m, x)


def is_triad(m: Matroid, x: int) -> bool:
    return is_triangle(m.dual(), x)


@functools.cache
def _triple_bits(n: int) -> np.ndarray:
    """Read-only (C(n,3), 3) array of the single-bit masks of each 3-subset
    of 0..n-1, rows in lex order; shared per n."""
    combos = list(itertools.combinations(range(n), 3))
    bits = (1 << np.array(combos, dtype=np.int32)).reshape(len(combos), 3)
    bits.flags.writeable = False
    return bits


def triangles(m: Matroid) -> list[int]:
    """Triangle masks in lex order: 3-sets X with r(X) = 2 and every
    2-subset independent."""
    bits = _triple_bits(m.n)
    x = bits.sum(1, dtype=np.int32)
    t = m.table()
    ok = t[x] == 2
    for j in range(3):
        ok &= t[x ^ bits[:, j]] == 2
    return x[ok].tolist()


def triads(m: Matroid) -> list[int]:
    return triangles(m.dual())


def is_quad(m: Matroid, x: int) -> bool:
    return (popcount(x) == 4 and _is_circuit(m, x)
            and _is_circuit(m.dual(), x))


def quads(m: Matroid) -> list[int]:
    return [mask_of(c) for c in itertools.combinations(range(m.n), 4)
            if is_quad(m, mask_of(c))]


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


def cosegments(m: Matroid) -> list[int]:
    return segments(m.dual())


# ---------------------------------------------------------------------------
# fans

def _fan_orderings(m: Matroid):
    """DFS over alternating triangle/triad orderings; yields every dead-end
    (non-extendable) ordering together with its starting-triple kind."""
    tris = set(triangles(m))
    trds = set(triads(m))
    seeds = [(x, "triangle") for x in sorted(tris)] + \
            [(x, "triad") for x in sorted(trds)]
    results = []

    def extend(seq, mask, next_kind):
        fam = tris if next_kind == "triangle" else trds
        moved = False
        a, b = seq[-2], seq[-1]
        for e in range(m.n):
            be = bit(e)
            if mask & be:
                continue
            if (bit(a) | bit(b) | be) in fam:
                moved = True
                extend(seq + [e], mask | be,
                       "triad" if next_kind == "triangle" else "triangle")
        if not moved:
            results.append(tuple(seq))

    for x, kind in seeds:
        for perm in itertools.permutations(elems(x)):
            extend(list(perm), x, "triad" if kind == "triangle" else "triangle")
    return results


def _first_triple_kind(m: Matroid, seq) -> str:
    first = mask_of(seq[:3])
    return "triangle" if is_triangle(m, first) else "triad"


def _fan_types(m: Matroid, seq) -> tuple:
    k = len(seq)
    if k < 4:
        return (None,) * k
    start = _first_triple_kind(m, seq)
    positions = range(1, k + 1) if k >= 5 else (1, k)
    types = [None] * k
    for i in positions:
        odd = i % 2 == 1
        spoke = (start == "triangle" and odd) or (start == "triad" and not odd)
        types[i - 1] = "spoke" if spoke else "rim"
    return tuple(types)


def fans(m: Matroid) -> list[FanRecord]:
    """Maximal fans, one record per support set, with the canonical
    (lexicographically least) ordering."""
    if not is_3_connected(m):
        raise NotThreeConnected("fan detection needs a 3-connected matroid")
    return [FanRecord(seq, _fan_types(m, seq), True)
            for seq in _maximal_supports(_fan_orderings(m))]


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

def _flan_orderings(m: Matroid):
    trds = set(triads(m))
    results = []

    def extend(seq, mask):
        pos = len(seq) + 1
        moved = False
        if pos % 2 == 0 and pos >= 4:
            ext = m.closure(mask) & ~mask
            for e in elems(ext):
                moved = True
                extend(seq + [e], mask | bit(e))
        else:
            a, b = seq[-2], seq[-1]
            for e in range(m.n):
                be = bit(e)
                if mask & be:
                    continue
                if (bit(a) | bit(b) | be) in trds:
                    moved = True
                    extend(seq + [e], mask | be)
        if not moved and len(seq) >= 4:
            results.append(tuple(seq))

    for x in sorted(trds):
        for perm in itertools.permutations(elems(x)):
            extend(list(perm), x)
    return results


def flans(m: Matroid) -> list[FlanRecord]:
    """Maximal flans with a canonical ordering; every prefix is re-checked
    to be 3-separating."""
    if not is_3_connected(m):
        raise NotThreeConnected("flan detection needs a 3-connected matroid")
    orderings = _flan_orderings(m)
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
    """Partition p into >= 3 pairs with every pair-union a quad."""
    _require_exact3(m, p)
    k = popcount(p)
    if k < 6 or k % 2:
        return None
    ids = elems(p)

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

    legs = pair_up(ids, [])
    if not legs:
        return None
    return StructureReport("spike-like", p, {"legs": tuple(legs)})


def _kind_lists(m: Matroid, p: int):
    circ = _inner_circuits(m, p)
    cocirc = _inner_circuits(m.dual(), p)
    return circ, cocirc


def detect_elongated_quad(m: Matroid, p: int):
    """Quad Q plus a pair {p1,p2}; the circuits inside P are exactly Q,
    {p1,p2,q1,q2}, {p1,p2,q3,q4} and the cocircuits exactly Q,
    {p1,p2,q1,q3}, {p1,p2,q2,q4}."""
    if popcount(p) != 6:
        raise BadSize("elongated-quad detection needs |P| = 6")
    _require_exact3(m, p)
    circ, cocirc = _kind_lists(m, p)
    for pair_ids in itertools.combinations(elems(p), 2):
        pp = mask_of(pair_ids)
        q = p ^ pp
        if not is_quad(m, q):
            continue
        for q1, q2, q3, q4 in itertools.permutations(elems(q)):
            if q1 > q2 or q3 > q4 or q1 > q3:
                continue
            want_c = {q, pp | bit(q1) | bit(q2), pp | bit(q3) | bit(q4)}
            want_cc = {q, pp | bit(q1) | bit(q3), pp | bit(q2) | bit(q4)}
            if circ == want_c and cocirc == want_cc:
                p1, p2 = pair_ids
                return StructureReport(
                    "elongated-quad", p,
                    {"quad": q, "pair": pp,
                     "labelling": {"p1": p1, "p2": p2, "q1": q1, "q2": q2,
                                   "q3": q3, "q4": q4}})
    return None


def detect_skew_whiff(m: Matroid, p: int):
    """Labelling {s1,s2,t1,t2,u1,u2} with circuits inside P exactly
    {s1,s2,t2,u1}, {s1,t1,t2,u2}, {s2,t1,u1,u2} and cocircuits exactly
    {s1,s2,t1,t2}, {s1,s2,u1,u2}, {t1,t2,u1,u2}."""
    if popcount(p) != 6:
        raise BadSize("skew-whiff detection needs |P| = 6")
    _require_exact3(m, p)
    circ, cocirc = _kind_lists(m, p)
    if len(circ) != 3 or len(cocirc) != 3:
        return None
    for s1, s2, t1, t2, u1, u2 in itertools.permutations(elems(p)):
        want_c = {mask_of([s1, s2, t2, u1]), mask_of([s1, t1, t2, u2]),
                  mask_of([s2, t1, u1, u2])}
        want_cc = {mask_of([s1, s2, t1, t2]), mask_of([s1, s2, u1, u2]),
                   mask_of([t1, t2, u1, u2])}
        if circ == want_c and cocirc == want_cc:
            return StructureReport(
                "skew-whiff", p,
                {"labelling": {"s1": s1, "s2": s2, "t1": t1, "t2": t2,
                               "u1": u1, "u2": u2}})
    return None


def detect_twisted_cube_like(m: Matroid, p: int):
    """Labelling {p1,p2,q1,q2,s1,s2} with circuits inside P exactly
    {p1,p2,s1,s2}, {q1,q2,s1,s2}, {p1,p2,q1,q2} and cocircuits exactly
    {p1,q1,s1,s2}, {p2,q2,s1,s2}, {p1,p2,q1,q2,s1}, {p1,p2,q1,q2,s2}."""
    if popcount(p) != 6:
        raise BadSize("twisted cube-like detection needs |P| = 6")
    _require_exact3(m, p)
    circ, cocirc = _kind_lists(m, p)
    if len(circ) != 3 or len(cocirc) != 4:
        return None
    for p1, p2, q1, q2, s1, s2 in itertools.permutations(elems(p)):
        if p1 > p2 or s1 > s2:
            continue
        want_c = {mask_of([p1, p2, s1, s2]), mask_of([q1, q2, s1, s2]),
                  mask_of([p1, p2, q1, q2])}
        pq = mask_of([p1, p2, q1, q2])
        want_cc = {mask_of([p1, q1, s1, s2]), mask_of([p2, q2, s1, s2]),
                   pq | bit(s1), pq | bit(s2)}
        if circ == want_c and cocirc == want_cc:
            return StructureReport(
                "twisted-cube-like", p,
                {"labelling": {"p1": p1, "p2": p2, "q1": q1, "q2": q2,
                               "s1": s1, "s2": s2}})
    return None


SIX_ELEMENT_DETECTORS = (
    ("elongated-quad", detect_elongated_quad),
    ("skew-whiff", detect_skew_whiff),
    ("twisted-cube-like", detect_twisted_cube_like),
)
