"""Named constructions and construction operators.

Everything returns a fresh `Matroid`.  Paving lists and glued connections
are run through the axiom checker; modular-cut extensions and `delta_wye`
and `wye_delta`, read from M's table by a closed formula, are trusted.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (MAX_GROUND, AxiomViolation, Matroid, MatroidError,
                   _masks_of_size, _pinned, bit, mask_of, popcount,
                   validate)
from .structures import _is_circuit, is_triad, is_triangle


class BadParams(MatroidError):
    pass


class BadElement(MatroidError):
    pass


class NotCircuitHyperplane(MatroidError):
    pass


class NotAFlat(MatroidError):
    pass


class RestrictionMismatch(MatroidError):
    pass


class NotModularFlat(MatroidError):
    pass


class NotATriangle(MatroidError):
    pass


class NotATriad(MatroidError):
    pass


# ---------------------------------------------------------------------------
# basic families

def uniform(r: int, n: int, labels=None) -> Matroid:
    if not 0 <= r <= n:
        raise BadParams(f"uniform({r},{n}) needs 0 <= r <= n")
    if not 1 <= n <= MAX_GROUND:
        raise BadParams(f"ground set size {n} outside 1..{MAX_GROUND}")
    return Matroid(n, _masks_of_size(n, r).tolist(), labels)


def paving(r: int, n: int, nonspanning_circuits, labels=None) -> Matroid:
    """Rank-r paving matroid from its size-r non-spanning circuits.

    The circuit list is taken on trust only up to the axiom check: the
    basis family (all r-sets not listed) must pass exchange validation.
    """
    circm = [c if isinstance(c, int) else mask_of(c)
             for c in nonspanning_circuits]
    if any(popcount(c) != r for c in circm):
        raise BadParams("listed circuits must have exactly r elements")
    if not 1 <= n <= MAX_GROUND:
        raise BadParams(f"ground set size {n} outside 1..{MAX_GROUND}")
    sets = _masks_of_size(n, r)
    return validate(sets[~np.isin(sets, circm)].tolist(), n, labels)


def graphic(n_vertices: int, edges, labels=None) -> Matroid:
    """Cycle matroid of a multigraph given as a list of vertex pairs."""
    ne = len(edges)
    if ne == 0 or ne > MAX_GROUND:
        raise BadParams(f"need between 1 and {MAX_GROUND} edges")

    def ncomp(edge_idx):
        parent = list(range(n_vertices))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        comps = n_vertices
        for i in edge_idx:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return comps

    r = n_vertices - ncomp(range(ne))
    bases = [mask_of(c) for c in itertools.combinations(range(ne), r)
             if n_vertices - ncomp(c) == r]
    return Matroid(ne, bases, labels)


def wheel(r: int) -> Matroid:
    """Cycle matroid of the wheel with r spokes; elements s1..sr, r1..rr."""
    if r < 2:
        raise BadParams("wheel needs r >= 2")
    if 2 * r > MAX_GROUND:
        raise BadParams(f"wheel too large for the {MAX_GROUND}-element cap")
    edges = [(0, i + 1) for i in range(r)]
    edges += [(i + 1, (i + 1) % r + 1) for i in range(r)]
    labels = [f"s{i+1}" for i in range(r)] + [f"r{i+1}" for i in range(r)]
    return graphic(r + 1, edges, labels)


def rim(r: int) -> int:
    """Mask of the rim elements r1..rr of `wheel(r)`."""
    return mask_of(range(r, 2 * r))


def relax(m: Matroid, x: int) -> Matroid:
    """Promote a circuit-hyperplane to a basis."""
    if not _is_circuit(m, x):
        raise NotCircuitHyperplane(f"{m.fmt(x)} is not a circuit")
    if m.rank_of(x) != m.rank - 1 or m.closure(x) != x:
        raise NotCircuitHyperplane(f"{m.fmt(x)} is not a hyperplane")
    return Matroid(m.n, m.bases + (x,), m.labels)


def whirl(r: int) -> Matroid:
    return relax(wheel(r), rim(r))


def spike(r: int) -> Matroid:
    """Free spike with tip: elements t, x1, y1, ..., xr, yr, rank r.

    Circuits are the legs {t, xi, yi} and the quads (Li u Lj) - t; the tip
    is otherwise free.  Bases are derived from that rank rule and then
    validated.
    """
    if r < 3:
        raise BadParams("spike needs r >= 3")
    n = 2 * r + 1
    if n > MAX_GROUND:
        raise BadParams(f"spike too large for the {MAX_GROUND}-element cap")

    def rank_of(ids):
        # one more than the legs touched once the tip or a whole leg is in
        legs = [(i - 1) // 2 for i in ids if i]
        touched = len(set(legs))
        return min(r, touched + (0 in ids or len(legs) > touched))

    bases = [mask_of(c) for c in itertools.combinations(range(n), r)
             if rank_of(c) == r]
    labels = ["t"] + [f"{xy}{i+1}" for i in range(r) for xy in ("x", "y")]
    return validate(bases, n, labels)


# ---------------------------------------------------------------------------
# single-element operators

def parallel_add(m: Matroid, e: int, label: str) -> Matroid:
    if m.is_loop(e):
        raise BadElement("cannot add an element parallel to a loop")
    if m.n + 1 > MAX_GROUND:
        raise BadParams(f"ground set would exceed {MAX_GROUND} elements")
    be, bn = bit(e), bit(m.n)
    bases = set(m.bases)
    bases |= {b ^ be | bn for b in m.bases if b & be}
    return Matroid(m.n + 1, bases, m.labels + (label,))


def series_add(m: Matroid, e: int, label: str) -> Matroid:
    if m.is_coloop(e):
        raise BadElement("cannot add an element in series with a coloop")
    return parallel_add(m.dual(), e, label).dual()


def _closure_all(tab: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Closure of every mask in `x` under the rank table `tab`."""
    # numpy gathers fastest at intp indices; `_masks_of_size` gives int32
    x = x.astype(np.intp, copy=False)
    rx = tab[x]
    out = x.copy()
    for i in range(n):
        out |= np.where(tab[x | (1 << i)] == rx, 1 << i, 0)
    return out


def _extended_bases(m: Matroid, off_cut) -> set[int]:
    """Bases of m extended by a new element e = n: those of m, and I + e for
    each independent (r-1)-set I whose closure, a hyperplane, is off the
    modular cut, as `off_cut` tells for an array of hyperplanes."""
    if m.n + 1 > MAX_GROUND:
        raise BadParams(f"ground set would exceed {MAX_GROUND} elements")
    t = m.table()
    sets = _masks_of_size(m.n, m.rank - 1)
    sets = sets[t[sets] == m.rank - 1]
    new = sets[off_cut(_closure_all(t, sets, m.n))] | bit(m.n)
    return set(m.bases) | set(new.tolist())


def principal_extension(m: Matroid, f: int, label: str) -> Matroid:
    """Extend by one element freely placed on the flat f."""
    if m.closure(f) != f:
        raise NotAFlat(f"{m.fmt(f)} is not closed")
    bases = _extended_bases(m, lambda hyps: (hyps & f) != f)
    return Matroid(m.n + 1, bases, m.labels + (label,))


def _all_flats(m: Matroid) -> np.ndarray:
    """Every flat of m, ascending: the masks X with cl(X) = X."""
    x = np.arange(1 << m.n)
    return x[_closure_all(m.table(), x, m.n) == x]


def modular_cut_extension(m: Matroid, generating_flats, label: str) -> Matroid:
    """Extend by an element lying on every flat of the modular cut generated
    by `generating_flats`: the least set of flats holding them that is
    closed upward and under the meet F & G of each modular pair, r(F) +
    r(G) = r(F | G) + r(F & G).  A modular cut always gives a matroid."""
    gens = [f if isinstance(f, int) else m.set_of(f) for f in generating_flats]
    for f in gens:
        if m.closure(f) != f:
            raise NotAFlat(f"{m.fmt(f)} is not closed")
    if not gens:
        raise BadParams("need at least one generating flat")
    t = m.table()
    flats = _all_flats(m)
    cut = np.zeros(flats.size, dtype=bool)
    new = np.array(gens)
    # the flats above a new meet need not be in the cut yet, so close
    # upward and under modular meets in turn until neither adds a flat
    while new.size:
        cut |= (flats[:, None] & new == new).any(1)
        c = flats[cut]
        meet = c[:, None] & c
        modular = t[c][:, None] + t[c] == t[c[:, None] | c] + t[meet]
        new = meet[modular & ~np.isin(meet, c)]
    bases = _extended_bases(m, lambda hyps: ~np.isin(hyps, flats[cut]))
    return Matroid(m.n + 1, bases, m.labels + (label,))


# ---------------------------------------------------------------------------
# generalized parallel connection and delta-wye

def parallel_connection(m1: Matroid, m2: Matroid, t_labels) -> Matroid:
    """Generalized parallel connection along the common restriction named by
    `t_labels` (labels shared by both matroids).

    Rank comes from the inclusion-exclusion formula on the closure, computed
    for every candidate set at once: each round adds the closures of the
    traces on both rank tables, until the array is a fixed point.  The
    result is validated against the basis axioms, so gluings along a flat
    that is modular on neither side succeed when they define a matroid.
    """
    t_labels = list(t_labels)
    for lab in t_labels:
        if lab not in m1.labels or lab not in m2.labels:
            raise RestrictionMismatch(f"label {lab!r} missing from one side")
    t1, t2 = m1.set_of(t_labels), m2.set_of(t_labels)
    r1 = m1.restrict(t1)
    if m2.restrict(t2).reorder(r1.labels) != r1:
        raise RestrictionMismatch("the two restrictions to T differ")

    n1 = m1.n
    labels = list(m1.labels) + [x for x in m2.labels if x not in t_labels]
    n = len(labels)
    if n > MAX_GROUND:
        raise BadParams(f"glued ground set would exceed {MAX_GROUND} elements")
    if len(set(labels)) != n:
        raise RestrictionMismatch("non-T labels of the two sides collide")
    g2 = [labels.index(lab) for lab in m2.labels]   # m2 id -> global id

    lo = (1 << n1) - 1
    tab1, tab2 = m1.table(), m2.table()

    def extract2(x: np.ndarray) -> np.ndarray:
        return sum((x >> g & 1) << i for i, g in enumerate(g2))

    def expand2(x2: np.ndarray) -> np.ndarray:
        return sum((x2 >> i & 1) << g for i, g in enumerate(g2))

    def rank_all(f: np.ndarray) -> np.ndarray:
        while True:
            nxt = (f | _closure_all(tab1, f & lo, n1)
                   | expand2(_closure_all(tab2, extract2(f), m2.n)))
            if np.array_equal(nxt, f):
                return (tab1[f & lo].astype(np.int64) + tab2[extract2(f)]
                        - tab1[f & t1])
            f = nxt

    r = int(rank_all(np.array([(1 << n) - 1]))[0])
    cand = _masks_of_size(n, r)
    bases = cand[rank_all(cand) == r].tolist()
    try:
        glued = validate(bases, n, labels)
    except (AxiomViolation, MatroidError) as exc:
        raise NotModularFlat(
            f"gluing along {t_labels} does not define a matroid: {exc}") from exc
    if glued.restrict(mask_of(range(n1))) != m1:
        raise NotModularFlat("glued matroid does not restrict to the first side")
    if glued.restrict(glued.set_of(m2.labels)).reorder(m2.labels) != m2:
        raise NotModularFlat("glued matroid does not restrict to the second side")
    return glued


def _relabel(m: Matroid, mapping) -> Matroid:
    labels = [mapping.get(lab, lab) for lab in m.labels]
    if len(set(labels)) != m.n:
        raise ValueError("labels must be unique, one per element")
    return Matroid._from_table(m.table(), labels)


# r_K4, off the bases so that no rank table is built on import, of M(K4) with
# a = e23, b = e13, c = e12 on bits 0-2 and a' = e01, b' = e02, c' = e03 on 3-5
_K4 = graphic(4, [(2, 3), (1, 3), (1, 2), (0, 1), (0, 2), (0, 3)]).bases
_K4 = [max(popcount(z & b) for b in _K4) for z in range(64)]


def _terms(weight):
    """Per x, the (y, weight(x, y)) whose r(Z | y) + weight(x, y) can be the
    least over y, in any matroid: r(Z | z) <= r(Z | y) + |z - y|, so y goes
    once a kept z has weight(x, z) + |z - y| <= weight(x, y)."""
    for x in range(8):
        w, keep = [weight(x, y) for y in range(8)], list(range(8))
        for y in range(8):
            if any(w[z] + popcount(z & ~y) <= w[y] for z in keep if z != y):
                keep.remove(y)
        yield [(y, w[y]) for y in keep]


_DELTA_WYE = list(_terms(lambda x, y: _K4[y | 8 * x] - min(popcount(y), 2)))
_WYE_DELTA = list(_terms(lambda x, y: _K4[x | 8 * y] - popcount(y) - (y > 0)))


def _exchange(m: Matroid, tri: int, terms) -> Matroid:
    """r(X), the least r_M(X - T | y) + w over the terms (y, w) of X's part
    in T = `tri`'s positions, on `_pinned` views with T's elements set as
    the bits of y (0-d views if T = E): only the output and one octant sum
    are new."""
    t, out = m.table(), np.empty_like(m.table())
    # T's elements named by the bits of each y < 8
    pins = [Matroid.expand(y, m.full ^ tri) for y in range(8)]
    slices = [_pinned(t, p, tri ^ p) for p in pins]
    part = np.empty_like(slices[0])
    for x, ((y, w), *rest) in enumerate(terms):
        octant = _pinned(out, pins[x], tri ^ pins[x])
        np.add(slices[y], w, out=octant)
        for y, w in rest:
            np.minimum(octant, np.add(slices[y], w, out=part), out=octant)
    # a parallel connection across a modular flat, minus T, is a matroid
    return Matroid._from_table(out, m.labels)


def delta_wye(m: Matroid, tri: int) -> Matroid:
    """Replace the triangle T by a triad: glue M(K4) to M along T, delete T,
    and let a', b', c' take T's positions and labels (X_T' is X's part
    there).  T is a modular flat of M(K4), so (Brylawski, Trans. AMS 203,
    1975, "Modular constructions for combinatorial geometries"; Oxley 11.4)

      r'(X) = min over Y in T of r_K4(X_T' | Y) + r_M(X - T | Y) - min(|Y|, 2)
    """
    if not is_triangle(m, tri):
        raise NotATriangle(f"{m.fmt(tri)} is not a triangle")
    return _exchange(m, tri, _DELTA_WYE)


def wye_delta(m: Matroid, triad: int) -> Matroid:
    """`delta_wye` on M*, then the dual.  M(K4)* is M(K4) with a, b, c and
    a', b', c' swapped, so that reads M's own table, with [Y] = 1 if Y != {}:

      r'(X) = min over Y in T of r_K4(X_T | Y') + r_M(X - T | Y) - |Y| - [Y]
    """
    if not is_triad(m, triad):
        raise NotATriad(f"{m.fmt(triad)} is not a triad")
    return _exchange(m, triad, _WYE_DELTA)


# ---------------------------------------------------------------------------
# named matroids used throughout the test corpus and the CLI

FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
              (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def fano(labels=None) -> Matroid:
    return paving(3, 7, [mask_of(l) for l in FANO_LINES], labels)


def nonfano(labels=None) -> Matroid:
    """Fano with its last line {c,e,f} relaxed."""
    return relax(fano(labels), mask_of(FANO_LINES[-1]))


PAVING8_LABELS = ("p1", "p2", "q1", "q2", "s1", "s2", "t1", "t2")

PAVING8_CIRCUITS = [("t1", "t2", "p1", "q1"), ("t1", "t2", "p2", "q2"),
                    ("p1", "p2", "q1", "q2"), ("p1", "p2", "s1", "s2"),
                    ("q1", "q2", "s1", "s2")]


def paving8() -> Matroid:
    """Rank-4 sparse paving on 8 elements whose circuit-hyperplanes tie the
    p/q/s/t pairs together; base of `twisted_cube_matroid`."""
    idx = {lab: i for i, lab in enumerate(PAVING8_LABELS)}
    circs = [mask_of(idx[x] for x in c) for c in PAVING8_CIRCUITS]
    return paving(4, 8, circs, PAVING8_LABELS)


def paving8_ext() -> Matroid:
    """`paving8` extended by a point z on the three lines {t1,t2}, {q1,p1}
    and {q2,p2}."""
    m = paving8()
    lines = [m.set_of(p) for p in (("t1", "t2"), ("q1", "p1"), ("q2", "p2"))]
    return modular_cut_extension(m, lines, "z")


def twisted_cube_matroid() -> Matroid:
    """12-element rank-4 matroid glued from `paving8_ext` and a non-Fano
    along the triangle {t1,t2,z}, with z removed.  Carries a twisted
    cube-like 3-separator on {p1,p2,q1,q2,s1,s2}."""
    # non-Fano on labels t1,t2,z,n1..n4 with {t1,t2,z} a 3-point line and the
    # relaxed line away from it
    labels = ("t1", "t2", "z", "n1", "n2", "n3", "n4")
    nf = nonfano(labels)
    assert is_triangle(nf, nf.set_of(["t1", "t2", "z"]))
    glued = parallel_connection(paving8_ext(), nf, ["t1", "t2", "z"])
    return glued.delete(glued.set_of(["z"]))


def spiked_fano(r: int = 4, free_tip: bool = False) -> Matroid:
    """Fano with doubled triangle legs glued to a rank-r spike along a leg,
    the shared leg removed.

    With free_tip=False the Fano point x is reused as the spike tip; with
    free_tip=True a fresh tip is added freely on the line of {x,y,z}.
    """
    labels = ("x" if free_tip else "t", "y", "z", "u1", "u2", "u3", "u4")
    f7 = fano(labels)
    assert is_triangle(f7, f7.set_of(labels[:3]))
    f7 = parallel_add(f7, f7.id_of("y"), "y'")
    f7 = parallel_add(f7, f7.id_of("z"), "z'")
    if free_tip:
        f7 = principal_extension(f7, f7.closure(f7.set_of(["x", "y"])), "t")
    s = _relabel(spike(r), {"x1": "y'", "y1": "z'"})
    glued = parallel_connection(f7, s, ["t", "y'", "z'"])
    return glued.delete(glued.set_of(["t", "y'", "z'"]))
