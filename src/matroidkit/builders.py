"""Named constructions and construction operators.

Everything returns a fresh `Matroid`.  Constructions that take untrusted
combinatorial data (paving lists, modular cuts, glued connections) are run
through the axiom checker before being returned.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import (AxiomViolation, Matroid, MatroidError, _popcount_table,
                   bit, elems, mask_of, popcount, validate)
from .structures import is_triad, is_triangle


class BadParams(MatroidError):
    pass


class BadElement(MatroidError):
    pass


class NotCircuitHyperplane(MatroidError):
    pass


class NotAFlat(MatroidError):
    pass


class NotAModularCut(MatroidError):
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
    if r == 0:
        return Matroid(n, [0], labels)
    bases = [mask_of(c) for c in itertools.combinations(range(n), r)]
    return Matroid(n, bases, labels)


def paving(r: int, n: int, nonspanning_circuits, labels=None) -> Matroid:
    """Rank-r paving matroid from its size-r non-spanning circuits.

    The circuit list is taken on trust only up to the axiom check: the
    basis family (all r-sets not listed) must pass exchange validation.
    """
    circm = []
    for c in nonspanning_circuits:
        m = c if isinstance(c, int) else mask_of(c)
        if popcount(m) != r:
            raise BadParams("listed circuits must have exactly r elements")
        circm.append(m)
    forbidden = set(circm)
    bases = [mask_of(c) for c in itertools.combinations(range(n), r)
             if mask_of(c) not in forbidden]
    return validate(bases, n, labels)


def graphic(n_vertices: int, edges, labels=None) -> Matroid:
    """Cycle matroid of a multigraph given as a list of vertex pairs."""
    ne = len(edges)
    if ne == 0 or ne > 24:
        raise BadParams("need between 1 and 24 edges")

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
    bases = []
    for combo in itertools.combinations(range(ne), r):
        if n_vertices - ncomp(combo) == r:
            bases.append(mask_of(combo))
    return Matroid(ne, bases, labels)


def wheel(r: int) -> Matroid:
    """Cycle matroid of the wheel with r spokes; elements s1..sr, r1..rr."""
    if r < 2:
        raise BadParams("wheel needs r >= 2")
    if 2 * r > 24:
        raise BadParams("wheel too large for the 24-element cap")
    edges = [(0, i + 1) for i in range(r)]
    edges += [(i + 1, (i + 1) % r + 1) for i in range(r)]
    labels = [f"s{i+1}" for i in range(r)] + [f"r{i+1}" for i in range(r)]
    return graphic(r + 1, edges, labels)


def rim(r: int) -> int:
    """Mask of the rim elements r1..rr of `wheel(r)`."""
    return mask_of(range(r, 2 * r))


def relax(m: Matroid, x: int) -> Matroid:
    """Promote a circuit-hyperplane to a basis."""
    t = m._ranks()
    if t[x] != popcount(x) - 1 or any(t[x ^ bit(e)] != popcount(x) - 1
                                      for e in elems(x)):
        raise NotCircuitHyperplane(f"{m.fmt(x)} is not a circuit")
    if t[x] != m.rank - 1 or m.closure(x) != x:
        raise NotCircuitHyperplane(f"{m.fmt(x)} is not a hyperplane")
    return Matroid(m.n, m.bases + (x,), m.labels)


def whirl(r: int) -> Matroid:
    w = wheel(r)
    return relax(w, rim(r))


def spike(r: int) -> Matroid:
    """Free spike with tip: elements t, x1, y1, ..., xr, yr, rank r.

    Circuits are the legs {t, xi, yi} and the quads (Li u Lj) - t; the tip
    is otherwise free.  Bases are derived from that rank rule and then
    validated.
    """
    if r < 3:
        raise BadParams("spike needs r >= 3")
    n = 2 * r + 1
    if n > 24:
        raise BadParams("spike too large for the 24-element cap")

    def rank_of(ids):
        touched = set()
        full_pairs = 0
        tip = False
        cnt = {}
        for i in ids:
            if i == 0:
                tip = True
                continue
            leg = (i - 1) // 2
            touched.add(leg)
            cnt[leg] = cnt.get(leg, 0) + 1
        full_pairs = sum(1 for v in cnt.values() if v == 2)
        extra = 1 if (tip or full_pairs) else 0
        return min(r, len(touched) + extra)

    bases = [mask_of(c) for c in itertools.combinations(range(n), r)
             if rank_of(c) == r]
    labels = ["t"] + [f"{xy}{i+1}" for i in range(r) for xy in ("x", "y")]
    return validate(bases, n, labels)


# ---------------------------------------------------------------------------
# single-element operators

def parallel_add(m: Matroid, e: int, label: str) -> Matroid:
    if m.is_loop(e):
        raise BadElement("cannot add an element parallel to a loop")
    if m.n + 1 > 24:
        raise BadParams("ground set would exceed 24 elements")
    be, bn = bit(e), bit(m.n)
    bases = set(m.bases)
    bases |= {b ^ be | bn for b in m.bases if b & be}
    return Matroid(m.n + 1, bases, m.labels + (label,))


def series_add(m: Matroid, e: int, label: str) -> Matroid:
    if m.is_coloop(e):
        raise BadElement("cannot add an element in series with a coloop")
    return parallel_add(m.dual(), e, label).dual()


def principal_extension(m: Matroid, f: int, label: str) -> Matroid:
    """Extend by one element freely placed on the flat f."""
    if m.closure(f) != f:
        raise NotAFlat(f"{m.fmt(f)} is not closed")
    if m.n + 1 > 24:
        raise BadParams("ground set would exceed 24 elements")
    t = m._ranks()
    bn = bit(m.n)
    bases = set(m.bases)
    for combo in itertools.combinations(range(m.n), m.rank - 1):
        x = mask_of(combo)
        if t[x] == m.rank - 1 and (m.closure(x) & f) != f:
            bases.add(x | bn)
    return Matroid(m.n + 1, bases, m.labels + (label,))


def _all_flats(m: Matroid):
    flats = set()
    for x in range(1 << m.n):
        flats.add(m.closure(x))
    return flats


def modular_cut_extension(m: Matroid, generating_flats, label: str) -> Matroid:
    """Extend by an element lying on every flat of the cut generated by
    `generating_flats` (upward closure plus the modular-pair rule)."""
    gens = []
    for f in generating_flats:
        fm = f if isinstance(f, int) else m.set_of(f)
        if m.closure(fm) != fm:
            raise NotAFlat(f"{m.fmt(fm)} is not closed")
        gens.append(fm)
    if not gens:
        raise BadParams("need at least one generating flat")
    t = m._ranks()
    flats = _all_flats(m)
    cut = {f for f in flats if any(f & g == g for g in gens)}
    changed = True
    while changed:
        changed = False
        for f, g in itertools.combinations(sorted(cut), 2):
            if t[f] + t[g] == t[m.closure(f | g)] + t[f & g] and (f & g) not in cut:
                cut.add(f & g)
                changed = True
    if m.n + 1 > 24:
        raise BadParams("ground set would exceed 24 elements")
    bn = bit(m.n)
    bases = set(m.bases)
    for combo in itertools.combinations(range(m.n), m.rank - 1):
        x = mask_of(combo)
        if t[x] == m.rank - 1 and m.closure(x) not in cut:
            bases.add(x | bn)
    try:
        return validate(bases, m.n + 1, m.labels + (label,))
    except AxiomViolation as exc:
        raise NotAModularCut(f"generated cut is not modular: {exc}") from exc


# ---------------------------------------------------------------------------
# generalized parallel connection and delta-wye

def is_modular_flat(m: Matroid, f: int) -> bool:
    if m.closure(f) != f:
        return False
    t = m._ranks()
    return all(t[f] + t[g] == t[m.closure(f | g)] + t[f & g]
               for g in _all_flats(m))


def _closure_all(tab: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Closure of every mask in `x` under the rank table `tab`."""
    rx = tab[x]
    out = x.copy()
    for i in range(n):
        out |= np.where(tab[x | (1 << i)] == rx, 1 << i, 0)
    return out


def parallel_connection(m1: Matroid, m2: Matroid, t_labels) -> Matroid:
    """Generalized parallel connection along the common restriction named by
    `t_labels` (labels shared by both matroids).

    Flats of the result are the sets whose traces are flats on both sides;
    rank comes from the inclusion-exclusion formula on the closure.  The
    closure of every candidate set is computed at once on the two rank
    tables: each round adds the closures of the traces on both sides, until
    the whole array is a fixed point.  The construction is attempted whenever
    the restrictions agree and the result is validated against the basis
    axioms, so gluings along a flat that is modular on neither side still
    succeed when they define a matroid.
    """
    t_labels = list(t_labels)
    for lab in t_labels:
        if lab not in m1.labels or lab not in m2.labels:
            raise RestrictionMismatch(f"label {lab!r} missing from one side")
    t1 = m1.set_of(t_labels)
    t2 = m2.set_of(t_labels)
    r1 = m1.restrict(t1)
    if not np.array_equal(m2.restrict(t2).reorder(r1.labels).table(),
                          r1.table()):
        raise RestrictionMismatch("the two restrictions to T differ")

    n1 = m1.n
    tail = [i for i in range(m2.n) if not (t2 >> i) & 1]
    n = n1 + len(tail)
    if n > 24:
        raise BadParams("glued ground set would exceed 24 elements")
    labels = list(m1.labels) + [m2.labels[i] for i in tail]
    if len(set(labels)) != n:
        raise RestrictionMismatch("non-T labels of the two sides collide")
    g2 = [0] * m2.n          # m2 id -> global id
    for k, i in enumerate(tail):
        g2[i] = n1 + k
    for lab in t_labels:
        g2[m2.id_of(lab)] = m1.id_of(lab)

    lo = (1 << n1) - 1
    tab1, tab2 = m1.table(), m2.table()

    def extract2(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for i in range(m2.n):
            out |= ((x >> g2[i]) & 1) << i
        return out

    def expand2(x2: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x2)
        for i in range(m2.n):
            out |= ((x2 >> i) & 1) << g2[i]
        return out

    def rank_all(x: np.ndarray) -> np.ndarray:
        f = x
        while True:
            nxt = (f | _closure_all(tab1, f & lo, n1)
                   | expand2(_closure_all(tab2, extract2(f), m2.n)))
            if np.array_equal(nxt, f):
                break
            f = nxt
        return (tab1[f & lo].astype(np.int64) + tab2[extract2(f)]
                - tab1[f & t1])

    r = int(rank_all(np.array([(1 << n) - 1]))[0])
    cand = np.flatnonzero(_popcount_table(n) == r)
    bases = cand[rank_all(cand) == r].tolist()
    try:
        glued = validate(bases, n, labels)
    except (AxiomViolation, MatroidError) as exc:
        raise NotModularFlat(
            f"gluing along {t_labels} does not define a matroid: {exc}") from exc
    if glued.restrict(mask_of(range(n1))) != m1:
        raise NotModularFlat("glued matroid does not restrict to the first side")
    back = glued.restrict(glued.set_of(m2.labels)).reorder(m2.labels)
    if not np.array_equal(back.table(), m2.table()):
        raise NotModularFlat("glued matroid does not restrict to the second side")
    return glued


def _relabel(m: Matroid, mapping) -> Matroid:
    labels = [mapping.get(lab, lab) for lab in m.labels]
    if len(set(labels)) != m.n:
        raise ValueError("labels must be unique, one per element")
    return Matroid._from_table(m.table(), labels)


def _k4_for_exchange(tri_labels, prime_labels) -> Matroid:
    # vertices 0..3; triangle on {1,2,3}: a=e23 b=e13 c=e12, star of 0 primed
    la, lb, lc = tri_labels
    pa, pb, pc = prime_labels
    edges = [(2, 3), (1, 3), (1, 2), (0, 1), (0, 2), (0, 3)]
    return graphic(4, edges, [la, lb, lc, pa, pb, pc])


def delta_wye(m: Matroid, tri: int) -> Matroid:
    """Replace the triangle `tri` by a triad via gluing with M(K4); the three
    new elements inherit the old labels and positions."""
    if not is_triangle(m, tri):
        raise NotATriangle(f"{m.fmt(tri)} is not a triangle")
    tl = m.label_list(tri)
    primes = [lab + "'" for lab in tl]
    while any(p in m.labels for p in primes):
        primes = [p + "'" for p in primes]
    k4 = _k4_for_exchange(tl, primes)
    glued = parallel_connection(k4, m, tl)
    cut = glued.delete(glued.set_of(tl))
    return _relabel(cut, dict(zip(primes, tl))).reorder(m.labels)


def wye_delta(m: Matroid, triad: int) -> Matroid:
    if not is_triad(m, triad):
        raise NotATriad(f"{m.fmt(triad)} is not a triad")
    return delta_wye(m.dual(), triad).dual()


# ---------------------------------------------------------------------------
# named matroids used throughout the test corpus and the CLI

FANO_LINES = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
              (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def fano(labels=None) -> Matroid:
    return paving(3, 7, [mask_of(l) for l in FANO_LINES], labels)


def nonfano(labels=None) -> Matroid:
    """Fano with its last line {c,e,f} relaxed."""
    f = fano(labels)
    return relax(f, mask_of(FANO_LINES[-1]))


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
    lines = [m.set_of(["t1", "t2"]), m.set_of(["q1", "p1"]),
             m.set_of(["q2", "p2"])]
    return modular_cut_extension(m, lines, "z")


def twisted_cube_matroid() -> Matroid:
    """12-element rank-4 matroid glued from `paving8_ext` and a non-Fano
    along the triangle {t1,t2,z}, with z removed.  Carries a twisted
    cube-like 3-separator on {p1,p2,q1,q2,s1,s2}."""
    left = paving8_ext()
    # non-Fano on labels t1,t2,z,n1..n4 with {t1,t2,z} a 3-point line and the
    # relaxed line away from it
    labels = ("t1", "t2", "z", "n1", "n2", "n3", "n4")
    nf = nonfano(labels)
    assert is_triangle(nf, nf.set_of(["t1", "t2", "z"]))
    glued = parallel_connection(left, nf, ["t1", "t2", "z"])
    return glued.delete(glued.set_of(["z"]))


def spiked_fano(r: int = 4, free_tip: bool = False) -> Matroid:
    """Fano with doubled triangle legs glued to a rank-r spike along a leg,
    the shared leg removed.

    With free_tip=False the Fano point x is reused as the spike tip; with
    free_tip=True a fresh tip is added freely on the line of {x,y,z}.
    """
    labels = ("x", "y", "z", "u1", "u2", "u3", "u4")
    f7 = fano(labels)
    assert is_triangle(f7, f7.set_of(["x", "y", "z"]))
    f7 = parallel_add(f7, f7.id_of("y"), "y'")
    f7 = parallel_add(f7, f7.id_of("z"), "z'")
    if free_tip:
        line = f7.closure(f7.set_of(["x", "y"]))
        f7 = principal_extension(f7, line, "t")
    else:
        f7 = _relabel(f7, {"x": "t"})
    s = spike(r)
    s = _relabel(s, {"x1": "y'", "y1": "z'"})
    glued = parallel_connection(f7, s, ["t", "y'", "z'"])
    return glued.delete(glued.set_of(["t", "y'", "z'"]))
