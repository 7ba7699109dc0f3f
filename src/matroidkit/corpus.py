"""Deterministic matroid corpus for the property harness.

Besides the named catalog (uniforms, wheels and whirls, the Fano pair,
spikes, the two glued constructions) this builds a handful of engineered
fixtures that exercise hypotheses the catalog cannot reach: planes with
triads inside, a hinged pair of planes, and small non-representable-style
instances carrying each special 3-separator.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Matroid, mask_of, popcount, validate
from .connectivity import is_3_connected
from . import builders
from .builders import (fano, graphic, nonfano, parallel_connection, paving,
                       paving8, paving8_ext, principal_extension, spike,
                       spiked_fano, twisted_cube_matroid, uniform, wheel,
                       whirl)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    matroid: Matroid


def _rank_exact(rows) -> int:
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def from_vectors(vectors, labels) -> Matroid:
    """Linear matroid of integer coordinate vectors, validated."""
    n = len(vectors)
    r = _rank_exact(vectors)
    bases = [mask_of(c) for c in itertools.combinations(range(n), r)
             if _rank_exact([vectors[i] for i in c]) == r]
    return validate(bases, n, labels)


def two_sum(m1: Matroid, lab1: str, m2: Matroid, lab2: str,
            prefix: str = "g") -> Matroid:
    """Two-sum of m1 and m2 across the named basepoints."""
    relab = {lab2: "_base_"}
    for k, lab in enumerate(m2.labels):
        if lab != lab2:
            relab[lab] = f"{prefix}{k}"
    m2r = builders._relabel(m2, relab)
    m1r = builders._relabel(m1, {lab1: "_base_"})
    glued = parallel_connection(m1r, m2r, ["_base_"])
    return glued.delete(glued.set_of(["_base_"]))


def prism() -> Matroid:
    """Cycle matroid of the triangular prism: two triangles joined by a
    perfect matching; smallest non-wheel with 5-element fans."""
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
             (0, 3), (1, 4), (2, 5)]
    labels = ["a1", "a2", "a3", "b1", "b2", "b3", "v1", "v2", "v3"]
    return graphic(6, edges, labels)


def plane_with_triad() -> Matroid:
    """Rank-4 matroid on 8 points: two planes hinged along a 2-point line.
    {a,b,c,d,e} restricts to a 5-point plane and {a,b,c} is a triad."""
    vectors = [
        [1, 1, 1, 0],   # a
        [1, 2, 4, 0],   # b
        [1, 3, 9, 0],   # c
        [1, 0, 0, 0],   # d
        [0, 1, 0, 0],   # e
        [1, 1, 0, 1],   # f
        [1, 2, 0, 4],   # g
        [1, 3, 0, 9],   # h
    ]
    return from_vectors(vectors, list("abcdefgh"))


def hinged_planes() -> Matroid:
    """Rank-5 matroid on 13 points: a 5-point plane {p1..p4,p} whose point p
    hinges two rank-3 wings; deleting p leaves a 2-separation."""
    vectors = [
        [1, 1, 0, 0, 0],    # p1
        [1, 2, 0, 0, 0],    # p2
        [1, 0, 0, 1, 0],    # p3
        [1, 0, 0, 2, 0],    # p4
        [1, 3, 0, 5, 0],    # p
        [1, 0, 1, 0, 0],    # a1
        [0, 1, 1, 0, 0],    # a2
        [1, 1, 1, 0, 0],    # a3
        [1, 2, 4, 0, 0],    # a4
        [1, 0, 0, 0, 1],    # b1
        [0, 0, 0, 1, 1],    # b2
        [1, 0, 0, 1, 1],    # b3
        [1, 0, 0, 2, 4],    # b4
    ]
    labels = ["p1", "p2", "p3", "p4", "p",
              "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"]
    return from_vectors(vectors, labels)


def elongated_quad_instance() -> Matroid:
    """Rank-4 matroid on 9 points carrying an elongated-quad 3-separator
    {p1,p2,q1,q2,q3,q4} over a 3-point line {x1,x2,x3}."""
    vectors = [
        [1, 1, 1, 0],    # p1
        [2, 2, 1, 0],    # p2
        [1, 0, 1, 1],    # q1
        [1, 0, 0, 1],    # q2
        [0, 1, 1, 1],    # q3
        [0, 1, 0, 1],    # q4
        [1, 0, 0, 0],    # x1
        [0, 1, 0, 0],    # x2
        [1, 3, 0, 0],    # x3
    ]
    labels = ["p1", "p2", "q1", "q2", "q3", "q4", "x1", "x2", "x3"]
    return from_vectors(vectors, labels)


def skew_whiff_instance() -> Matroid:
    """Rank-4 matroid on 9 points carrying a skew-whiff 3-separator: three
    pair-planes through a common line plus three twisted 4-point circuits.
    Built combinatorially (the configuration has no linear realisation)."""
    labels = ["s1", "s2", "t1", "t2", "u1", "u2", "x1", "x2", "x3"]
    idx = {lab: i for i, lab in enumerate(labels)}
    line = mask_of(idx[x] for x in ("x1", "x2", "x3"))
    planes = [mask_of(idx[x] for x in pair) | line
              for pair in (("s1", "s2"), ("t1", "t2"), ("u1", "u2"))]
    twisted = [mask_of(idx[x] for x in quad)
               for quad in (("s1", "s2", "t2", "u1"),
                            ("s1", "t1", "t2", "u2"),
                            ("s2", "t1", "u1", "u2"))]

    def independent(x: int) -> bool:
        if popcount(x) > 4 or (x & line) == line or x in twisted:
            return False
        return all(popcount(x & pl) < 4 for pl in planes)

    bases = [mask_of(c) for c in itertools.combinations(range(9), 4)
             if independent(mask_of(c))]
    return validate(bases, 9, labels)


def long_flan_instance() -> Matroid:
    """Rank-5 matroid on 10 points with a maximal 8-element flan hanging
    off a 2-point base line: the flan spans three more ranks than its
    complement."""
    vectors = [
        [1, 1, 1, 0, 0],    # f1
        [0, 0, 1, 0, 0],    # f2
        [2, 0, 1, 1, 0],    # f3
        [3, 1, 0, 1, 0],    # f4 = f1 - 2 f2 + f3
        [0, 3, 0, 1, 1],    # f5
        [-2, 3, 0, 0, 1],   # f6 = f5 - f4 + (f1 - f2)
        [5, 1, 0, 0, 2],    # f7
        [1, 3, 0, 0, 0],    # f8 on the base line
        [1, 0, 0, 0, 0],    # c1
        [0, 1, 0, 0, 0],    # c2
    ]
    labels = ["f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "c1", "c2"]
    return from_vectors(vectors, labels)


def elongated_quad_glued() -> Matroid:
    """13-element rank-5 matroid with a Fano restriction and an
    elongated-quad 3-separator attached along a free line of the Fano
    plane.  Carries no Fano-detachable pairs: the quad part projects onto
    a line meeting no Fano points, so removed points cannot be rebuilt."""
    f = fano(("w1", "w2", "w3", "w4", "w5", "w6", "w7"))
    f = principal_extension(f, f.full, "z1")
    f = principal_extension(f, f.full, "z2")
    eq = elongated_quad_instance()
    eq = builders._relabel(eq.delete(eq.set_of(["x3"])),
                           {"x1": "z1", "x2": "z2"})
    glued = parallel_connection(f, eq, ["z1", "z2"])
    return glued.delete(glued.set_of(["z1", "z2"]))


def random_sparse_paving(rng: random.Random, n: int, r: int) -> Matroid:
    """Seeded sparse paving matroid: a random independent family of r-sets
    meeting pairwise in at most r-2 elements, turned into circuit-hyperplanes."""
    if n < 3:
        # the target family size below is drawn from 3..n
        raise builders.BadParams(
            f"random_sparse_paving(n={n}, r={r}) needs n >= 3")
    cands = [mask_of(c) for c in itertools.combinations(range(n), r)]
    rng.shuffle(cands)
    target = rng.randint(3, n)
    chosen = []
    for q in cands:
        if len(chosen) >= target:
            break
        if all(popcount(q & c) <= r - 2 for c in chosen):
            chosen.append(q)
    return paving(r, n, chosen)


def generate_corpus(seed: int = 0, max_n: int = 16) -> list[CorpusEntry]:
    """Deterministic corpus; identical seed gives identical entries."""
    out: list[CorpusEntry] = []

    def add(name, m):
        if m.n <= max_n:
            out.append(CorpusEntry(name, m))

    for r in range(0, 5):
        for n in range(max(r, 1), 10):
            add(f"u_{r}_{n}", uniform(r, n))
    for r in range(2, 6):
        add(f"wheel_{r}", wheel(r))
        add(f"whirl_{r}", whirl(r))
    add("fano", fano())
    add("fano_dual", fano().dual())
    add("nonfano", nonfano())
    add("nonfano_dual", nonfano().dual())
    add("spike_3", spike(3))
    add("spike_4", spike(4))
    add("paving8", paving8())
    add("paving8_ext", paving8_ext())
    add("twistedcube", twisted_cube_matroid())
    tcd = twisted_cube_matroid().dual()
    add("twistedcube_dual", tcd)
    # deleting p1 from the dual leaves a proper maximal 5-element flan
    add("twistedcube_dual_del", tcd.delete(tcd.set_of(["p1"])))
    add("spikedfano", spiked_fano(4))
    add("prism", prism())
    add("prism_dual", prism().dual())
    add("plane_triad8", plane_with_triad())
    add("hinged13", hinged_planes())
    add("elongquad9", elongated_quad_instance())
    add("elongquad_glued", elongated_quad_glued())
    add("skewwhiff9", skew_whiff_instance())
    add("flan10", long_flan_instance())
    add("twosum_u24_u24", two_sum(uniform(2, 4), "a", uniform(2, 4), "a"))
    add("twosum_k4_u24", two_sum(wheel(3), "s1", uniform(2, 4), "a"))

    rng = random.Random(seed)
    made = 0
    tries = 0
    while made < 3 and tries < 40:
        tries += 1
        m = random_sparse_paving(rng, 8, 4)
        if is_3_connected(m):
            add(f"sparse8_{made}", m)
            made += 1
    return out
