"""Deterministic matroid corpus for the property harness.

Besides the named catalog (uniforms, wheels and whirls, the Fano pair,
spikes, the two glued constructions) this builds a handful of engineered
fixtures that exercise hypotheses the catalog cannot reach: planes with
triads inside, a hinged pair of planes, and small non-representable-style
instances carrying each special 3-separator.

The representable fixtures come from integer vectors through
`from_vectors`, which decides every r-subset at once by batched
fraction-free (Bareiss) elimination in int64; it accepts vectors whose
Hadamard bound H = (sqrt(r) * max|a|)^r keeps H^2 below 2^63 (the corpus
has max|a| = 9 at rank 5, so H^2 is about 1.1e13).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import (MAX_GROUND, Matroid, _lex_masks, _masks_of_size,
                   mask_of, popcount, validate)
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


# r-subsets per batch of from_vectors: a (2^15, r, r) int64 stack is at
# most 38 MB at r = 12, and every corpus instance fits in one batch
_BLOCK = 1 << 15


def _integer_rows(vectors) -> list[list[int]]:
    """The vectors as lists of Python ints, all of one length."""
    rows = [list(v) for v in vectors]
    d = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != d:
            raise builders.BadParams(
                f"from_vectors: vector {i} {row} has {len(row)} "
                f"coordinates, vector 0 has {d}")
        if not all(isinstance(x, (int, np.integer))
                   and not isinstance(x, bool) for x in row):
            raise builders.BadParams(
                f"from_vectors: vector {i} {row} has an entry that is not "
                f"an integer")
    return [[int(x) for x in row] for row in rows]


def _pivot_coordinates(rows) -> list[int]:
    """Pivot coordinates of one fraction-free elimination of all the rows.

    There are r of them, r the rank of the rows, and the rows projected
    onto them still have rank r, so the projection keeps every linear
    dependency among the rows.  Python ints, so nothing overflows.
    """
    rows = [row[:] for row in rows]
    d = len(rows[0]) if rows else 0
    cols, prev = [], 1
    for c in range(d):
        k = len(cols)
        p = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        piv = rows[k][c]
        for i in range(k + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(piv * x - f * y) // prev
                       for x, y in zip(rows[i], rows[k])]
        prev = piv
        cols.append(c)
    return cols


def _nonsingular(mats: np.ndarray) -> np.ndarray:
    """Indices of the nonsingular matrices in a (B, r, r) int64 stack.

    Batched Bareiss elimination, one numpy pass per column: each matrix
    swaps in the first row at or below the diagonal with a nonzero entry
    in the column, and one with no such row is singular and dropped.  The
    update (piv * a - a_ic * a_cj) // prev is exact, and every entry it
    makes is a minor of the matrix.
    """
    live = np.arange(len(mats))
    prev = np.ones(len(mats), dtype=np.int64)
    r = mats.shape[1]
    for k in range(r):
        nz = mats[:, k:, k] != 0
        has = nz.any(axis=1)
        live, mats, nz, prev = live[has], mats[has], nz[has], prev[has]
        p = k + nz.argmax(axis=1)
        at = np.arange(len(mats))
        mats[at, p], mats[:, k] = mats[:, k].copy(), mats[at, p]
        low = mats[:, k + 1:, k + 1:]
        low *= mats[:, k, k, None, None]
        low -= mats[:, k + 1:, k, None] * mats[:, k, None, k + 1:]
        low //= prev[:, None, None]
        prev = mats[:, k, k]
    return live


def from_vectors(vectors, labels) -> Matroid:
    """Linear matroid of integer coordinate vectors, validated.

    One fraction-free elimination of all the vectors finds their rank r and
    r pivot coordinates; projected onto those, the vectors keep every
    dependency.  The r x r matrices of all r-subsets then go through one
    batched Bareiss elimination (`_nonsingular`), and the nonsingular ones
    are the bases.  Every Bareiss intermediate is a minor of absolute value
    at most H = (sqrt(r) * max|a|)^r (Hadamard), and int64 holds the
    products of two of them while H^2 < 2^63; vectors past that bound, of
    unequal lengths or with entries that are not integers (bools included)
    raise BadParams.
    """
    n = len(vectors)
    if n > MAX_GROUND:
        raise builders.BadParams(
            f"from_vectors: {n} vectors, more than {MAX_GROUND}")
    rows = _integer_rows(vectors)
    cols = _pivot_coordinates(rows)
    r = len(cols)
    amax, big = max(((abs(x), i) for i, row in enumerate(rows) for x in row),
                    default=(0, 0))
    if (r * amax * amax) ** r >= 1 << 63:
        raise builders.BadParams(
            f"from_vectors: vector {big} {rows[big]} has an entry of size "
            f"{amax}, past the int64 bound at rank {r}")
    a = np.array([[row[c] for c in cols] for row in rows],
                 dtype=np.int64).reshape(n, r)
    subsets = _masks_of_size(n, r)
    bases = []
    for lo in range(0, len(subsets), _BLOCK):
        block = subsets[lo:lo + _BLOCK]
        ids = np.nonzero((block[:, None] >> np.arange(n)) & 1)[1]
        bases += block[_nonsingular(a[ids.reshape(len(block), r)])].tolist()
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

    bases = [x for x in _lex_masks(9, 4).tolist() if independent(x)]
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
    cands = _lex_masks(n, r).tolist()
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
