"""Minor testing, labellings certifying a fixed minor (all of them, or
those that nearly avoid a region: the surviving copy of N, or the removed
elements, meet it in at most one element), grounded triangles and triads,
and detachable-pair search (direct and after a single delta-wye or
wye-delta exchange).

The minor search scores candidate labellings in numpy blocks of (C, D)
pairs over one subset-sum table per matroid, `Matroid.basis_counts`: the
number of bases inside each set, modulo 2^16.  The bases of a minor
M/C\\D are counted by inclusion-exclusion over the subsets of C, in the
table of M, at 2^|C| lookups per pair, so the cost of a count does not
grow with |B(M)|.  Only the candidates whose basis count and
basis-degree multiset match N's, modulo 2^16, reach the isomorphism
test.  `_CELLS` bounds each block of pairs and each gather of their
counts.  One scorer, `_Grid`, serves `labellings` and the detachable-pair
search.

The detachable-pair search reads both of its questions about a pair
minor M/{x,y} or M\\{x,y} from M's table: its 3-connectivity as its
connectivity function in M's ranks, once per M, and whether it keeps an
N-minor from one scan of M's own grid for N, bought by the ski-rental
rule (`detachable_pairs`).
"""

from __future__ import annotations

import functools
import itertools
import zlib
from dataclasses import dataclass

import numpy as np

from .core import (_PC16, MAX_GROUND, Matroid, MatroidError, _lex_masks,
                   bit, elems, is_isomorphic, popcount)
from .connectivity import _pair_3_connected
from .builders import delta_wye, wye_delta
from .structures import triangles, triads


class HypothesisUnmet(MatroidError):
    pass


@dataclass(frozen=True)
class NLabelling:
    contract: int
    delete: int


@dataclass(frozen=True)
class DetachableResult:
    pair: tuple[int, int]
    mode: str               # "contract" | "delete"
    stage: str              # "direct" | "after-delta-wye" | "after-wye-delta"
    exchanged: int | None   # triple the exchange was performed on, if any
    labelling: NLabelling | None


# (table key of M, table key of N) -> the first labelling, or None
_minor_memo: dict = {}
_MISS = object()


class _TableKey:
    """M's rank table as a memo key, as fine as the basis family: it hashes
    by a CRC of the table and compares the tables themselves, so it copies
    nothing (the table at n = 24 is 16 MiB).  A key keeps its table
    alive."""

    __slots__ = ("view", "crc")

    def __init__(self, m: Matroid):
        self.view = memoryview(m.table())
        self.crc = zlib.crc32(self.view)

    def __hash__(self):
        return self.crc

    def __eq__(self, other):
        return self.crc == other.crc and self.view == other.view


def _memo(key, search):
    """The answer memoised under `key`, from `search()` on a miss."""
    found = _minor_memo.get(key, _MISS)
    if found is _MISS:
        _minor_memo[key] = found = search()
    return found


# the paper's "nearly avoids": a capped region may meet the surviving copy
# of N, or the removed elements, in at most this many elements
_NEAR = 1

# bound on the entries of each block of (C, D) pairs of the labelling
# search and of each gather of their counts or degree rows; only the
# 2^|C| lookups of a single pair can exceed it
_CELLS = 1 << 16

# blocks of (C, D) pairs that `_Grid` has scored in this process: the
# price that `detachable_pairs` weighs its one scan of M against
_scored_blocks = 0


# one bit per element, as intp, so that masks built from them index tables
# without a cast
_BITS = 1 << np.arange(MAX_GROUND, dtype=np.intp)


@functools.cache
def _by_parity(k: int) -> np.ndarray:
    """Read-only order of the subsets j < 2^k: even |j| first, then odd."""
    order = np.argsort(_PC16[:1 << k] & 1, kind="stable")
    order.flags.writeable = False
    return order


def _submasks(xs: np.ndarray, k: int) -> np.ndarray:
    """(2^k, len(xs)) intp: every submask T of each k-set X, one row per T,
    the 2^(k-1) rows of even |T| first (the one row when k = 0)."""
    sub = np.zeros((1, len(xs)), dtype=np.intp)
    rest = xs.astype(np.intp)
    for _ in range(k):
        low = rest & -rest
        rest ^= low
        sub = np.concatenate([sub, sub | low])
    return sub[_by_parity(k)]


def _alternating(g: np.ndarray) -> np.ndarray:
    """The sums over the first axis of `g`, modulo 2^16, with the sign +1
    on its first (even) half and -1 on the rest, as `_submasks` orders
    them."""
    half = len(g) + 1 >> 1
    return g[:half].sum(0, dtype=np.uint16) - g[half:].sum(0, dtype=np.uint16)


class _Grid:
    """The candidate (C, D) pairs of `labellings`' search for N in M, as
    `blocks` blocks of `rows` C sets by `cols` D sets, and the scorer
    that filters them, block by block (`__iter__`)."""

    def __init__(self, m: Matroid, n_mat: Matroid, survivor_cap: int = 0,
                 removed_cap: int = 0):
        self.m, self.n_mat = m, n_mat
        self.survivor_cap, self.removed_cap = survivor_cap, removed_cap
        self.kc = kc = m.rank - n_mat.rank
        kd = m.n - n_mat.n - kc
        self.blocks = 0
        if kc < 0 or kd < 0:
            return
        t = m.table()
        cs = _lex_masks(m.n, kc)
        cs = cs[t[cs] == kc]
        ds = _lex_masks(m.n, kd)
        ds = ds[t[m.full ^ ds] == m.rank]
        if survivor_cap:
            # C takes at most kc elements out of the region
            ds = ds[np.bitwise_count(survivor_cap & ~ds) <= _NEAR + kc]
        if removed_cap:
            cs = cs[np.bitwise_count(cs & removed_cap) <= _NEAR]
            ds = ds[np.bitwise_count(ds & removed_cap) <= _NEAR]
        if not len(cs) or not len(ds):
            return
        self.cs, self.ds = cs, ds
        self.cols = max(1, min(len(ds), _CELLS >> kc))
        self.rows = max(1, (_CELLS >> kc) // self.cols)
        self.blocks = -(-len(cs) // self.rows) * -(-len(ds) // self.cols)

    def __iter__(self):
        """(C array, D array) of the pairs that survive the count and
        degree filters, for each gather in which some do, in lex order of
        C, then of D.  Counts each block scored in `_scored_blocks`."""
        global _scored_blocks
        if not self.blocks:
            return
        m, n_mat, kc, survivor_cap, removed_cap = (
            self.m, self.n_mat, self.kc, self.survivor_cap, self.removed_cap)
        n, full, gap = m.n, m.full, m.n - n_mat.n
        hn = n_mat.basis_counts()
        nb_n = hn[-1]
        # the gap elements of C and D lie in no basis of the minor
        n_deg = np.sort(nb_n - hn[n_mat.full ^ _BITS[:n_mat.n]])
        want_deg = np.concatenate([np.zeros(gap, dtype=np.uint16), n_deg])
        h = m.basis_counts()
        drop = ~_BITS[:n, None]
        step = max(1, _CELLS // (n << kc))
        for c0 in range(0, len(self.cs), self.rows):
            block = self.cs[c0:c0 + self.rows]
            sub = _submasks(block, kc)
            for d0 in range(0, len(self.ds), self.cols):
                _scored_blocks += 1
                dblock = self.ds[d0:d0 + self.cols]
                keep = full ^ dblock
                removed = block[:, None] | dblock
                hit = np.bitwise_count(removed) == gap  # C and D are disjoint
                if survivor_cap:
                    hit &= np.bitwise_count(survivor_cap & ~removed) <= _NEAR
                if removed_cap:
                    hit &= np.bitwise_count(removed & removed_cap) <= _NEAR
                # the masks (E - D) - T, T along the first axis
                hit &= _alternating(h[sub[:, :, None] ^ keep]) == nb_n
                ci, di = np.nonzero(hit)
                for s in range(0, len(ci), step):
                    a, b = ci[s:s + step], di[s:s + step]
                    # the bases of M/C\D through e: the count for (C, D)
                    # less that for (C, D + e); 0 on D, and set to 0 on C
                    ys = sub[:, a] ^ keep[b]
                    deg = nb_n - _alternating(h[ys[:, None] & drop])
                    deg[(block[a] & _BITS[:n, None]) != 0] = 0
                    deg.sort(axis=0)
                    j = np.flatnonzero((deg == want_deg[:, None]).all(0))
                    if j.size:
                        yield block[a[j]], dblock[b[j]]


def labellings(m: Matroid, n_mat: Matroid, survivor_cap: int = 0,
               removed_cap: int = 0):
    """Generate every labelling (C, D) with M/C\\D isomorphic to N, in lex
    order of C, then of D.

    C always has exactly r(M) - r(N) elements and D the rest of the size
    gap; this loses nothing since every minor has such a reduced form.
    `survivor_cap` keeps only the labellings whose surviving copy of N
    nearly avoids that region, meeting it in at most `_NEAR` elements;
    `removed_cap` keeps those that remove at most `_NEAR` elements of
    its region.

    The search builds no `Matroid` per candidate.  C runs over the
    independent sets of its size and D over those whose complement spans,
    each in lex order; the caps hold D to a slack of |C| on the survivor
    side, and hold each disjoint pair exactly.  The bases of M/C\\D are
    B - C for the bases B of M with C <= B <= E - D.  By inclusion-exclusion
    over C their number is the sum of (-1)^|T| h[(E - D) - T] over T <= C,
    with h = `Matroid.basis_counts`, so a pair costs 2^|C| lookups,
    whatever |B(M)|.  The table holds its counts modulo 2^16, so the
    filters compare modulo 2^16: they are exact below 2^16 bases and
    necessary conditions above.  A pair whose count is |B(N)| has its
    degree row (how many bases of the minor hold each e: the count for
    (C, D) less that for (C, D + e), 0 on C and D) compared sorted with
    N's, and the survivors reach `is_isomorphic` on the minor gathered
    from the table.  Each block of pairs, with the submasks of its C
    sets, and each gather of their counts or degree rows, holds at most
    `_CELLS` entries, or one pair's where that is more.  `_Grid` scores
    the pairs; this generator runs the isomorphism step on its survivors.

    The isomorphism verdict is memoised in `_minor_memo` on the table keys
    of the minor and N, as the `has_minor` answer for that equal-size pair:
    NLabelling(0, 0) or None.
    """
    n_key = _TableKey(n_mat)
    for cs, ds in _Grid(m, n_mat, survivor_cap, removed_cap):
        for c, d in zip(cs.tolist(), ds.tolist()):
            mn = m.minor(c, d)
            if _memo((_TableKey(mn), n_key),
                     lambda: None if is_isomorphic(mn, n_mat) is None
                     else NLabelling(0, 0)) is not None:
                yield NLabelling(c, d)


def has_minor(m: Matroid, n_mat: Matroid) -> NLabelling | None:
    """First labelling in canonical order, or None.  Memoised on the rank
    tables of both matroids (`_TableKey`).

    A table fixes n and the basis family (the bases are the r-sets X with
    r(X) = r), so the key is as fine as the basis family, and a memo hit
    derives no bases.  The memo holds these answers and the isomorphism
    verdicts of `labellings`, which are the answers for equal-size
    pairs."""
    return _memo((_TableKey(m), _TableKey(n_mat)),
                 lambda: next(labellings(m, n_mat), None))


def verify_labelling(m: Matroid, n_mat: Matroid, lab: NLabelling) -> bool:
    if lab.contract & lab.delete:
        return False
    return is_isomorphic(m.minor(lab.contract, lab.delete), n_mat) is not None


def _grounded(m: Matroid, n_mat: Matroid, triple: int) -> bool:
    for a, b in itertools.combinations(elems(triple), 2):
        ma, mb = bit(a), bit(b)
        for c, d in ((ma | mb, 0), (ma, mb), (mb, ma), (0, ma | mb)):
            if has_minor(m.minor(c, d), n_mat) is not None:
                return False
    return True


def grounded_triangles(m: Matroid, n_mat: Matroid) -> list[int]:
    return [t for t in triangles(m) if _grounded(m, n_mat, t)]


def grounded_triads(m: Matroid, n_mat: Matroid) -> list[int]:
    return [t for t in triads(m) if _grounded(m, n_mat, t)]


def all_triples_grounded(m: Matroid, n_mat: Matroid) -> bool:
    """Every triangle and triad is N-grounded; stops at the first that is
    not."""
    return all(_grounded(m, n_mat, t) for t in triangles(m) + triads(m))


def _covered(grid: _Grid) -> dict:
    """For each mode, the n x n bool matrix of the element pairs that some
    survivor of `grid`'s scorer holds in C ("contract") or in D
    ("delete"), from one product of each block's survivor bit matrix with
    itself."""
    n = grid.m.n
    cover = {mode: np.zeros((n, n), dtype=bool)
             for mode in ("contract", "delete")}
    for cs, ds in grid:
        for mode, sets in (("contract", cs), ("delete", ds)):
            b = ((sets[:, None] & _BITS[:n]) != 0).astype(np.float32)
            cover[mode] |= b.T @ b > 0
    return cover


def detachable_pairs(m: Matroid, n_mat: Matroid | None,
                     within: int | None = None,
                     first_only: bool = False) -> list[DetachableResult]:
    """Pairs whose double contraction or double deletion is 3-connected and
    (when n_mat is given) keeps an N-minor.  `within` restricts the scan to
    pairs inside a mask; n_mat=None disables the minor requirement.

    Both questions are read from M's table, so no pair minor is built
    unless it has to be searched.  Whether a pair minor is 3-connected
    is `_pair_3_connected`, which depends only on M, so M keeps the answer
    for each (x1, x2, mode) it has been asked about, as ints and bools.

    The N-minors follow the ski-rental rule (keep paying per use until the
    uses add up to the one-off price, then pay it).  Pair minors are
    searched with `has_minor`, and the blocks that each search finding
    nothing scored are added up.  Once they reach the block count of M's
    own grid for N, that grid is scored once.  If p is independent, an
    N-minor of M/p is M/p/C'\\D' for a labelling (C', D') of M/p, and
    (C' + p, D') is then a labelling of M, so a survivor of M's scorer
    has C >= p; if p is coindependent, an N-minor of M\\p likewise gives
    one with D >= p.  After the scan, such a pair that no survivor covers
    has no N-minor and is not searched.  So the scan never costs more
    blocks than the searches already paid for.
    """
    out = []
    if m.n < 3:
        return out
    if m._pairs is None:
        m._pairs = {}
    connected = m._pairs
    r = m._ranks()
    # blocks paid by searches that found nothing, M's grid for N once one
    # has, and what its survivors cover once they have paid for it
    paid, grid, cover = 0, None, None
    ids = elems(within) if within is not None else range(m.n)
    for x1, x2 in itertools.combinations(ids, 2):
        pair = bit(x1) | bit(x2)
        for mode in ("contract", "delete"):
            contract = mode == "contract"
            key = x1, x2, mode
            if key not in connected:
                connected[key] = _pair_3_connected(m, pair, contract)
            if not connected[key]:
                continue
            lab = None
            if n_mat is not None:
                if cover is None and paid:
                    if grid is None:
                        grid = _Grid(m, n_mat)
                    if paid >= grid.blocks:
                        cover = _covered(grid)
                if cover is not None and not cover[mode][x1, x2] and (
                        r[pair] == 2 if contract
                        else r[m.full ^ pair] == m.rank):
                    continue
                before = _scored_blocks
                lab = has_minor(m.minor(pair, 0) if contract
                                else m.minor(0, pair), n_mat)
                if lab is None:
                    paid += _scored_blocks - before
                    continue
            out.append(DetachableResult((x1, x2), mode, "direct", None, lab))
            if first_only:
                return out
    return out


def detachable_after_exchange(m: Matroid, n_mat: Matroid | None,
                              first_only: bool = False) -> list[DetachableResult]:
    """Run the pair search on every single delta-wye or wye-delta exchange
    of m, tagging results with the exchanged triple."""
    out = []
    for triples, exchange, stage in ((triangles, delta_wye, "after-delta-wye"),
                                     (triads, wye_delta, "after-wye-delta")):
        for x in triples(m):
            for res in detachable_pairs(exchange(m, x), n_mat,
                                        first_only=first_only):
                out.append(DetachableResult(res.pair, res.mode, stage, x,
                                            res.labelling))
                if first_only:
                    return out
    return out


def switch_labels(m: Matroid, n_mat: Matroid, lab: NLabelling,
                  d: int, e: int) -> NLabelling:
    """Swap the labels of d and e, justified by a parallel pair {d,e} in
    M/c for some contracted c.  The result is re-verified as a labelling."""
    pair = bit(d) | bit(e)
    t = m._ranks()
    hyp = any(t[pair | bit(c)] - t[bit(c)] == 1
              for c in elems(lab.contract & ~pair))
    if not hyp:
        raise HypothesisUnmet(
            f"{{{m.labels[d]},{m.labels[e]}}} is not a parallel pair in any "
            "single contraction from the labelling")
    # swap the bits of d and e in each mask that holds one of them
    new = NLabelling(*(x ^ pair if popcount(x & pair) == 1 else x
                       for x in (lab.contract, lab.delete)))
    if not verify_labelling(m, n_mat, new):
        raise MatroidError("label switch produced an invalid labelling; "
                           "minor machinery is broken")
    return new

