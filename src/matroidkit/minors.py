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
counts.  One scorer, `_Grid`, serves `labellings`, `has_minor`,
`_has_minors` (many N's at once, one scan per shape (|E(N)|, r(N))) and
the detachable-pair search.  `_minor_has` answers for M/C\\D without
building it when its size, rank or corank, read from M's ranks, is below
N's (`_may_hold`).

The detachable-pair search reads both of its questions about a pair
minor M/{x,y} or M\\{x,y} from M's table, cheapest first: the shape
guard; once a search has found nothing, one scan of M's own grid for N,
whose survivors rule out the pairs they do not cover (if none survives,
the search ends); its 3-connectivity, read from M's table as for any
M/C\\D and kept on M (`_minor_3_connected`); and only then a search of
the built minor (`detachable_pairs`).  The exchange stage searches each
distinct exchanged matroid once, matched exactly on its table, and keeps
only the results (`detachable_after_exchange`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (_PC16, MAX_GROUND, Matroid, MatroidError, _lex_masks,
                   bit, elems, is_isomorphic, popcount)
from .connectivity import _minor_3_connected
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


# (M.key, N.key) -> the first labelling, or None
_minor_memo: dict = {}
_UNSEEN = object()  # `_minor_memo.get`'s default: the pair is not memoised


# the paper's "nearly avoids": a capped region may meet the surviving copy
# of N, or the removed elements, in at most this many elements
_NEAR = 1

# bound on the entries of each block of (C, D) pairs of the labelling
# search and of each gather of their counts or degree rows; only the
# 2^|C| lookups of a single pair can exceed it
_CELLS = 1 << 16

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
    """The candidate (C, D) pairs of the search in M for the N's `ns`, all
    of one shape (|E(N)|, r(N)), which share the C and D sets and M's
    counts, in blocks of `rows` C sets by `cols` D sets, and their scorer
    (`__iter__`) for the N's whose indices `open` holds."""

    def __init__(self, m: Matroid, *ns: Matroid, survivor_cap: int = 0,
                 removed_cap: int = 0):
        self.m, self.ns = m, ns
        self.survivor_cap, self.removed_cap = survivor_cap, removed_cap
        self.open = set(range(len(ns)))
        self.kc = kc = m.rank - ns[0].rank
        kd = m.n - ns[0].n - kc
        self.cs = self.ds = ()
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
        self.cs, self.ds = cs, ds
        self.cols = max(1, min(len(ds), _CELLS >> kc))
        self.rows = max(1, (_CELLS >> kc) // self.cols)

    def __iter__(self):
        """(i, C array, D array) of the pairs that survive N_i's count and
        degree filters, for each gather and each open N_i, in lex order of
        C, then of D; the scan ends once no N is open.

        C runs over the independent sets of its size and D over those whose
        complement spans; the caps hold D to a slack of |C| on the survivor
        side, and hold each disjoint pair exactly.  The bases of M/C\\D are
        B - C for the bases B of M with C <= B <= E - D, so they number the
        sum of (-1)^|T| h[(E - D) - T] over T <= C.  Each block's counts, and
        the degree rows of its pairs whose count is some open |B(N)|, are
        gathered once for all N's."""
        if not len(self.cs) or not len(self.ds):
            return
        m, kc, survivor_cap, removed_cap = (
            self.m, self.kc, self.survivor_cap, self.removed_cap)
        n, full, gap = m.n, m.full, m.n - self.ns[0].n
        nbs, want_degs = zip(*(n_mat._score_row for n_mat in self.ns))
        h = m.basis_counts()
        drop = ~_BITS[:n, None]
        step = max(1, _CELLS // (n << kc))
        for c0 in range(0, len(self.cs), self.rows):
            block = self.cs[c0:c0 + self.rows]
            sub = _submasks(block, kc)
            for d0 in range(0, len(self.ds), self.cols):
                if not self.open:
                    return
                dblock = self.ds[d0:d0 + self.cols]
                keep = full ^ dblock
                # the masks (E - D) - T, T along the first axis
                count = _alternating(h[sub[:, :, None] ^ keep])
                ci, di = np.nonzero(np.logical_or.reduce(
                    [count == nb for nb in {nbs[i] for i in self.open}]))
                # of those, the pairs with C and D disjoint, within the caps
                removed = block[ci] | dblock[di]
                hit = np.bitwise_count(removed) == gap
                if survivor_cap:
                    hit &= np.bitwise_count(survivor_cap & ~removed) <= _NEAR
                if removed_cap:
                    hit &= np.bitwise_count(removed & removed_cap) <= _NEAR
                ci, di = ci[hit], di[hit]
                for s in range(0, len(ci), step):
                    if not self.open:
                        return
                    a, b = ci[s:s + step], di[s:s + step]
                    # the bases of M/C\D through e: the count for (C, D)
                    # less that for (C, D + e); 0 on D, and set to 0 on C
                    got = count[a, b]
                    # in C order, so that the sums run along contiguous rows
                    ys = np.bitwise_xor(sub[:, a], keep[b], order="C")
                    deg = got - _alternating(h[ys[:, None] & drop])
                    deg[(block[a] & _BITS[:n, None]) != 0] = 0
                    deg.sort(axis=0)
                    # the gap elements of C and D lie in no basis of the
                    # minor, so the sorted rows open with `gap` zeros
                    deg = deg[gap:]
                    for i in sorted(self.open):
                        j = np.flatnonzero((got == nbs[i])
                                           & (deg == want_degs[i]).all(0))
                        if j.size:
                            yield i, block[a[j]], dblock[b[j]]

    def found(self):
        """(i, labelling) for each survivor (C, D) of N_i with M/C\\D
        isomorphic to N_i, until `open` loses i; each verdict is memoised as
        the `has_minor` answer for that equal-size pair."""
        for i, cs, ds in self:
            for c, d in zip(cs.tolist(), ds.tolist()):
                if i not in self.open:
                    break
                mn = self.m.minor(c, d)
                key = mn.key, self.ns[i].key
                hit = _minor_memo.get(key, _UNSEEN)
                if hit is _UNSEEN:
                    hit = _minor_memo[key] = None if is_isomorphic(
                        mn, self.ns[i]) is None else NLabelling(0, 0)
                if hit is not None:
                    yield i, NLabelling(c, d)


def labellings(m: Matroid, n_mat: Matroid, survivor_cap: int = 0,
               removed_cap: int = 0):
    """Generate every labelling (C, D) with M/C\\D isomorphic to N, in lex
    order of C, then of D.

    C always has exactly r(M) - r(N) elements and D the rest of the size
    gap; this loses nothing since every minor has such a reduced form.
    `survivor_cap` keeps only the labellings whose surviving copy of N
    nearly avoids that region, meeting it in at most `_NEAR` elements;
    `removed_cap` keeps those that remove at most `_NEAR` elements of
    its region.  This is the one-N case of `_Grid`, which builds no
    `Matroid` per candidate, and of its memoised isomorphism step.
    """
    grid = _Grid(m, n_mat, survivor_cap=survivor_cap, removed_cap=removed_cap)
    yield from (lab for _, lab in grid.found())


def has_minor(m: Matroid, n_mat: Matroid) -> NLabelling | None:
    """First labelling in canonical order, or None: the one-N case of
    `_has_minors`, memoised on the keys of both matroids (`Matroid.key`,
    the rank table), so a memo hit derives no bases."""
    return _has_minors(m, [n_mat])[0]


def _has_minors(m: Matroid, ns) -> list:
    """`has_minor(M, N)` for each N of `ns`: the memo's answers, and the
    rest from one scan of M's grid per shape of N, in which each N closes
    at its first labelling, so the answers and memo are a per-N loop's."""
    keys = [(m.key, n_mat.key) for n_mat in ns]
    got = [_minor_memo.get(key, _UNSEEN) for key in keys]
    shapes: dict = {}
    for key, n_mat, hit in zip(keys, ns, got):
        if hit is _UNSEEN:
            shapes.setdefault((n_mat.n, n_mat.rank), {})[key] = n_mat
    for group in shapes.values():
        grid = _Grid(m, *group.values())
        first = [None] * len(group)
        for i, lab in grid.found():
            first[i] = lab
            grid.open.discard(i)
        _minor_memo.update(zip(group, first))
    return [_minor_memo[k] if h is _UNSEEN else h for k, h in zip(keys, got)]


def _may_hold(m: Matroid, c: int, d: int, n_mat: Matroid) -> bool:
    """Whether M/C\\D, by its size n - |C + D|, rank r(E - D) - r(C) and
    corank, read from M's ranks, can hold N: none of the three grows
    under further minors."""
    t = m._ranks()
    size, rank = m.n - popcount(c | d), t[m.full ^ d] - t[c]
    return (size >= n_mat.n and rank >= n_mat.rank
            and size - rank >= n_mat.n - n_mat.rank)


def _minor_has(m: Matroid, c: int, d: int, n_mat: Matroid):
    """`has_minor(M/C\\D, N)`; None, building nothing, if `_may_hold` fails."""
    return has_minor(m.minor(c, d), n_mat) if _may_hold(m, c, d, n_mat) \
        else None


def verify_labelling(m: Matroid, n_mat: Matroid, lab: NLabelling) -> bool:
    if lab.contract & lab.delete:
        return False
    return is_isomorphic(m.minor(lab.contract, lab.delete), n_mat) is not None


def _grounded(m: Matroid, ns, triples) -> list[bool]:
    """For each N of `ns`, whether no pair {a, b} of a triple of `triples`
    has an M/C\\D, C + D = {a, b}, with an N-minor: one walk, which asks
    each pair minor about every open N that `_may_hold` admits in one
    `_has_minors` call, and closes an N at its first yes."""
    open_ = dict(enumerate(ns))
    for triple in triples:
        if not open_:
            break
        for a, b in itertools.combinations(elems(triple), 2):
            ma, mb = bit(a), bit(b)
            for c, d in ((ma | mb, 0), (ma, mb), (mb, ma), (0, ma | mb)):
                ask = [i for i, n_mat in open_.items()
                       if _may_hold(m, c, d, n_mat)]
                if not ask:
                    continue
                got = _has_minors(m.minor(c, d), [ns[i] for i in ask])
                for i in itertools.compress(ask, got):  # a labelling
                    del open_[i]
    return [i in open_ for i in range(len(ns))]


def grounded_triangles(m: Matroid, n_mat: Matroid) -> list[int]:
    return [t for t in triangles(m) if _grounded(m, [n_mat], [t])[0]]


def grounded_triads(m: Matroid, n_mat: Matroid) -> list[int]:
    return [t for t in triads(m) if _grounded(m, [n_mat], [t])[0]]


def all_triples_grounded(m: Matroid, n_mat: Matroid) -> bool:
    """Every triangle and triad is N-grounded; stops at the first that is
    not.  The one-N case of `_grounded`."""
    return _grounded(m, [n_mat], triangles(m) + triads(m))[0]


def _covered(grid: _Grid) -> dict:
    """For each mode, the n x n bool matrix of the element pairs that some
    survivor of `grid`'s scorer holds in C ("contract") or in D
    ("delete"), from one product of each block's survivor bit matrix with
    itself; empty if the scorer has no survivor."""
    n = grid.m.n
    cover = {}
    for _, cs, ds in grid:
        for mode, sets in (("contract", cs), ("delete", ds)):
            b = ((sets[:, None] & _BITS[:n]) != 0).astype(np.float32)
            cover[mode] = cover.get(mode, False) | (b.T @ b > 0)
    return cover


def detachable_pairs(m: Matroid, n_mat: Matroid | None,
                     first_only: bool = False) -> list[DetachableResult]:
    """Pairs whose double contraction or double deletion is 3-connected and
    (when n_mat is given) keeps an N-minor; n_mat=None disables the minor
    requirement.

    Both questions are read from M's table, so no pair minor is built
    unless it has to be searched.  With N given, each pair minor is asked
    in turn whether its shape can hold N (`_may_hold`), whether a survivor
    of the scan below covers it (once the scan exists), whether it is
    3-connected (`_minor_3_connected`, which M answers once per (C, D)),
    and whether it has an N-minor.

    Pair minors are searched with `has_minor` until one search finds
    nothing; M's own grid for N is then scored once.  If p is independent,
    an N-minor of M/p is M/p/C'\\D' for a labelling (C', D') of M/p, and
    (C' + p, D') is then a labelling of M, so a survivor of M's scorer has
    C >= p; if p is coindependent, an N-minor of M\\p likewise gives one
    with D >= p.  After the scan, such a pair that no survivor covers has
    no N-minor and is passed over before its 3-connectivity test.  If the
    scan has no survivor at all, M has no N-minor, nor has any pair
    minor, and the search ends.
    """
    out = []
    if m.n < 3:
        return out
    r = m._ranks()
    # whether a search has found nothing, and then what the survivors of
    # M's grid for N cover
    missed, cover = False, None
    for x1, x2 in itertools.combinations(range(m.n), 2):
        pair = bit(x1) | bit(x2)
        for mode in ("contract", "delete"):
            contract = mode == "contract"
            c, d = (pair, 0) if contract else (0, pair)
            if n_mat is not None:
                if not _may_hold(m, c, d, n_mat):
                    continue
                if missed and cover is None:
                    cover = _covered(_Grid(m, n_mat))
                    if not cover:
                        return out
                if cover is not None and not cover[mode][x1, x2] and (
                        r[pair] == 2 if contract
                        else r[m.full ^ pair] == m.rank):
                    continue
            if not _minor_3_connected(m, c, d):
                continue
            lab = None
            if n_mat is not None:
                lab = has_minor(m.minor(c, d), n_mat)
                if lab is None:
                    missed = True
                    continue
            out.append(DetachableResult((x1, x2), mode, "direct", None, lab))
            if first_only:
                return out
    return out


def detachable_after_exchange(m: Matroid, n_mat: Matroid | None,
                              first_only: bool = False) -> list[DetachableResult]:
    """Run the pair search on every single delta-wye or wye-delta exchange
    of m, tagging results with the exchanged triple.  Each distinct M' is
    searched once: a repeat, filed under its key's CRC and confirmed by
    the key of the earlier exchange rebuilt, takes that search's results."""
    out, searched = [], {}  # CRC of M' -> [(exchange, triple, results)]
    for triples, exchange, stage in ((triangles, delta_wye, "after-delta-wye"),
                                     (triads, wye_delta, "after-wye-delta")):
        for x in triples(m):
            mx = exchange(m, x)
            runs = searched.setdefault(mx.key.crc, [])
            found = next((got for ex, y, got in runs
                          if ex(m, y).key == mx.key), None)
            if found is None:
                found = detachable_pairs(mx, n_mat, first_only=first_only)
                runs.append((exchange, x, found))
            del mx  # no exchanged table outlives its own search
            for res in found:
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

