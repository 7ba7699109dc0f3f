"""Minor testing, labellings certifying a fixed minor (all of them, or
those that nearly avoid a region: the surviving copy of N, or the removed
elements, meet it in at most one element), grounded triangles and triads,
and detachable-pair search (direct and after a single delta-wye or
wye-delta exchange).

The minor search scores candidate labellings in numpy batches over the
rank table.  Contract sets that share a head (a lex-order prefix) form a
group, and one float32 product over the bases of M that contain the head
counts the bases of every minor M/C\\D of the group; only the candidates
whose basis count and basis-degree multiset match N's reach the
isomorphism test.  The head length and the slicing of the deletion sets
and of the survivors bound the search's matrices by `_CELLS` cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Matroid, MatroidError, _combos, bit, elems,
                   is_isomorphic)
from .connectivity import is_3_connected
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


# (table bytes of M, table bytes of N) -> the first labelling, or None
_minor_memo: dict = {}


def _memo(key, search):
    """The answer memoised under `key`, from `search()` on a miss."""
    if key not in _minor_memo:
        _minor_memo[key] = search()
    return _minor_memo[key]


# the paper's "nearly avoids": a capped region may meet the surviving copy
# of N, or the removed elements, in at most this many elements
_NEAR = 1

# bound on the cells of each (C, basis), (D, basis), (C, D) and (survivor,
# basis) matrix of the labelling search; only a single row can exceed it
_CELLS = 1 << 16


def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(len(masks), n) 0/1 matrix of the elements of each mask."""
    return (masks[:, None] >> np.arange(n, dtype=np.int32)) & 1


def _count_hits(has_c: np.ndarray, xs: np.ndarray, ds: np.ndarray,
                want: int) -> tuple[np.ndarray, np.ndarray]:
    """(C row, D row) pairs, C-major, where exactly `want` of the bases `xs`
    contain C and miss D; `has_c[i, j]` is 1 where xs[j] contains C_i."""
    step = max(1, _CELLS // max(has_c.shape))
    rows, cols = [], []
    for s in range(0, len(ds), step):
        misses = ((xs & ds[s:s + step, None]) == 0).astype(np.float32)
        # float32 counts are exact: a count is at most |B| <= C(24, 12),
        # below 2^24, up to which float32 holds every integer.  einsum
        # multiplies in this thread; a BLAS product (@) starts threads
        # that stall the search whenever another process holds a core.
        count = np.einsum("ij,kj->ik", has_c, misses)
        i, j = np.nonzero(count == want)
        rows.append(i)
        cols.append(j + s)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


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

    The search builds no `Matroid` per candidate.  C = head | tail, every
    head element before every tail element, so the C that share a head
    are consecutive; they form a group, scored over the bases of M that
    contain the head.  The head is the shortest whose group's (C, basis)
    matrix fits `_CELLS`.  The head and each D are filtered on their own:
    r(head) = |head|, r(E - D) = r(M) and the caps, the survivor cap with
    a slack of one per tail element.  The bases of M/C\\D are B - C for
    the bases B that contain C and miss D, so one float32 `einsum` of
    "B contains C" by "B misses D" counts them for the whole group.  The
    pairs whose count is |B(N)| and that pass the caps have their
    basis-degree rows compared sorted with N's, and the survivors reach
    `is_isomorphic` on the minor gathered from the table.  D and the
    survivors are sliced to keep their matrices within `_CELLS` cells.

    The isomorphism verdict is memoised in `_minor_memo` on the tables of
    the minor and N, as the `has_minor` answer for that equal-size pair:
    NLabelling(0, 0) or None.
    """
    gap = m.n - n_mat.n
    kc = m.rank - n_mat.rank
    if gap < 0 or kc < 0 or gap < kc:
        return
    n = m.n
    t = m.table()
    r, full = m.rank, m.full
    bases = np.array(m.bases, dtype=np.int32)
    elem_bits = np.int32(1) << np.arange(n, dtype=np.int32)
    nb_n = len(n_mat.bases)
    n_key = n_mat.table().tobytes()
    want_deg = np.sort(np.concatenate([
        _bits(np.array(n_mat.bases, dtype=np.int32), n_mat.n).sum(0),
        np.zeros(gap, dtype=np.int64)]))
    k_head = next((j for j in range(kc + 1)
                   if math.comb(n - j, kc - j) * len(bases) <= _CELLS), kc)
    k_tail = kc - k_head
    head_pos = _combos(n - k_tail, k_head)  # leaves room for a tail
    heads = elem_bits[head_pos].sum(1, dtype=np.int32)
    tail_pos = _combos(n, k_tail)
    tails = elem_bits[tail_pos].sum(1, dtype=np.int32)
    # a head's tails are the lex-order suffix after its last element
    starts = np.searchsorted(tail_pos[:, 0], head_pos[:, -1], "right") \
        if k_head and k_tail else np.zeros(len(heads), dtype=np.intp)
    # D's positions among the elements left by the head, the same for
    # every head
    d_pos = _combos(n - k_head, gap - kc)
    ok = t[heads] == k_head
    if removed_cap:
        ok &= np.bitwise_count(heads & removed_cap) <= _NEAR
    for g in np.flatnonzero(ok).tolist():
        h = int(heads[g])
        xs = bases[(bases & h) == h]
        cs = h | tails[starts[g]:]
        c_ok = t[cs] == kc
        if removed_cap:
            c_ok &= np.bitwise_count(cs & removed_cap) <= _NEAR
        cs = cs[c_ok]
        if len(xs) < nb_n or not len(cs):
            continue
        ds = np.delete(elem_bits, head_pos[g])[d_pos].sum(1, dtype=np.int32)
        d_ok = t[full ^ ds] == r
        if survivor_cap:
            # the tail takes at most k_tail elements out of the region
            d_ok &= np.bitwise_count(survivor_cap & ~(h | ds)) \
                <= _NEAR + k_tail
        if removed_cap:
            d_ok &= np.bitwise_count((h | ds) & removed_cap) <= _NEAR
        ds = ds[d_ok]
        if not len(ds):
            continue
        has_c = (xs & cs[:, None]) == cs[:, None]
        # a count of |B(N)| >= 1 also makes C and D disjoint
        ci, di = _count_hits(has_c.astype(np.float32), xs, ds, nb_n)
        removed = cs[ci] | ds[di]
        hit = np.ones(len(ci), dtype=bool)
        if survivor_cap:
            hit &= np.bitwise_count(survivor_cap & ~removed) <= _NEAR
        if removed_cap:
            hit &= np.bitwise_count(removed & removed_cap) <= _NEAR
        ci, di = ci[hit], di[hit]
        if not len(ci):
            continue
        x_bits = _bits(xs, n).astype(np.float32)
        step = max(1, _CELLS // len(xs))
        for s in range(0, len(ci), step):
            a, b = ci[s:s + step], di[s:s + step]
            # deg[j, e]: how many bases of M/C_a[j]\D_b[j] contain e
            avoid = (has_c[a] & ((xs & ds[b, None]) == 0)).astype(np.float32)
            deg = np.einsum("ij,jk->ik", avoid, x_bits)
            deg[_bits(cs[a], n) == 1] = 0  # C lies in every basis counted
            for j in np.flatnonzero(
                    (np.sort(deg, axis=1) == want_deg).all(1)).tolist():
                c, d = int(cs[a[j]]), int(ds[b[j]])
                mn = m.minor(c, d)
                if _memo((mn.table().tobytes(), n_key),
                         lambda: None if is_isomorphic(mn, n_mat) is None
                         else NLabelling(0, 0)) is not None:
                    yield NLabelling(c, d)


def has_minor(m: Matroid, n_mat: Matroid) -> NLabelling | None:
    """First labelling in canonical order, or None.  Memoised on the rank
    tables of both matroids.

    A table fixes n and the basis family (the bases are the r-sets X with
    r(X) = r), so the key is as fine as the basis family, and a memo hit
    derives no bases.  The memo holds these answers and the isomorphism
    verdicts of `labellings`, which are the answers for equal-size
    pairs."""
    return _memo((m.table().tobytes(), n_mat.table().tobytes()),
                 lambda: next(labellings(m, n_mat), None))


def verify_labelling(m: Matroid, n_mat: Matroid, lab: NLabelling) -> bool:
    if lab.contract & lab.delete:
        return False
    return is_isomorphic(m.minor(lab.contract, lab.delete), n_mat) is not None


def element_status(m: Matroid, n_mat: Matroid, e: int):
    """(contractible, deletable, doubly labelled) for the element e."""
    be = bit(e)
    con = has_minor(m.contract(be), n_mat) is not None
    dele = has_minor(m.delete(be), n_mat) is not None
    return con, dele, con and dele


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


def detachable_pairs(m: Matroid, n_mat: Matroid | None,
                     within: int | None = None,
                     first_only: bool = False) -> list[DetachableResult]:
    """Pairs whose double contraction or double deletion is 3-connected and
    (when n_mat is given) keeps an N-minor.  `within` restricts the scan to
    pairs inside a mask; n_mat=None disables the minor requirement."""
    out = []
    if m.n < 3:
        return out
    ids = elems(within) if within is not None else range(m.n)
    for x1, x2 in itertools.combinations(ids, 2):
        pair = bit(x1) | bit(x2)
        for mode in ("contract", "delete"):
            mm = m.contract(pair) if mode == "contract" else m.delete(pair)
            if not is_3_connected(mm):
                continue
            lab = None
            if n_mat is not None:
                found = has_minor(mm, n_mat)
                if found is None:
                    continue
                lab = found
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
    bd, be = bit(d), bit(e)
    t = m._ranks()
    hyp = any(t[bd | be | bit(c)] - t[bit(c)] == 1
              for c in elems(lab.contract & ~(bd | be)))
    if not hyp:
        raise HypothesisUnmet(
            f"{{{m.labels[d]},{m.labels[e]}}} is not a parallel pair in any "
            "single contraction from the labelling")

    def status(x):
        if lab.contract & x:
            return "contract"
        if lab.delete & x:
            return "delete"
        return "free"

    sd, se = status(bd), status(be)
    c2, d2 = lab.contract, lab.delete
    for b, status_other in ((bd, se), (be, sd)):
        c2 &= ~b
        d2 &= ~b
        if status_other == "contract":
            c2 |= b
        elif status_other == "delete":
            d2 |= b
    new = NLabelling(c2, d2)
    if not verify_labelling(m, n_mat, new):
        raise MatroidError("label switch produced an invalid labelling; "
                           "minor machinery is broken")
    return new

