"""Minor testing, labellings certifying a fixed minor, grounded triangles
and triads, and detachable-pair search (direct and after a single
delta-wye or wye-delta exchange).

The minor search scores candidate labellings in numpy batches over the
rank table, per contract set, and builds no `Matroid` per candidate; only
the candidates whose basis count and basis-degree multiset match reach the
isomorphism test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (Matroid, MatroidError, bit, elems, is_isomorphic,
                   popcount)
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


# (table bytes of M, table bytes of N[, region, max_meet]) -> the first
# labelling, or None
_minor_memo: dict = {}


def _memo(key, search):
    """The answer memoised under `key`, from `search()` on a miss."""
    if key not in _minor_memo:
        _minor_memo[key] = search()
    return _minor_memo[key]


# bound on the (C, D) pairs scored in one batch
_BATCH = 1 << 14


def _id_rows(combos: list[tuple[int, ...]], k: int) -> np.ndarray:
    """(len(combos), k) array of k-tuples of element ids."""
    return np.array(combos, dtype=np.int32).reshape(len(combos), k)


def _masks(ids: np.ndarray) -> np.ndarray:
    """Masks of the id tuples along the last axis of `ids`."""
    return (1 << ids).sum(-1, dtype=np.int32)


def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """(len(masks), n) 0/1 matrix of the elements of each mask."""
    return (masks[:, None] >> np.arange(n, dtype=np.int32)) & 1


def labellings(m: Matroid, n_mat: Matroid, required_contract: int = 0,
               required_delete: int = 0, excluded: int = 0,
               survivor_cap: tuple[int, int] | None = None,
               removed_cap: tuple[int, int] | None = None):
    """Generate every labelling (C, D) with M/C\\D isomorphic to N.

    C always has exactly r(M) - r(N) elements and D the rest of the size
    gap; this loses nothing since every minor has such a reduced form.
    `survivor_cap` = (region, k) keeps only labellings whose surviving
    ground set meets `region` in at most k elements; `removed_cap` bounds
    how many removed elements may fall in a region.

    The search is batched over M's rank table and builds no `Matroid` per
    candidate.  Contract sets C are taken in lex order, a block at a time,
    and every deletion set D of the block is scored at once: r(C) = |C|,
    the caps and r(E - D) = r(M).  Then, per contract set C, the bases of
    M/C\\D are the sets B - C for the bases B of M that contain C and miss
    D; the D whose basis count and basis-degree multiset match N's reach
    `is_isomorphic`, on the minor gathered from the table.

    The isomorphism verdict is memoised in `_minor_memo` on the tables of
    the minor and N, as the `has_minor` answer for that equal-size pair:
    NLabelling(0, 0) or None.
    """
    gap = m.n - n_mat.n
    kc = m.rank - n_mat.rank
    if gap < 0 or kc < 0 or gap < kc:
        return
    req_c = required_contract
    req_d = required_delete
    if req_c & excluded or req_d & excluded or popcount(req_c) > kc \
            or popcount(req_d) > gap - kc:
        return
    kc_free = kc - popcount(req_c)
    kd_free = gap - kc - popcount(req_d)
    c_pool = [i for i in range(m.n)
              if not ((excluded | req_c | req_d) >> i) & 1]
    if len(c_pool) < kc_free + kd_free:
        return
    cap_region, cap_k = survivor_cap or (0, 0)
    rem_region, rem_k = removed_cap or (0, 0)
    t = m.table()
    r, full = m.rank, m.full
    m_bases = np.array(m.bases, dtype=np.int32)
    pool = np.array(c_pool, dtype=np.int32)
    n_free = len(c_pool) - kc_free
    # D's positions in the pool left by C, the same for every C
    d_pos = _id_rows(list(itertools.combinations(range(n_free), kd_free)),
                     kd_free)
    n_bases = np.array(n_mat.bases, dtype=np.int32)
    n_key = n_mat.table().tobytes()
    want_deg = np.sort(np.concatenate([_bits(n_bases, n_mat.n).sum(0),
                                       np.zeros(gap, dtype=np.int64)]))
    c_combos = itertools.combinations(c_pool, kc_free)
    while chunk := list(itertools.islice(c_combos,
                                         max(1, _BATCH // len(d_pos)))):
        cs = req_c | _masks(_id_rows(chunk, kc_free))
        ok = t[cs] == kc
        if removed_cap:
            ok &= np.bitwise_count(cs & rem_region) <= rem_k
        cs = cs[ok]
        outside = ((cs[:, None] >> pool) & 1) == 0
        left = np.broadcast_to(pool, outside.shape)[outside] \
            .reshape(len(cs), n_free)
        ds = req_d | _masks(left[:, d_pos])
        ok = t[full ^ ds] == r
        if survivor_cap:
            ok &= np.bitwise_count(cap_region & ~(cs[:, None] | ds)) <= cap_k
        if removed_cap:
            ok &= np.bitwise_count((cs[:, None] | ds) & rem_region) <= rem_k
        for i in np.flatnonzero(ok.any(1)).tolist():
            c = int(cs[i])
            d_c = ds[i][ok[i]]
            xs = m_bases[(m_bases & c) == c] ^ c
            # avoid[j, k]: X_k misses D_j, so it is a basis of M/C\D_j
            avoid = (d_c[:, None] & xs) == 0
            hit = avoid.sum(1) == len(n_bases)
            deg = avoid[hit].astype(np.int32) @ _bits(xs, m.n)
            for d in d_c[hit][(np.sort(deg, axis=1) == want_deg).all(1)] \
                    .tolist():
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
    derives no bases.  The memo holds these answers, the answers of
    `has_minor_avoiding` under keys that also carry the cap, and the
    isomorphism verdicts of `labellings`, which are the answers for
    equal-size pairs."""
    return _memo((m.table().tobytes(), n_mat.table().tobytes()),
                 lambda: next(labellings(m, n_mat), None))


def has_minor_avoiding(m: Matroid, n_mat: Matroid, region: int,
                       max_meet: int) -> NLabelling | None:
    """First labelling whose surviving copy meets `region` in at most
    `max_meet` elements.  Memoised like `has_minor`."""
    return _memo((m.table().tobytes(), n_mat.table().tobytes(), region,
                  max_meet),
                 lambda: next(labellings(m, n_mat,
                                         survivor_cap=(region, max_meet)),
                              None))


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
    for tri in triangles(m):
        m2 = delta_wye(m, tri)
        for res in detachable_pairs(m2, n_mat, first_only=first_only):
            out.append(DetachableResult(res.pair, res.mode,
                                        "after-delta-wye", tri, res.labelling))
            if first_only:
                return out
    for trd in triads(m):
        m2 = wye_delta(m, trd)
        for res in detachable_pairs(m2, n_mat, first_only=first_only):
            out.append(DetachableResult(res.pair, res.mode,
                                        "after-wye-delta", trd, res.labelling))
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

