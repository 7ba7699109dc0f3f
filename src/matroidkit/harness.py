"""Executable property checks: a registry of structural facts verified
exhaustively over the corpus, theorem-level verifiers, and replays of the
two counterexample constructions."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import (Matroid, MatroidError, _popcount_table, bit, elems,
                   is_isomorphic, mask_of, popcount, submasks)
from .connectivity import (_k_separating, _lambda_all, is_3_connected,
                           is_connected, lambda_, lambda_minus, full_closure,
                           vertical_3_separations, cyclic_3_separations)
from .structures import (detect_elongated_quad, detect_skew_whiff,
                         detect_spike_like, detect_twisted_cube_like,
                         fans, flans, segments, triangles, triads)
from .minors import (HypothesisUnmet, all_triples_grounded,
                     detachable_after_exchange, detachable_pairs,
                     grounded_triangles, has_minor, labellings,
                     switch_labels)
from .builders import fano, nonfano, spiked_fano, twisted_cube_matroid, wheel, whirl
from .corpus import generate_corpus


class ConstructionFailed(MatroidError):
    pass


@dataclass
class Verdict:
    check: str
    instance: str
    outcome: str           # "pass" | "fail" | "vacuous"
    exercised: int = 0
    witness: object = None
    millis: int = 0

    def line(self) -> str:
        w = "" if self.witness is None else f" witness={self.witness}"
        return (f"check={self.check} instance={self.instance} "
                f"outcome={self.outcome} exercised={self.exercised}"
                f"{w} millis={self.millis}")


# ---------------------------------------------------------------------------
# helpers

def _timed(fn, *args):
    """fn(*args), and the whole milliseconds it took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, int((time.perf_counter() - t0) * 1000)


def shrink_mask(violates, mask: int) -> int:
    """Greedily drop elements from a failing witness while the violation
    predicate keeps holding; returns a minimal witness mask."""
    changed = True
    while changed:
        changed = False
        for e in elems(mask):
            smaller = mask ^ bit(e)
            if violates(smaller):
                mask = smaller
                changed = True
    return mask


def _si(m: Matroid, e: int) -> Matroid:
    return m.contract(bit(e)).simplify()[0]


def _co(m: Matroid, e: int) -> Matroid:
    return m.delete(bit(e)).cosimplify()[0]


def _in_cl(m: Matroid, s: int, e: int) -> bool:
    t = m._ranks()
    return bool(s >> e & 1) or t[s | bit(e)] == t[s]


def _in_cocl(m: Matroid, s: int, e: int) -> bool:
    return _in_cl(m.dual(), s, e)


def is_wheel_or_whirl(m: Matroid) -> bool:
    if m.n != 2 * m.rank or m.rank < 2:
        return False
    w = wheel(m.rank)
    if is_isomorphic(m, w) is not None:
        return True
    return is_isomorphic(m, whirl(m.rank)) is not None


def _u3k_planes(m: Matroid, k: int):
    """The k-sets P, in lex order, with M|P = U_{3,k}: r(P) = 3 and every
    3-subset of P is a basis."""
    t = m._ranks()
    for combo in itertools.combinations(range(m.n), k):
        p = mask_of(combo)
        if t[p] == 3 and all(t[mask_of(c)] == 3
                             for c in itertools.combinations(combo, 3)):
            yield p


def _fan_ends(m: Matroid):
    """(fan, end, the end's type) for both ends of every maximal fan of at
    least four elements; none unless M is 3-connected, has at least four
    elements and is neither a wheel nor a whirl."""
    if not is_3_connected(m) or m.n < 4 or is_wheel_or_whirl(m):
        return
    for rec in fans(m):
        if len(rec.elements) >= 4:
            for i in (0, -1):
                yield rec.elements, rec.elements[i], rec.types[i]


# ---------------------------------------------------------------------------
# matroid-level checks.  Each returns (exercised, witness-or-None).

def check_uncrossing(m):
    if not is_3_connected(m):
        return 0, None
    lam = _lambda_all(m)
    pc = _popcount_table(m.n).astype(np.int16)
    sep = np.nonzero(lam <= 2)[0]
    n = m.n
    exercised = 0
    for x in sep:
        inter = pc[sep & x]
        union = sep | x
        c1 = inter >= 2
        exercised += int(c1.sum())
        if bool((c1 & (lam[union] > 2)).any()):
            y = int(sep[np.nonzero(c1 & (lam[union] > 2))[0][0]])
            return exercised, (int(x), y, "union")
        c2 = (n - pc[union]) >= 2
        exercised += int(c2.sum())
        if bool((c2 & (lam[sep & x] > 2)).any()):
            y = int(sep[np.nonzero(c2 & (lam[sep & x] > 2))[0][0]])
            return exercised, (int(x), y, "intersection")
    return exercised, None


def check_closure_complement_swap(m):
    dual = m.dual()
    t = m._ranks()
    td = dual._ranks()
    exercised = 0
    for e in range(m.n):
        be = bit(e)
        rest = m.full ^ be
        for x in submasks(rest):
            y = rest ^ x
            in_cl = t[x | be] == t[x]
            in_cocl = td[y | be] == td[y]
            exercised += 1
            if in_cl == in_cocl:
                return exercised, (e, x)
    return exercised, None


def check_step_extension(m):
    if not is_3_connected(m):
        return 0, None
    lam = _lambda_all(m)
    exercised = 0
    for x in np.flatnonzero(lam == 2).tolist():
        for e in elems(m.full ^ x):
            exercised += 1
            grows = lam[x | bit(e)] <= 2
            attached = _in_cl(m, x, e) or _in_cocl(m, x, e)
            if grows != attached:
                return exercised, (x, e)
    return exercised, None


def check_boundary_attachment(m):
    if not is_3_connected(m):
        return 0, None
    lam = _lambda_all(m)
    exercised = 0
    for x in np.flatnonzero((lam == 2) & (_popcount_table(m.n) >= 3)).tolist():
        for e in elems(x):
            exercised += 1
            if not (_in_cl(m, x ^ bit(e), e) or _in_cocl(m, x ^ bit(e), e)):
                return exercised, (x, e)
    return exercised, None


def check_guts_coguts_step(m):
    if not is_3_connected(m):
        return 0, None
    lam = _lambda_all(m)
    exercised = 0
    for x in np.flatnonzero((lam == 2) & (_popcount_table(m.n) >= 3)).tolist():
        y = m.full ^ x
        for e in elems(x):
            rest = x ^ bit(e)
            exercised += 1
            step_exact = lam[rest] == 2
            guts = _in_cl(m, rest, e) and _in_cl(m, y, e)
            coguts = _in_cocl(m, rest, e) and _in_cocl(m, y, e)
            if step_exact != (guts or coguts):
                return exercised, (x, e)
    return exercised, None


def check_contraction_vertical_split(m):
    if not is_3_connected(m) or m.n < 4:
        return 0, None
    trips = vertical_3_separations(m)
    with_z = {z for (_, z, _) in trips}
    exercised = 0
    for z in range(m.n):
        exercised += 1
        si_ok = is_3_connected(_si(m, z))
        if (z in with_z) == si_ok:
            return exercised, z
    return exercised, None


def _simple_cosimple(m):
    t = m._ranks()
    for e in range(m.n):
        if t[bit(e)] == 0 or m.corank_of(bit(e)) == 0:
            return False
    for e, f in itertools.combinations(range(m.n), 2):
        p = bit(e) | bit(f)
        if t[p] == 1 or m.corank_of(p) == 1:
            return False
    return True


def check_full_closure_two_separation(m):
    if not is_connected(m) or m.n < 4 or not _simple_cosimple(m):
        return 0, None
    lam = _lambda_all(m)
    exercised = 0
    for x in np.flatnonzero(_k_separating(m, 2)).tolist():
        exercised += 1
        f = full_closure(m, x)
        rest = m.full ^ f
        if lam[f] > 1 or popcount(f) < 2 or popcount(rest) < 2:
            return exercised, x
    return exercised, None


def check_guts_coguts_disjoint(m):
    if not is_3_connected(m):
        return 0, None
    lam = _lambda_all(m)

    def violates(x):
        return (lam[x] <= 2 and popcount(x) >= 3
                and m.n - popcount(x) >= 3
                and m.closure(x) & m.coclosure(x) & (m.full ^ x))

    exercised = 0
    for x in np.flatnonzero(_k_separating(m, 3)).tolist():
        exercised += 1
        if violates(x):
            return exercised, shrink_mask(violates, x)
    return exercised, None


def check_segment_deletion(m):
    if not is_3_connected(m):
        return 0, None
    exercised = 0
    for s in segments(m):
        if popcount(s) < 4:
            continue
        for e in elems(s):
            exercised += 1
            if not is_3_connected(m.delete(bit(e))):
                return exercised, (s, e)
    return exercised, None


def check_one_side_stays_connected(m):
    if not is_3_connected(m) or m.n < 4:
        return 0, None
    exercised = 0
    for e in range(m.n):
        exercised += 1
        if not (is_3_connected(_co(m, e)) or is_3_connected(_si(m, e))):
            return exercised, e
    return exercised, None


def check_triangle_deletion_triad(m):
    if not is_3_connected(m) or m.n < 4:
        return 0, None
    trds = triads(m)
    exercised = 0
    for t in triangles(m):
        ids = elems(t)
        for a in ids:
            for b in ids:
                if b == a:
                    continue
                if is_3_connected(m.delete(bit(a))) or \
                        is_3_connected(m.delete(bit(b))):
                    continue
                exercised += 1
                c = (t ^ bit(a) ^ bit(b)).bit_length() - 1
                ok = any((td >> a & 1) and
                         (td >> b & 1) != (td >> c & 1) and
                         ((td >> b & 1) or (td >> c & 1))
                         for td in trds)
                if not ok:
                    return exercised, (t, a, b)
    return exercised, None


def _rank3_cocircuits(m):
    t = m._ranks()
    return [c for c in m.cocircuits() if t[c] == 3]


def check_rank3_cocircuit_contraction(m):
    if not is_3_connected(m) or m.n < 5:
        return 0, None
    t = m._ranks()
    exercised = 0
    for cstar in _rank3_cocircuits(m):
        for x in elems(cstar):
            s = m.closure(cstar) ^ bit(x)
            bx = bit(x)
            has_tri = False
            for combo in itertools.combinations(elems(s), 3):
                tri = mask_of(combo)
                if t[tri | bx] == 3 and all(
                        t[mask_of(pq) | bx] == 3
                        for pq in itertools.combinations(combo, 2)):
                    has_tri = True
                    break
            if not has_tri:
                continue
            exercised += 1
            if not is_3_connected(_si(m, x)):
                return exercised, (cstar, x)
    return exercised, None


def check_rank3_cocircuit_deletion(m):
    if not is_3_connected(m) or m.rank < 4:
        return 0, None
    t = m._ranks()
    exercised = 0
    for cstar in _rank3_cocircuits(m):
        for x in elems(cstar):
            if t[cstar] != t[cstar ^ bit(x)]:
                continue
            exercised += 1
            if not is_3_connected(_co(m, x)):
                return exercised, (cstar, x)
    return exercised, None


def check_closure_meets_once(m):
    if not is_3_connected(m):
        return 0, None
    lam = _lambda_all(m)

    def violates(x):
        if lam[x] > 2 or popcount(x) < 3 or m.n - popcount(x) < 3:
            return False
        y = m.full ^ x
        a = x & m.closure(y)
        b = x & m.coclosure(y)
        return a and b and (popcount(a) != 1 or popcount(b) != 1)

    exercised = 0
    for x in np.flatnonzero(_k_separating(m, 3)).tolist():
        if x & m.closure(m.full ^ x) and x & m.coclosure(m.full ^ x):
            exercised += 1
            if violates(x):
                return exercised, shrink_mask(violates, x)
    return exercised, None


def check_fan_end_removal(m):
    exercised = 0
    for fan, f, kind in _fan_ends(m):
        exercised += 1
        if kind == "spoke":
            ok = is_3_connected(_co(m, f)) and not is_3_connected(_si(m, f))
        else:
            ok = is_3_connected(_si(m, f)) and not is_3_connected(_co(m, f))
        if not ok:
            return exercised, (fan, f)
    return exercised, None


def check_maximal_fan_end_removal(m):
    exercised = 0
    for fan, f, kind in _fan_ends(m):
        exercised += 1
        target = m.delete(bit(f)) if kind == "spoke" else m.contract(bit(f))
        if not is_3_connected(target):
            return exercised, (fan, f)
    return exercised, None


def check_quad_cocircuit_contraction(m):
    if not is_3_connected(m) or m.n < 5:
        return 0, None
    tris = triangles(m)
    in_tri = 0
    for t in tris:
        in_tri |= t
    exercised = 0
    for cstar in m.cocircuits():
        if popcount(cstar) != 4:
            continue
        if popcount(cstar & ~in_tri) < 2:
            continue
        exercised += 1
        if not any(is_3_connected(m.contract(bit(c))) for c in elems(cstar)):
            return exercised, cstar
    return exercised, None


def check_plane_external_deletion(m):
    if not is_3_connected(m):
        return 0, None
    exercised = 0
    for p in _u3k_planes(m, 5):
        for e in elems(m.closure(p) ^ p):
            exercised += 1
            if not is_3_connected(m.delete(bit(e))):
                return exercised, (p, e)
    return exercised, None


def check_plane_with_triad_deletion(m):
    if not is_3_connected(m) or m.n < 6:
        return 0, None
    trds = triads(m)
    exercised = 0
    for p in _u3k_planes(m, 5):
        for tstar in trds:
            if tstar & p != tstar:
                continue
            for e in elems(p ^ tstar):
                exercised += 1
                if not is_3_connected(m.delete(bit(e))):
                    return exercised, (p, tstar, e)
    return exercised, None


def check_hinged_plane_deletion_pairs(m):
    if not is_3_connected(m):
        return 0, None
    trds = triads(m)
    tris = triangles(m)
    exercised = 0
    for p in _u3k_planes(m, 5):
        clp = m.closure(p)
        if any(t & clp == t for t in tris):
            continue
        if any(t & p == t for t in trds):
            continue
        for e in elems(p):
            if is_3_connected(m.delete(bit(e))):
                continue
            exercised += 1
            rest = elems(p ^ bit(e))
            ok = False
            for i in range(1, 4):
                pair = (rest[0], rest[i])
                other = tuple(x for x in rest if x not in pair)
                if all(is_3_connected(m.delete(bit(u) | bit(v)))
                       for u in pair for v in other):
                    ok = True
                    break
            if not ok:
                return exercised, (p, e)
    return exercised, None


def check_six_point_plane_pairs(m):
    # stated for a U_{3,6}-restriction with triangle-free closure; the
    # degenerate case E(M) = P is excluded (see decisions ledger)
    if not is_3_connected(m) or m.n < 7:
        return 0, None
    tris = triangles(m)
    exercised = 0
    for p in _u3k_planes(m, 6):
        clp = m.closure(p)
        if any(t & clp == t for t in tris):
            continue
        for xcombo in itertools.combinations(elems(p), 4):
            exercised += 1
            if not any(is_3_connected(m.delete(bit(x1) | bit(x2)))
                       for x1, x2 in itertools.combinations(xcombo, 2)):
                return exercised, (p, xcombo)
    return exercised, None


def check_flan_contraction(m):
    if not is_3_connected(m):
        return 0, None
    tris = triangles(m)
    in_tri = 0
    for t in tris:
        in_tri |= t
    exercised = 0
    for rec in flans(m):
        seq = rec.elements
        t_len = len(seq)
        if t_len < 5 or t_len == m.n:
            continue
        for i in (0, 1, 2):
            fi = seq[i]
            if in_tri >> fi & 1:
                continue
            for jpos in range(4, t_len, 2):   # odd j in 1-based order
                fj = seq[jpos]
                if in_tri >> fj & 1:
                    continue
                exercised += 1
                pair = bit(fi) | bit(fj)
                if not (is_3_connected(m.contract(bit(fi)))
                        and is_3_connected(m.contract(bit(fj)))
                        and is_3_connected(m.contract(pair).simplify()[0])):
                    return exercised, (seq, fi, fj, "si")
                j_1based = jpos + 1
                if (j_1based >= 7 or t_len == 5) and \
                        not is_3_connected(m.contract(pair)):
                    return exercised, (seq, fi, fj, "contract-pair")
    return exercised, None


MATROID_CHECKS = [
    ("uncrossing", check_uncrossing, 11),
    ("closure-complement-swap", check_closure_complement_swap, 11),
    ("step-extension", check_step_extension, 12),
    ("boundary-attachment", check_boundary_attachment, 12),
    ("guts-coguts-step", check_guts_coguts_step, 12),
    ("contraction-vertical-split", check_contraction_vertical_split, 12),
    ("full-closure-two-separation", check_full_closure_two_separation, 12),
    ("guts-coguts-disjoint", check_guts_coguts_disjoint, 12),
    ("segment-deletion", check_segment_deletion, 12),
    ("one-side-stays-connected", check_one_side_stays_connected, 12),
    ("triangle-deletion-triad", check_triangle_deletion_triad, 12),
    ("rank3-cocircuit-contraction", check_rank3_cocircuit_contraction, 12),
    ("rank3-cocircuit-deletion", check_rank3_cocircuit_deletion, 12),
    ("closure-meets-once", check_closure_meets_once, 12),
    ("fan-end-removal", check_fan_end_removal, 12),
    ("maximal-fan-end-removal", check_maximal_fan_end_removal, 12),
    ("quad-cocircuit-contraction", check_quad_cocircuit_contraction, 12),
    ("plane-external-deletion", check_plane_external_deletion, 13),
    ("plane-with-triad-deletion", check_plane_with_triad_deletion, 13),
    ("hinged-plane-deletion-pairs", check_hinged_plane_deletion_pairs, 13),
    ("six-point-plane-pairs", check_six_point_plane_pairs, 12),
    ("flan-contraction", check_flan_contraction, 12),
]


# ---------------------------------------------------------------------------
# (M, N) checks

def check_grounded_triangle_contraction(m, n_mat):
    if not (is_3_connected(m) and is_3_connected(n_mat)):
        return 0, None
    if n_mat.n < 4 or has_minor(m, n_mat) is None:
        return 0, None
    exercised = 0
    for t in grounded_triangles(m, n_mat):
        for x in elems(t):
            exercised += 1
            if has_minor(m.contract(bit(x)), n_mat) is not None:
                return exercised, (t, x)
    return exercised, None


def check_two_separation_minor_side(m, n_mat):
    if not is_connected(m) or not is_3_connected(n_mat):
        return 0, None
    if has_minor(m, n_mat) is None:
        return 0, None
    exercised = 0
    seen = set()
    for x in np.flatnonzero(_k_separating(m, 2)).tolist():
        y = m.full ^ x
        if y in seen:
            continue
        seen.add(x)
        exercised += 1

        def side_ok(u):
            got = next(labellings(m, n_mat, survivor_cap=u), None)
            if got is None:
                return False
            for e in elems(u):
                mc = m.contract(bit(e))
                if is_connected(mc) and has_minor(mc, n_mat) is None:
                    return False
                md = m.delete(bit(e))
                if is_connected(md) and has_minor(md, n_mat) is None:
                    return False
            return True

        if not (side_ok(x) or side_ok(y)):
            return exercised, x
    return exercised, None


def check_cyclic_separation_labels(m, n_mat):
    if not (is_3_connected(m) and is_3_connected(n_mat)):
        return 0, None
    if n_mat.n < 4 or has_minor(m, n_mat) is None:
        return 0, None
    exercised = 0
    for xa, z, ya in cyclic_3_separations(m):
        for x, y in ((xa, ya), (ya, xa)):
            bz = bit(z)
            mz = m.delete(bz)
            region = m.compress(x, bz)
            if next(labellings(mz, n_mat, survivor_cap=region), None) is None:
                continue
            exercised += 1
            cocly = m.coclosure(y)
            xp = x & ~cocly
            yp = cocly & ~bz
            for e in elems(xp):
                if has_minor(m.delete(bit(e)), n_mat) is None:
                    return exercised, (x, z, "deletable", e)
            bad = [e for e in elems(m.coclosure(x) & ~bz)
                   if has_minor(m.contract(bit(e)), n_mat) is None]
            if len(bad) > 1:
                return exercised, (x, z, "contractible", tuple(bad))
            if bad:
                e = bad[0]
                ok = (xp >> e & 1) and _in_cl(m, yp, e) and \
                    _in_cocl(m, xp ^ bit(e), z)
                if not ok:
                    return exercised, (x, z, "exception-element", e)
    return exercised, None


def check_parallel_label_switch(m, n_mat):
    if n_mat.n < 4 or not (is_3_connected(m) and is_3_connected(n_mat)):
        return 0, None
    lab = has_minor(m, n_mat)
    if lab is None:
        return 0, None
    t = m._ranks()
    exercised = 0
    for c in elems(lab.contract):
        bc = bit(c)
        for d, e in itertools.combinations(range(m.n), 2):
            if d == c or e == c:
                continue
            if t[bit(d) | bit(e) | bc] - t[bc] != 1:
                continue
            exercised += 1
            try:
                switch_labels(m, n_mat, lab, d, e)
            except HypothesisUnmet:
                return exercised, (c, d, e, "hypothesis")
            except MatroidError:
                return exercised, (c, d, e, "invalid-switch")
            if exercised >= 20:
                return exercised, None
    return exercised, None


PAIR_CHECKS = [
    ("grounded-triangle-contraction", check_grounded_triangle_contraction, 12),
    ("two-separation-minor-side", check_two_separation_minor_side, 10),
    ("cyclic-separation-labels", check_cyclic_separation_labels, 11),
    ("parallel-label-switch", check_parallel_label_switch, 12),
]


def run_lemma_registry(corpus=None, seed: int = 0,
                       max_n: int = 12) -> list[Verdict]:
    """Run every registry check on every corpus instance within its size cap.

    A check that never meets its hypothesis on an instance reports
    `vacuous`; a conclusion failure reports `fail` with a witness."""
    if corpus is None:
        corpus = generate_corpus(seed, max_n=16)
    out = []
    for name, fn, cap in MATROID_CHECKS:
        for entry in corpus:
            if entry.matroid.n > cap:
                continue
            out.append(_check_verdict(name, entry.name, fn, entry.matroid))
    small = [e for e in corpus if e.matroid.n <= max_n]
    for name, fn, cap in PAIR_CHECKS:
        for em in small:
            if em.matroid.n > cap:
                continue
            for en in small:
                if en.matroid.n < 4 or en.matroid.n > em.matroid.n:
                    continue
                if en.matroid.n == em.matroid.n and en.name != em.name:
                    continue
                out.append(_check_verdict(name, f"{em.name}|{en.name}", fn,
                                          em.matroid, en.matroid))
    return out


def _check_verdict(check, instance, fn, *args) -> Verdict:
    """The verdict of a registry check `fn` on `args`, timed."""
    (exercised, witness), ms = _timed(fn, *args)
    outcome = ("fail" if witness is not None
               else "pass" if exercised else "vacuous")
    return Verdict(check, instance, outcome, exercised, witness, ms)


def registry_summary(verdicts) -> dict:
    agg: dict = {}
    for v in verdicts:
        a = agg.setdefault(v.check, {"pass": 0, "fail": 0, "vacuous": 0,
                                     "exercised": 0})
        a[v.outcome] += 1
        a["exercised"] += v.exercised
    return agg


# ---------------------------------------------------------------------------
# theorem verifiers

def _branch_verdict(check, search, *args, miss="no branch") -> Verdict:
    """Pass with the branch that `search(*args)` returns, or fail with
    `miss` when it returns None; `millis` times the search."""
    branch, ms = _timed(search, *args)
    if branch is None:
        return Verdict(check, "", "fail", 1, miss, ms)
    return Verdict(check, "", "pass", 1, branch, ms)


def verify_theorem_triangles(m: Matroid, n_mat: Matroid) -> Verdict:
    """Trichotomy: a detachable pair, a detachable pair after one exchange,
    or every triangle and triad grounded."""
    if not (is_3_connected(m) and is_3_connected(n_mat)):
        raise HypothesisUnmet("both matroids must be 3-connected")
    if n_mat.n < 4 or m.n - n_mat.n < 5:
        raise HypothesisUnmet("need |E(N)| >= 4 and a size gap of at least 5")
    if has_minor(m, n_mat) is None:
        raise HypothesisUnmet("N is not a minor of M")
    return _branch_verdict("theorem-triangles", _triangles_branch, m, n_mat)


def _triangles_branch(m: Matroid, n_mat: Matroid) -> str | None:
    if detachable_pairs(m, n_mat, first_only=True):
        return "detachable-pair"
    if all_triples_grounded(m, n_mat):
        return "all-grounded"
    if detachable_after_exchange(m, n_mat, first_only=True):
        return "detachable-after-exchange"
    return None


def _spike_branch(m: Matroid, n_mat: Matroid) -> bool:
    lam = _lambda_all(m)
    pc = _popcount_table(m.n)
    cand = np.nonzero((lam == 2) & (pc >= 6) & (pc % 2 == 0)
                      & (pc <= m.n - 1))[0]
    for p in cand:
        p = int(p)
        if detect_spike_like(m, p) is None:
            continue
        outside = m.full ^ p
        if next(labellings(m, n_mat, removed_cap=outside), None):
            return True
    return False


def verify_theorem_main(m: Matroid, n_mat: Matroid) -> Verdict:
    """Detachable pair, detachable pair after one exchange, or a spike-like
    separator absorbing all but at most one removed element."""
    if not (is_3_connected(m) and is_3_connected(n_mat)):
        raise HypothesisUnmet("both matroids must be 3-connected")
    if n_mat.n < 4 or m.n - n_mat.n < 10:
        raise HypothesisUnmet("need |E(N)| >= 4 and a size gap of at least 10")
    return _branch_verdict("theorem-main", _main_branch, m, n_mat)


def _main_branch(m: Matroid, n_mat: Matroid) -> str | None:
    # the spike branch searches a constrained labelling, so a hit also
    # certifies the minor hypothesis; check it first to keep large
    # instances off the unconstrained minor search
    if _spike_branch(m, n_mat):
        return "spike-like-separator"
    if has_minor(m, n_mat) is None:
        raise HypothesisUnmet("N is not a minor of M")
    if detachable_pairs(m, n_mat, first_only=True):
        return "detachable-pair"
    if detachable_after_exchange(m, n_mat, first_only=True):
        return "detachable-after-exchange"
    return None


def _is_flan_ordering(m: Matroid, seq) -> bool:
    trds = set(triads(m))
    if len(seq) < 4:
        return False
    for i in range(0, len(seq) - 2, 2):
        if mask_of(seq[i:i + 3]) not in trds:
            return False
    for i in range(3, len(seq), 2):
        if not _in_cl(m, mask_of(seq[:i]), seq[i]):
            return False
    return True


def verify_flan_corollary(m: Matroid, n_mat: Matroid, d: int,
                          flan_order) -> Verdict:
    """After deleting d there is a flan of length >= 5 whose fifth element
    is deletable keeping the minor: then either a detachable pair exists or
    the flan plus d is one of the three special separators."""
    if not (is_3_connected(m) and is_3_connected(n_mat)) or n_mat.n < 4:
        raise HypothesisUnmet("both matroids must be 3-connected, |E(N)| >= 4")
    if not all_triples_grounded(m, n_mat):
        raise HypothesisUnmet("a triangle or triad is not grounded")
    bd = bit(d)
    if d in flan_order:
        raise HypothesisUnmet("d cannot lie on the flan")
    md = m.delete(bd)
    if not is_3_connected(md):
        raise HypothesisUnmet("M \\ d is not 3-connected")
    seq_md = [m.compress(bit(e), bd).bit_length() - 1 for e in flan_order]
    if len(flan_order) < 5 or not _is_flan_ordering(md, seq_md):
        raise HypothesisUnmet("not a flan ordering of length >= 5 in M \\ d")
    f5 = flan_order[4]
    md5 = m.delete(bd | bit(f5))
    region = m.compress(mask_of(flan_order[:4]), bd | bit(f5))
    if next(labellings(md5, n_mat, survivor_cap=region), None) is None:
        raise HypothesisUnmet(
            "M\\d\\f5 lacks an N-minor nearly avoiding the flan start")
    return _branch_verdict("flan-corollary", _flan_branch, m, n_mat,
                           mask_of(flan_order[:5]) | bd)


def _flan_branch(m: Matroid, n_mat: Matroid, p: int) -> str | None:
    if detachable_pairs(m, n_mat, first_only=True):
        return "detachable-pair"
    if lambda_(m, p) != 2:
        return None
    if detect_skew_whiff(m, p):
        return "skew-whiff"
    if detect_elongated_quad(m, p):
        return "elongated-quad"
    if detect_twisted_cube_like(m.dual(), p):
        return "twisted-cube-like-dual"
    return None


def _is_cyclic_triple(m: Matroid, x: int, z: int, y: int) -> bool:
    d = m.dual()
    t = d._ranks()
    bz = bit(z)
    if x | y | bz != m.full or popcount(x) < 3 or popcount(y) < 3:
        return False
    if t[x] < 3 or t[y] < 3:
        return False
    if t[x] + t[y | bz] - d.rank > 2 or t[x | bz] + t[y] - d.rank > 2:
        return False
    return t[x | bz] == t[x] and t[y | bz] == t[y]


def verify_foundation(m: Matroid, n_mat: Matroid, d: int, dp: int,
                      y: int, z: int) -> Verdict:
    """Main structural outcome: inside Y there is a 3-separating X of size
    at least 4 that either completes (with one coguts element and d) to a
    special separator, or all of whose elements survive both removals and
    stay doubly labelled.

    Checks every hypothesis: first those on the pair (M, N) (both
    3-connected, |E(N)| >= 4, every triangle and triad N-grounded, no
    N-detachable pair), then those on the instance (d, d', Y); raises
    `HypothesisUnmet` at the first that fails."""
    if not (is_3_connected(m) and is_3_connected(n_mat)) or n_mat.n < 4:
        raise HypothesisUnmet("both matroids must be 3-connected, |E(N)| >= 4")
    if not all_triples_grounded(m, n_mat):
        raise HypothesisUnmet("a triangle or triad is not grounded")
    if detachable_pairs(m, n_mat, first_only=True):
        raise HypothesisUnmet("M has an N-detachable pair")
    return _foundation_outcome(m, n_mat, d, dp, y, z)


def _foundation_outcome(m: Matroid, n_mat: Matroid, d: int, dp: int,
                        y: int, z: int) -> Verdict:
    """`verify_foundation` once the hypotheses on (M, N) hold: checks those
    on the instance (d, d', Y), then decides the outcome."""
    bd = bit(d)
    md = m.delete(bd)
    if not is_3_connected(md):
        raise HypothesisUnmet("M \\ d is not 3-connected")
    ym = m.compress(y, bd)
    zm = m.compress(z, bd)
    dpm = m.compress(bit(dp), bd).bit_length() - 1
    if not _is_cyclic_triple(md, ym, dpm, zm) or popcount(y) < 4:
        raise HypothesisUnmet("(Y, {d'}, Z) is not a cyclic 3-separation "
                              "of M \\ d with |Y| >= 4")
    mdd = m.delete(bd | bit(dp))
    region = m.compress(y, bd | bit(dp))
    if next(labellings(mdd, n_mat, survivor_cap=region), None) is None:
        raise HypothesisUnmet("M\\d\\d' lacks an N-minor nearly avoiding Y")
    return _branch_verdict("foundation", _qualifying_x, m, n_mat, bd, md, y,
                           miss="no qualifying X")


def _qualifying_x(m: Matroid, n_mat: Matroid, bd: int, md: Matroid,
                  y: int) -> str | None:
    """How the first qualifying X inside Y qualifies, or None."""
    yids = elems(y)
    for size in range(4, len(yids) + 1):
        for combo in itertools.combinations(yids, size):
            x = mask_of(combo)
            if lambda_minus(m, bd, x) > 2:
                continue
            if size == 4:
                xm = m.compress(x, bd)
                for c in elems(m.expand(md.coclosure(xm) & ~xm, bd)):
                    p = x | bit(c) | bd
                    if lambda_(m, p) == 2 and (
                            detect_elongated_quad(m, p)
                            or detect_skew_whiff(m, p)
                            or detect_twisted_cube_like(m.dual(), p)):
                        return "special-separator"
            if all(is_3_connected(md.delete(be).cosimplify()[0])
                   and is_3_connected(md.contract(be))
                   and has_minor(md.delete(be), n_mat) is not None
                   and has_minor(md.contract(be), n_mat) is not None
                   for be in (m.compress(bit(e), bd) for e in elems(x))):
                return "all-elements-good"
    return None


# ---------------------------------------------------------------------------
# construction replays

def _need(cond, what):
    if not cond:
        raise ConstructionFailed(what)


def verify_construction_twisted() -> Verdict:
    _, ms = _timed(_replay_twisted)
    return Verdict("construction-twisted", "twistedcube", "pass", 10, None, ms)


def _replay_twisted():
    m = twisted_cube_matroid()
    nf = nonfano()
    _need(m.n == 12, "ground set size is 12")
    _need(is_3_connected(m), "3-connected")
    _need(m.n - nf.n == 5, "size gap is 5")
    c = m.set_of(["p1"])
    dset = m.set_of(["s1", "s2", "p2", "q2"])
    _need(is_isomorphic(m.minor(c, dset), nf) is not None,
          "contracting p1 and deleting {s1,s2,p2,q2} yields the non-Fano")
    x = m.set_of(["p1", "p2", "q1", "q2", "s1", "s2"])
    _need(detect_twisted_cube_like(m, x) is not None,
          "X is a twisted cube-like 3-separator")
    for e in elems(m.full ^ x):
        _need(has_minor(m.delete(bit(e)), nf) is None,
              f"M \\ {m.labels[e]} has no non-Fano minor")
        _need(has_minor(m.contract(bit(e)), nf) is None,
              f"M / {m.labels[e]} has no non-Fano minor")
    pure = detachable_pairs(m, None, within=x)
    want = {(frozenset(m.label_list(mask_of(r.pair))), r.mode) for r in pure}
    _need(want == {(frozenset(["p1", "q2"]), "delete"),
                   (frozenset(["p2", "q1"]), "delete")},
          "detachable pairs inside X are exactly the two deletion pairs")
    _need(not detachable_pairs(m, nf), "no N-detachable pairs")
    _need(not detachable_after_exchange(m, nf),
          "no N-detachable pairs after one exchange")


def verify_construction_spike(r: int = 4, include_free: bool = True) -> Verdict:
    exercised, ms = _timed(_replay_spike, r, include_free)
    return Verdict("construction-spike", f"spikedfano-{r}", "pass",
                   exercised, None, ms)


def _replay_spike(r: int, include_free: bool) -> int:
    """The spiked-Fano checks on each variant; how many ran."""
    f7 = fano()
    exercised = 0
    variants = [False, True] if include_free else [False]
    for free in variants:
        m = spiked_fano(r, free_tip=free)
        tag = "free" if free else "relabel"
        _need(is_3_connected(m), f"[{tag}] 3-connected")
        _need(has_minor(m, f7) is not None, f"[{tag}] a Fano minor is present")
        spike_part = m.set_of([lab for lab in m.labels
                               if lab[0] in "xy" and lab[1:].isdigit()])
        _need(lambda_(m, spike_part) == 2,
              f"[{tag}] spike part exactly 3-separating")
        _need(detect_spike_like(m, spike_part) is not None,
              f"[{tag}] spike part is a spike-like 3-separator")
        _need(not detachable_pairs(m, f7), f"[{tag}] no Fano-detachable pairs")
        _need(not detachable_after_exchange(m, f7),
              f"[{tag}] no Fano-detachable pairs after one exchange")
        exercised += 6
    return exercised


# ---------------------------------------------------------------------------
# corpus sweeps

def _minor_pairs(corpus, max_m: int, gap: int, skip=None):
    """The corpus pairs (M entry, N entry), M-major in corpus order, with M
    3-connected of at most `max_m` elements, N 3-connected with at least
    four elements and at least `gap` fewer than M, and N a minor of M.
    An M for which `skip` holds is passed over before any minor test.  With
    no corpus given, the seed-0 corpus up to `max_m` elements."""
    if corpus is None:
        corpus = generate_corpus(0, max_n=max_m)
    for em in corpus:
        m = em.matroid
        if m.n > max_m or not is_3_connected(m) or (skip and skip(m)):
            continue
        for en in corpus:
            n_mat = en.matroid
            if n_mat.n < 4 or m.n - n_mat.n < gap \
                    or not is_3_connected(n_mat):
                continue
            if has_minor(m, n_mat) is not None:
                yield em, en


def sweep_theorem_triangles(corpus=None, max_m: int = 11) -> list[Verdict]:
    out = []
    for em, en in _minor_pairs(corpus, max_m, 5):
        v = verify_theorem_triangles(em.matroid, en.matroid)
        v.instance = f"{em.name}|{en.name}"
        out.append(v)
    return out


def sweep_foundation(corpus=None, max_m: int = 12) -> list[Verdict]:
    """Search for instances meeting the standing hypotheses (grounded
    triples, no detachable pair, a qualifying deletion d and cyclic split)
    and verify the structural outcome on each.

    The hypotheses on the pair (M, N) (both 3-connected, 4 <= |E(N)| <
    |E(M)|, N a minor of M, every triangle and triad N-grounded, no
    N-detachable pair) are decided once per pair, and the cyclic
    3-separations of each 3-connected M\\d once per M, at the first N that
    passes; only the hypotheses on each instance (d, d', Y) are checked
    per instance."""
    out = []
    split_m = None
    for em, en in _minor_pairs(corpus, max_m, 1):
        m, n_mat = em.matroid, en.matroid
        if not all_triples_grounded(m, n_mat):
            continue
        if detachable_pairs(m, n_mat, first_only=True):
            continue
        if split_m is not em:
            split_m = em
            splits = [(d, cyclic_3_separations(md)) for d in range(m.n)
                      if is_3_connected(md := m.delete(bit(d)))]
        for d, seps in splits:
            bd = bit(d)
            for xa, zz, ya in seps:
                dp = m.expand(bit(zz), bd).bit_length() - 1
                for ym, zm in ((xa, ya), (ya, xa)):
                    y = m.expand(ym, bd)
                    if popcount(y) < 4:
                        continue
                    try:
                        v = _foundation_outcome(m, n_mat, d, dp, y,
                                                m.expand(zm, bd))
                    except HypothesisUnmet:
                        continue
                    v.instance = (f"{em.name}|{en.name}|d={m.labels[d]}"
                                  f"|d'={m.labels[dp]}|Y={m.fmt(y)}")
                    out.append(v)
    return out


def splitter_check(corpus=None, max_m: int = 12) -> list[Verdict]:
    """Every 3-connected corpus matroid that is not a wheel or whirl, with a
    3-connected proper minor of >= 4 elements, has a single-element removal
    that is 3-connected with the minor intact."""
    out = []
    for em, en in _minor_pairs(corpus, max_m, 1, skip=is_wheel_or_whirl):
        ok, ms = _timed(_splitter_holds, em.matroid, en.matroid)
        out.append(Verdict("splitter", f"{em.name}|{en.name}",
                           "pass" if ok else "fail", 1, None, ms))
    return out


def _splitter_holds(m: Matroid, n_mat: Matroid) -> bool:
    """Some single contraction or deletion of M is 3-connected and keeps
    an N-minor; contractions first, element by element."""
    for e in range(m.n):
        for mm in (m.contract(bit(e)), m.delete(bit(e))):
            if is_3_connected(mm) and has_minor(mm, n_mat) is not None:
                return True
    return False
