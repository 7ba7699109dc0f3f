"""Executable property checks: a registry of structural facts verified
exhaustively over the corpus, theorem-level verifiers, and replays of the
two counterexample constructions.

Each registry fact is a row of a table: its check and its hypotheses as
cells, with a reason for each non-default cell.  A check is a generator
that yields once per case it exercises: None where the conclusion holds,
or a witness where it fails.  One runner, `_check_verdict`, applies the
hypotheses, counts the cases, stops at the first witness and times the
run."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (Matroid, MatroidError, _lex_masks, bit, elems,
                   is_isomorphic, mask_of, popcount, submasks)
from .connectivity import (_k_separating, _lambda_sets, is_3_connected,
                           is_connected, lambda_, lambda_minus, full_closure,
                           vertical_3_separations, cyclic_3_separations)
from .structures import (_step, _subset_bits, detect_spike_like,
                         detect_twisted_cube_like, fans, flans, segments,
                         special_separator, triangles, triads)
from .minors import (HypothesisUnmet, all_triples_grounded,
                     detachable_after_exchange, detachable_pairs,
                     grounded_triangles, has_minor, labellings,
                     switch_labels)
from .builders import fano, nonfano, spiked_fano, twisted_cube_matroid, wheel, whirl


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
    # e is in cl*(S) iff r(E - S - e) < r(E - S), for e outside S
    t, co = m._ranks(), m.full ^ s
    return bool(s >> e & 1) or t[co ^ bit(e)] < t[co]


def is_wheel_or_whirl(m: Matroid) -> bool:
    if m.n != 2 * m.rank or m.rank < 2:
        return False
    return any(is_isomorphic(m, build(m.rank)) is not None
               for build in (wheel, whirl))


def _u3k_planes(m: Matroid, k: int) -> list[int]:
    """The k-sets P, in lex order, with M|P = U_{3,k}: r(P) = 3 and every
    3-subset of P, a sum of three of P's single-bit columns, is a basis."""
    t, p = m.table(), _lex_masks(m.n, k)
    pick = _lex_masks(k, 3) >> np.arange(k)[:, None] & 1
    ok = (t[p] == 3) & (t[_subset_bits(m.n, k) @ pick] == 3).all(1)
    return p[ok].tolist()


def _fan_ends(m: Matroid):
    """(fan, end, the end's type) for both ends of every maximal fan of at
    least four elements."""
    for rec in fans(m):
        if len(rec.elements) >= 4:
            for i in (0, -1):
                yield rec.elements, rec.elements[i], rec.types[i]


# ---------------------------------------------------------------------------
# matroid-level checks.  Each is a generator that yields once per exercised
# case: None when the conclusion holds there, or a witness when it fails.

def check_uncrossing(m):
    t = m.table()
    sep = np.array(_lambda_sets(m, lambda lam, size: lam <= 2))
    for x in sep:
        inter, union = sep & x, sep | x
        # each kind's cases in bulk: passes, then the witness if one fails
        for kind, case, other in (
                ("union", np.bitwise_count(inter) >= 2, union),
                ("intersection", m.n - np.bitwise_count(union) >= 2, inter)):
            bad = case & (t[other] + t[m.full ^ other] - m.rank > 2)
            hit = bool(bad.any())
            yield from itertools.repeat(None, int(case.sum()) - hit)
            if hit:
                yield int(x), int(sep[bad.argmax()]), kind


def check_closure_complement_swap(m):
    dual = m.dual()
    t = m._ranks()
    td = dual._ranks()
    for e in range(m.n):
        be = bit(e)
        rest = m.full ^ be
        for x in submasks(rest):
            y = rest ^ x
            in_cl = t[x | be] == t[x]
            in_cocl = td[y | be] == td[y]
            yield (e, x) if in_cl == in_cocl else None


def check_step_extension(m):
    for x in _lambda_sets(m, lambda lam, size: lam == 2):
        for e in elems(m.full ^ x):
            grows = lambda_(m, x | bit(e)) <= 2
            attached = _in_cl(m, x, e) or _in_cocl(m, x, e)
            yield (x, e) if grows != attached else None


def check_boundary_attachment(m):
    for x in _lambda_sets(m, lambda lam, size: (lam == 2) & (size >= 3)):
        for e in elems(x):
            ok = _in_cl(m, x ^ bit(e), e) or _in_cocl(m, x ^ bit(e), e)
            yield None if ok else (x, e)


def check_guts_coguts_step(m):
    for x in _lambda_sets(m, lambda lam, size: (lam == 2) & (size >= 3)):
        y = m.full ^ x
        for e in elems(x):
            rest = x ^ bit(e)
            step_exact = lambda_(m, rest) == 2
            guts = _in_cl(m, rest, e) and _in_cl(m, y, e)
            coguts = _in_cocl(m, rest, e) and _in_cocl(m, y, e)
            yield (x, e) if step_exact != (guts or coguts) else None


def check_contraction_vertical_split(m):
    trips = vertical_3_separations(m)
    with_z = {z for (_, z, _) in trips}
    for z in range(m.n):
        si_ok = is_3_connected(_si(m, z))
        yield z if (z in with_z) == si_ok else None


def _triangle_union(m: Matroid) -> int:
    return mask_of(e for t in triangles(m) for e in elems(t))


def check_full_closure_two_separation(m):
    if not m.simplify()[0].n == m.cosimplify()[0].n == m.n:
        return
    for x in _k_separating(m, 2):
        f = full_closure(m, x)
        rest = m.full ^ f
        bad = lambda_(m, f) > 1 or popcount(f) < 2 or popcount(rest) < 2
        yield x if bad else None


def check_guts_coguts_disjoint(m):
    def violates(x):
        return (lambda_(m, x) <= 2 and popcount(x) >= 3
                and m.n - popcount(x) >= 3
                and m.closure(x) & m.coclosure(x) & (m.full ^ x))

    for x in _k_separating(m, 3):
        yield shrink_mask(violates, x) if violates(x) else None


def check_segment_deletion(m):
    for s in segments(m):
        if popcount(s) < 4:
            continue
        for e in elems(s):
            yield None if is_3_connected(m.delete(bit(e))) else (s, e)


def check_one_side_stays_connected(m):
    for e in range(m.n):
        ok = is_3_connected(_co(m, e)) or is_3_connected(_si(m, e))
        yield None if ok else e


def check_triangle_deletion_triad(m):
    trds = triads(m)
    for t in triangles(m):
        for a, b in itertools.permutations(elems(t), 2):
            if is_3_connected(m.delete(bit(a))) or \
                    is_3_connected(m.delete(bit(b))):
                continue
            c = (t ^ bit(a) ^ bit(b)).bit_length() - 1
            ok = any((td >> a & 1) and
                     (td >> b & 1) != (td >> c & 1) and
                     ((td >> b & 1) or (td >> c & 1))
                     for td in trds)
            yield None if ok else (t, a, b)


def _rank3_cocircuits(m):
    t = m._ranks()
    return [c for c in m.cocircuits() if t[c] == 3]


def check_rank3_cocircuit_contraction(m):
    for cstar in _rank3_cocircuits(m):
        for x in elems(cstar):
            bx = bit(x)
            s = m.compress(m.closure(cstar) ^ bx, bx)
            # some triangle of M/x lies in cl(C*) - x
            if not any(tri & s == tri for tri in triangles(m.contract(bx))):
                continue
            yield None if is_3_connected(_si(m, x)) else (cstar, x)


def check_rank3_cocircuit_deletion(m):
    t = m._ranks()
    for cstar in _rank3_cocircuits(m):
        for x in elems(cstar):
            if t[cstar] != t[cstar ^ bit(x)]:
                continue
            yield None if is_3_connected(_co(m, x)) else (cstar, x)


def check_closure_meets_once(m):
    def violates(x):
        if lambda_(m, x) > 2 or popcount(x) < 3 or m.n - popcount(x) < 3:
            return False
        y = m.full ^ x
        a = x & m.closure(y)
        b = x & m.coclosure(y)
        return a and b and (popcount(a) != 1 or popcount(b) != 1)

    for x in _k_separating(m, 3):
        if x & m.closure(m.full ^ x) and x & m.coclosure(m.full ^ x):
            yield shrink_mask(violates, x) if violates(x) else None


def check_fan_end_removal(m):
    for fan, f, kind in _fan_ends(m):
        if kind == "spoke":
            ok = is_3_connected(_co(m, f)) and not is_3_connected(_si(m, f))
        else:
            ok = is_3_connected(_si(m, f)) and not is_3_connected(_co(m, f))
        yield None if ok else (fan, f)


def check_maximal_fan_end_removal(m):
    for fan, f, kind in _fan_ends(m):
        target = m.delete(bit(f)) if kind == "spoke" else m.contract(bit(f))
        yield None if is_3_connected(target) else (fan, f)


def check_quad_cocircuit_contraction(m):
    in_tri = _triangle_union(m)
    for cstar in m.cocircuits():
        if popcount(cstar) != 4:
            continue
        if popcount(cstar & ~in_tri) < 2:
            continue
        ok = any(is_3_connected(m.contract(bit(c))) for c in elems(cstar))
        yield None if ok else cstar


def check_plane_external_deletion(m):
    for p in _u3k_planes(m, 5):
        for e in elems(m.closure(p) ^ p):
            yield None if is_3_connected(m.delete(bit(e))) else (p, e)


def check_plane_with_triad_deletion(m):
    trds = triads(m)
    for p in _u3k_planes(m, 5):
        for tstar in trds:
            if tstar & p != tstar:
                continue
            for e in elems(p ^ tstar):
                ok = is_3_connected(m.delete(bit(e)))
                yield None if ok else (p, tstar, e)


def check_hinged_plane_deletion_pairs(m):
    trds = triads(m)
    tris = triangles(m)
    for p in _u3k_planes(m, 5):
        clp = m.closure(p)
        if any(t & clp == t for t in tris):
            continue
        if any(t & p == t for t in trds):
            continue
        for e in elems(p):
            if is_3_connected(m.delete(bit(e))):
                continue
            rest = elems(p ^ bit(e))
            ok = False
            for i in range(1, 4):
                pair = (rest[0], rest[i])
                other = tuple(x for x in rest if x not in pair)
                if all(is_3_connected(m.delete(bit(u) | bit(v)))
                       for u in pair for v in other):
                    ok = True
                    break
            yield None if ok else (p, e)


def check_six_point_plane_pairs(m):
    tris = triangles(m)
    for p in _u3k_planes(m, 6):
        clp = m.closure(p)
        if any(t & clp == t for t in tris):
            continue
        for xcombo in itertools.combinations(elems(p), 4):
            ok = any(is_3_connected(m.delete(bit(x1) | bit(x2)))
                     for x1, x2 in itertools.combinations(xcombo, 2))
            yield None if ok else (p, xcombo)


def check_flan_contraction(m):
    in_tri = _triangle_union(m)
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
                pair = bit(fi) | bit(fj)
                j_1based = jpos + 1
                if not (is_3_connected(m.contract(bit(fi)))
                        and is_3_connected(m.contract(bit(fj)))
                        and is_3_connected(m.contract(pair).simplify()[0])):
                    yield seq, fi, fj, "si"
                elif (j_1based >= 7 or t_len == 5) and \
                        not is_3_connected(m.contract(pair)):
                    yield seq, fi, fj, "contract-pair"
                else:
                    yield None


class Check(NamedTuple):
    """A registry row: a check, its size cap and its hypotheses on M."""
    fn: Callable
    cap: int = 12
    conn: int = 3               # M is connected (2) or 3-connected (3)
    least_n: int = 0
    least_rank: int = 0
    wheels: bool = True         # wheels and whirls admitted

    @property
    def name(self) -> str:
        return self.fn.__name__.removeprefix("check_").replace("_", "-")

    def admits(self, m: Matroid, *n_mat: Matroid) -> bool:
        """M, and N for a pair check, meet the row's hypotheses."""
        return (m.n >= self.least_n and m.rank >= self.least_rank
                and (self.conn != 2 or is_connected(m))
                and (self.conn != 3 or is_3_connected(m))
                and (self.wheels or not is_wheel_or_whirl(m))
                and all(is_3_connected(n) and has_minor(m, n) is not None
                        for n in n_mat))


# The hypotheses of each check, applied once by `_check_verdict`; a pair
# check also needs N 3-connected and a minor of M.  Non-default cells:
# - cap: bounds the running time; the plane checks reach the 13-element
#   hinged planes of the corpus.
# - conn=0: e is in cl(X) exactly when it is not in cl*(E - X - e), in any M.
# - conn=2: the check reads the 2-separations of a connected M (whether M is
#   also simple and cosimple is asked inside full-closure-two-separation).
# - least_n, least_rank: the size and rank bounds of the lemmas; for
#   six-point-plane-pairs, n >= 7 excludes the degenerate case E(M) = P.
# - wheels=False: the fan-end lemmas exclude wheels and whirls.
MATROID_CHECKS = [
    Check(check_uncrossing, cap=11),
    Check(check_closure_complement_swap, cap=11, conn=0),
    Check(check_step_extension),
    Check(check_boundary_attachment),
    Check(check_guts_coguts_step),
    Check(check_contraction_vertical_split, least_n=4),
    Check(check_full_closure_two_separation, conn=2, least_n=4),
    Check(check_guts_coguts_disjoint),
    Check(check_segment_deletion),
    Check(check_one_side_stays_connected, least_n=4),
    Check(check_triangle_deletion_triad, least_n=4),
    Check(check_rank3_cocircuit_contraction, least_n=5),
    Check(check_rank3_cocircuit_deletion, least_rank=4),
    Check(check_closure_meets_once),
    Check(check_fan_end_removal, least_n=4, wheels=False),
    Check(check_maximal_fan_end_removal, least_n=4, wheels=False),
    Check(check_quad_cocircuit_contraction, least_n=5),
    Check(check_plane_external_deletion, cap=13),
    Check(check_plane_with_triad_deletion, cap=13, least_n=6),
    Check(check_hinged_plane_deletion_pairs, cap=13),
    Check(check_six_point_plane_pairs, least_n=7),
    Check(check_flan_contraction),
]


# ---------------------------------------------------------------------------
# (M, N) checks

def check_grounded_triangle_contraction(m, n_mat):
    for t in grounded_triangles(m, n_mat):
        for x in elems(t):
            kept = has_minor(m.contract(bit(x)), n_mat) is not None
            yield (t, x) if kept else None


def check_two_separation_minor_side(m, n_mat):
    def side_ok(u):
        got = next(labellings(m, n_mat, survivor_cap=u), None)
        if got is None:
            return False
        for e in elems(u):
            for mm in (op(bit(e)) for op in (m.contract, m.delete)):
                if is_connected(mm) and has_minor(mm, n_mat) is None:
                    return False
        return True

    seen = set()
    for x in _k_separating(m, 2):
        y = m.full ^ x
        if y in seen:
            continue
        seen.add(x)
        yield None if side_ok(x) or side_ok(y) else x


def check_cyclic_separation_labels(m, n_mat):
    for xa, z, ya in cyclic_3_separations(m):
        for x, y in ((xa, ya), (ya, xa)):
            bz = bit(z)
            mz = m.delete(bz)
            region = m.compress(x, bz)
            if next(labellings(mz, n_mat, survivor_cap=region), None) is None:
                continue
            cocly = m.coclosure(y)
            xp = x & ~cocly
            yp = cocly & ~bz
            undeletable = next((e for e in elems(xp) if has_minor(
                m.delete(bit(e)), n_mat) is None), None)
            bad = [e for e in elems(m.coclosure(x) & ~bz)
                   if has_minor(m.contract(bit(e)), n_mat) is None]
            if undeletable is not None:
                yield x, z, "deletable", undeletable
            elif len(bad) > 1:
                yield x, z, "contractible", tuple(bad)
            elif bad and not ((xp >> bad[0] & 1) and _in_cl(m, yp, bad[0])
                              and _in_cocl(m, xp ^ bit(bad[0]), z)):
                yield x, z, "exception-element", bad[0]
            else:
                yield None


def check_parallel_label_switch(m, n_mat):
    lab = has_minor(m, n_mat)
    t = m._ranks()
    cases = ((c, d, e) for c in elems(lab.contract)
             for d, e in itertools.combinations(range(m.n), 2)
             if c != d and c != e
             and t[bit(d) | bit(e) | bit(c)] - t[bit(c)] == 1)
    for c, d, e in itertools.islice(cases, 20):
        try:
            switch_labels(m, n_mat, lab, d, e)
        except HypothesisUnmet:
            yield c, d, e, "hypothesis"
        except MatroidError:
            yield c, d, e, "invalid-switch"
        else:
            yield None


PAIR_CHECKS = [
    Check(check_grounded_triangle_contraction),
    Check(check_two_separation_minor_side, cap=10, conn=2),
    Check(check_cyclic_separation_labels, cap=11),
    Check(check_parallel_label_switch),
]


def run_lemma_registry(corpus) -> list[Verdict]:
    """Run every registry check on every corpus instance within its size cap
    (for a pair check, the cap of M bounds N too).

    A check that never meets its hypothesis on an instance reports
    `vacuous`; a conclusion failure reports `fail` with a witness."""
    out = []
    for row in MATROID_CHECKS:
        for entry in corpus:
            if entry.matroid.n > row.cap:
                continue
            out.append(_check_verdict(row, entry.name, entry.matroid))
    for row in PAIR_CHECKS:
        for em in corpus:
            if em.matroid.n > row.cap:
                continue
            for en in corpus:
                if en.matroid.n < 4 or en.matroid.n > em.matroid.n:
                    continue
                if en.matroid.n == em.matroid.n and en.name != em.name:
                    continue
                out.append(_check_verdict(row, f"{em.name}|{en.name}",
                                          em.matroid, en.matroid))
    return out


def _check_verdict(row: Check, instance, *args) -> Verdict:
    """The verdict of `row` on `args`, timed.  The check's cases count up
    to and including the first that yields a witness, which ends the run;
    off the row's hypotheses no case runs and the verdict is vacuous."""
    def run():
        exercised, witness = 0, None
        if row.admits(*args):
            for exercised, witness in enumerate(row.fn(*args), 1):
                if witness is not None:
                    break
        return exercised, witness

    (exercised, witness), ms = _timed(run)
    outcome = ("fail" if witness is not None
               else "pass" if exercised else "vacuous")
    return Verdict(row.name, instance, outcome, exercised, witness, ms)


def registry_summary(verdicts) -> dict:
    agg: dict = {}
    for v in verdicts:
        a = agg.setdefault(v.check, {"pass": 0, "fail": 0, "vacuous": 0,
                                     "exercised": 0})
        a[v.outcome] += 1
        a["exercised"] += v.exercised
    return agg


def summary_lines(summary: dict) -> list[str]:
    """The `registry_summary` as `verify registry` prints it: one line per
    check, sorted by check."""
    return [f"check={c} pass={s['pass']} vacuous={s['vacuous']} "
            f"fail={s['fail']} exercised={s['exercised']}"
            for c, s in sorted(summary.items())]


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
    cand = _lambda_sets(m, lambda lam, size: (lam == 2) & (size >= 6)
                        & (size % 2 == 0) & (size <= m.n - 1))
    for p in cand:
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
    # a triad, then an element of the prefix's closure alternating with one
    # that completes a triad
    step = _step(m, (trds, None))
    return (len(seq) >= 4 and mask_of(seq[:3]) in trds
            and all(seq[i] in step(seq[:i], mask_of(seq[:i]))
                    for i in range(3, len(seq))))


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
    return special_separator(m, p)


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
    bd = bit(d)
    md = m.delete(bd)
    if not is_3_connected(md):
        raise HypothesisUnmet("M \\ d is not 3-connected")
    # the cyclic 3-separations of M\d as partitions of E - d, either way round
    trips = {(m.expand(a, bd), m.expand(bit(c), bd), m.expand(b, bd))
             for xa, c, ya in cyclic_3_separations(md)
             for a, b in ((xa, ya), (ya, xa))}
    if (y, bit(dp), z) not in trips or popcount(y) < 4:
        raise HypothesisUnmet("(Y, {d'}, Z) is not a cyclic 3-separation "
                              "of M \\ d with |Y| >= 4")
    return _foundation_outcome(m, n_mat, d, dp, y)


def _foundation_outcome(m: Matroid, n_mat: Matroid, d: int, dp: int,
                        y: int) -> Verdict:
    """`verify_foundation` once every hypothesis but the labelling one
    holds: checks that one, then decides the outcome."""
    bd = bit(d)
    md = m.delete(bd)
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
                    if lambda_(m, p) == 2 and special_separator(m, p):
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


def verify_construction_spike() -> Verdict:
    exercised, ms = _timed(_replay_spike)
    return Verdict("construction-spike", "spikedfano-4", "pass",
                   exercised, None, ms)


def _replay_spike() -> int:
    """The spiked-Fano checks on each variant of rank 4; how many ran."""
    f7 = fano()
    exercised = 0
    for free in (False, True):
        m = spiked_fano(4, free_tip=free)
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
    An M for which `skip` holds is passed over before any minor test."""
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


def sweep_theorem_triangles(corpus, max_m: int = 11) -> list[Verdict]:
    out = []
    for em, en in _minor_pairs(corpus, max_m, 5):
        v = verify_theorem_triangles(em.matroid, en.matroid)
        v.instance = f"{em.name}|{en.name}"
        out.append(v)
    return out


def sweep_foundation(corpus, max_m: int = 12) -> list[Verdict]:
    """Search for instances meeting the standing hypotheses (grounded
    triples, no detachable pair, a qualifying deletion d and cyclic split)
    and verify the structural outcome on each.

    The hypotheses on the pair (M, N) (both 3-connected, 4 <= |E(N)| <
    |E(M)|, N a minor of M, every triangle and triad N-grounded, no
    N-detachable pair) are decided once per pair, and the cyclic
    3-separations of each 3-connected M\\d once per M, at the first N that
    passes.  Each instance (d, d', Y) comes from that scan, so only its
    labelling hypothesis is checked per instance."""
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
                for ym in (xa, ya):
                    y = m.expand(ym, bd)
                    if popcount(y) < 4:
                        continue
                    try:
                        v = _foundation_outcome(m, n_mat, d, dp, y)
                    except HypothesisUnmet:
                        continue
                    v.instance = (f"{em.name}|{en.name}|d={m.labels[d]}"
                                  f"|d'={m.labels[dp]}|Y={m.fmt(y)}")
                    out.append(v)
    return out


def splitter_check(corpus, max_m: int = 12) -> list[Verdict]:
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
