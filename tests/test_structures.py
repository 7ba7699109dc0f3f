"""Substructure detection: triangles, triads, segments, quads, fans, flans
and the four special 3-separators."""

import contextlib
import io
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from matroidkit.core import Matroid, bit, elems, mask_of, popcount
from matroidkit.cli import main, serialize
from matroidkit.builders import (fano, spike, spiked_fano,
                                 twisted_cube_matroid, uniform, wheel, whirl)
from matroidkit.connectivity import NotThreeConnected, lambda_
from matroidkit.corpus import (elongated_quad_instance, generate_corpus,
                               prism, skew_whiff_instance)
from matroidkit.harness import _in_cl, _in_cocl
from matroidkit.structures import (SPECIAL_SEPARATORS, BadSize,
                                   NotExactlyThreeSeparating,
                                   detect_elongated_quad, detect_skew_whiff,
                                   detect_spike_like,
                                   detect_twisted_cube_like, fans, flans,
                                   is_triad, is_triangle, quads, segments,
                                   special_separator, triads, triangles)


class TestSmallCircuits:
    def test_fano_counts(self):
        f = fano()
        assert len(triangles(f)) == 7 and len(triads(f)) == 0

    def test_wheel3_counts(self):
        m = wheel(3)
        assert len(triangles(m)) == 4 and len(triads(m)) == 4

    def test_spike4_quads(self):
        m = spike(4)
        got = quads(m)
        assert len(got) == 6
        for q in got:
            legs = {(e - 1) // 2 for e in elems(q)}
            assert len(legs) == 2

    def test_segments(self):
        m = uniform(2, 5)
        assert segments(m) == [m.full]

    def test_no_segments_in_fano_beyond_lines(self):
        segs = segments(fano())
        assert all(popcount(s) == 3 for s in segs) and len(segs) == 7


class TestFans:
    def test_wheel3_single_fan_class(self):
        recs = fans(wheel(3))
        assert len(recs) == 1 and popcount(mask_of(recs[0].elements)) == 6

    def test_whirl4_whole_ground_set(self):
        recs = fans(whirl(4))
        assert any(len(r.elements) == 8 for r in recs)

    def test_records_reverify(self):
        for m in (wheel(4), prism()):
            for rec in fans(m):
                seq = rec.elements
                first = mask_of(seq[:3])
                alt = is_triangle(m, first)
                assert alt or is_triad(m, first)
                for i in range(len(seq) - 2):
                    tri = mask_of(seq[i:i + 3])
                    want_triangle = alt if i % 2 == 0 else not alt
                    assert is_triangle(m, tri) if want_triangle \
                        else is_triad(m, tri)

    def test_prism_has_five_element_fans(self):
        assert any(len(r.elements) == 5 for r in fans(prism()))

    def test_requires_3_connected(self):
        from matroidkit.builders import parallel_add
        with pytest.raises(NotThreeConnected):
            fans(parallel_add(uniform(2, 4), 0, "x"))


class TestFlans:
    def test_u36_has_none(self):
        assert flans(uniform(3, 6)) == []

    def test_fan_starting_with_triad_is_flan(self):
        m = wheel(4)
        fl = flans(m)
        assert fl
        for rec in fl:
            seq = rec.elements
            for i in range(0, len(seq) - 2, 2):
                assert is_triad(m, mask_of(seq[i:i + 3]))
            for i in range(3, len(seq), 2):
                pre = mask_of(seq[:i])
                assert m.closure(pre) >> seq[i] & 1

    def test_long_flan_rank_step_three(self):
        # the engineered 8-element flan spans three more ranks than the
        # complementary base line
        from matroidkit.corpus import long_flan_instance
        m = long_flan_instance()
        recs = [r for r in flans(m) if len(r.elements) == 8]
        assert recs
        target = m.set_of([f"f{i}" for i in range(1, 9)])
        assert any(mask_of(r.elements) == target for r in recs)
        assert m.rank == m.rank_of(m.full ^ target) + 3

    def test_flan_rank_step_instance(self):
        # a flan of length five spanning three more ranks than its complement
        # leaves: dual construction carries one after a single deletion
        w = twisted_cube_matroid().dual()
        md = w.delete(w.set_of(["p1"]))
        recs = [r for r in flans(md) if len(r.elements) == 5]
        assert recs
        f = mask_of(recs[0].elements)
        assert md.rank == md.rank_of(md.full ^ f) + 2


class TestSpikeLike:
    def test_spiked_fano_detection(self):
        m = spiked_fano(4)
        p = m.set_of(["x2", "y2", "x3", "y3", "x4", "y4"])
        rep = detect_spike_like(m, p)
        assert rep is not None
        legs = rep.witness["legs"]
        assert len(legs) == 3
        assert all(popcount(l) == 2 for l in legs)

    def test_odd_size_returns_none(self):
        m = spiked_fano(4)
        p = m.set_of(["x2", "y2", "x3", "y3", "x4"])
        if lambda_(m, p) == 2:
            assert detect_spike_like(m, p) is None

    def test_u36_subset_none(self):
        m = uniform(3, 6)
        assert detect_spike_like(m, m.full ^ 0) is None \
            if lambda_(m, m.full) == 2 else True

    def test_requires_exact_separation(self):
        m = spiked_fano(4)
        bad = m.set_of(["x2", "y2", "x3", "y3", "x4", "u1"])
        if lambda_(m, bad) != 2:
            with pytest.raises(NotExactlyThreeSeparating):
                detect_spike_like(m, bad)


class TestSixElementDetectors:
    def test_elongated_quad_instance(self):
        m = elongated_quad_instance()
        p = m.set_of(["p1", "p2", "q1", "q2", "q3", "q4"])
        rep = detect_elongated_quad(m, p)
        assert rep is not None
        assert rep.witness["pair"] == m.set_of(["p1", "p2"])
        assert rep.witness["quad"] == m.set_of(["q1", "q2", "q3", "q4"])

    def test_elongated_quad_in_every_order_of_its_quad(self):
        # the quad's labels are symmetric only under the four permutations
        # that fix the pairing {q1,q2}|{q3,q4} up to swaps of both pairs, so
        # the reported labelling must be picked by "q1 is least"; a filter
        # that also asks q3 < q4 misses half of the element orders
        m0 = elongated_quad_instance()
        rest = [lab for lab in m0.labels if not lab.startswith("q")]
        for quad in itertools.permutations(["q1", "q2", "q3", "q4"]):
            m = m0.reorder(rest[:2] + list(quad) + rest[2:])
            p = m.set_of(["p1", "p2", "q1", "q2", "q3", "q4"])
            rep = detect_elongated_quad(m, p)
            assert rep is not None, quad
            assert rep.witness["quad"] == m.set_of(["q1", "q2", "q3", "q4"])

    def test_skew_whiff_instance(self):
        m = skew_whiff_instance()
        p = m.set_of(["s1", "s2", "t1", "t2", "u1", "u2"])
        rep = detect_skew_whiff(m, p)
        assert rep is not None

    def test_twisted_cube_instance(self):
        m = twisted_cube_matroid()
        p = m.set_of(["p1", "p2", "q1", "q2", "s1", "s2"])
        rep = detect_twisted_cube_like(m, p)
        assert rep is not None
        lab = {k: m.labels[v] for k, v in rep.witness["labelling"].items()}
        assert lab == {"p1": "p1", "p2": "p2", "q1": "q1", "q2": "q2",
                       "s1": "s1", "s2": "s2"}

    def test_dual_detection(self):
        # in the dual of the twisted-cube matroid the support X carries the
        # twisted cube-like structure only through the dual: its own inner
        # circuit list has four members, so direct detection must refuse
        m = twisted_cube_matroid().dual()
        p = m.set_of(["p1", "p2", "q1", "q2", "s1", "s2"])
        assert detect_twisted_cube_like(m, p) is None
        assert detect_twisted_cube_like(m.dual(), p) is not None

    def test_cross_negative(self):
        eq = elongated_quad_instance()
        p = eq.set_of(["p1", "p2", "q1", "q2", "q3", "q4"])
        assert detect_skew_whiff(eq, p) is None
        assert detect_twisted_cube_like(eq, p) is None
        sw = skew_whiff_instance()
        p2 = sw.set_of(["s1", "s2", "t1", "t2", "u1", "u2"])
        assert detect_elongated_quad(sw, p2) is None
        assert detect_twisted_cube_like(sw, p2) is None
        tc = twisted_cube_matroid()
        p3 = tc.set_of(["p1", "p2", "q1", "q2", "s1", "s2"])
        assert detect_elongated_quad(tc, p3) is None
        assert detect_skew_whiff(tc, p3) is None

    def test_bad_size(self):
        m = elongated_quad_instance()
        with pytest.raises(BadSize):
            detect_elongated_quad(m, m.set_of(["q1", "q2", "q3", "q4"]))

    def test_mutual_exclusivity_exhaustive(self):
        detectors = (detect_elongated_quad, detect_skew_whiff,
                     detect_twisted_cube_like, detect_spike_like,
                     lambda m, p: detect_twisted_cube_like(m.dual(), p))
        for entry in generate_corpus(0, max_n=10):
            m = entry.matroid
            for combo in itertools.combinations(range(m.n), 6):
                p = mask_of(combo)
                if lambda_(m, p) != 2:
                    continue
                hits = sum(1 for det in detectors if det(m, p) is not None)
                assert hits <= 1, (entry.name, m.fmt(p))


# The paper's three six-element separators, restated from their definitions:
# the labelling's names, the circuits and the cocircuits inside P, and the
# name pairs whose ids a reported labelling puts in ascending order.
DEFINITIONS = {
    "elongated-quad": (
        "p1 p2 q1 q2 q3 q4",
        ["q1 q2 q3 q4", "p1 p2 q1 q2", "p1 p2 q3 q4"],
        ["q1 q2 q3 q4", "p1 p2 q1 q3", "p1 p2 q2 q4"],
        ["p1 p2", "q1 q2", "q1 q3", "q1 q4"]),
    "skew-whiff": (
        "s1 s2 t1 t2 u1 u2",
        ["s1 s2 t2 u1", "s1 t1 t2 u2", "s2 t1 u1 u2"],
        ["s1 s2 t1 t2", "s1 s2 u1 u2", "t1 t2 u1 u2"],
        []),
    "twisted-cube-like": (
        "p1 p2 q1 q2 s1 s2",
        ["p1 p2 s1 s2", "q1 q2 s1 s2", "p1 p2 q1 q2"],
        ["p1 q1 s1 s2", "p2 q2 s1 s2", "p1 p2 q1 q2 s1", "p1 p2 q1 q2 s2"],
        ["p1 p2", "s1 s2"]),
}

# (matroid, names of P, detector, kind, whether the structure lives in M*)
DEFINITION_CASES = [
    (elongated_quad_instance, "p1 p2 q1 q2 q3 q4", detect_elongated_quad,
     "elongated-quad", False),
    (skew_whiff_instance, "s1 s2 t1 t2 u1 u2", detect_skew_whiff,
     "skew-whiff", False),
    (twisted_cube_matroid, "p1 p2 q1 q2 s1 s2", detect_twisted_cube_like,
     "twisted-cube-like", False),
    (lambda: twisted_cube_matroid().dual(), "p1 p2 q1 q2 s1 s2",
     detect_twisted_cube_like, "twisted-cube-like", True),
]


def brute_inner(m, p, co):
    """The circuits (co=False) or cocircuits (co=True) of m inside p, as
    minimal dependent sets read from the basis family alone: X is
    independent when it lies inside a basis, co-independent when it misses
    one."""
    def indep(x):
        return any((x & b == 0) if co else (x & b == x) for b in m.bases)

    subs = [x for x in range(1, p + 1) if x & p == x]
    return {x for x in subs
            if not indep(x) and all(indep(x ^ bit(e)) for e in elems(x))}


def read(lab, sets):
    return {mask_of(lab[x] for x in s.split()) for s in sets}


class TestDetectorsAgainstDefinitions:
    @pytest.mark.parametrize("kind", sorted(DEFINITIONS))
    def test_ascending_pairs_meet_every_orbit(self, kind):
        # the labellings of one structure are one orbit under the kind's
        # symmetries (position permutations that keep both families); each
        # orbit must hold a labelling with every ascending pair in order
        order, circuits, cocircuits, ascending = DEFINITIONS[kind]
        names = order.split()

        def family(sets, s):
            return {frozenset(s[names.index(x)] for x in c.split())
                    for c in sets}

        ident = tuple(range(6))
        syms = [s for s in itertools.permutations(range(6))
                if family(circuits, s) == family(circuits, ident)
                and family(cocircuits, s) == family(cocircuits, ident)]
        pairs = [[names.index(x) for x in a.split()] for a in ascending]
        for ids in itertools.permutations(range(6)):
            assert any(all(ids[s[i]] < ids[s[j]] for i, j in pairs)
                       for s in syms), (kind, ids)

    @settings(max_examples=40)
    @given(st.data())
    def test_relabelled_instances(self, data):
        build, names, detect, kind, dual = data.draw(
            st.sampled_from(DEFINITION_CASES))
        m0 = build()
        m = m0.reorder(data.draw(st.permutations(m0.labels)))
        p = m.set_of(names.split())
        rep = detect(m.dual() if dual else m, p)
        assert rep is not None and rep.support == p
        lab = rep.witness["labelling"]
        order, circuits, cocircuits, ascending = DEFINITIONS[kind]
        # in M* the circuits of the template are the cocircuits of M
        circ, cocirc = brute_inner(m, p, dual), brute_inner(m, p, not dual)
        assert read(lab, circuits) == circ
        assert read(lab, cocircuits) == cocirc
        # and the reported labelling is the lex-least one with the
        # ascending pairs in order
        want = next(
            lab2 for lab2 in (dict(zip(order.split(), perm))
                              for perm in itertools.permutations(elems(p)))
            if all(lab2[a] < lab2[b] for a, b in map(str.split, ascending))
            and read(lab2, circuits) == circ
            and read(lab2, cocircuits) == cocirc)
        assert lab == want


def ref_definition(m, p, kind):
    """The lex-least labelling of P that meets `DEFINITIONS[kind]`, with the
    circuits inside P taken from M's circuit list and the cocircuits from
    M*'s, or None."""
    order, circuits, cocircuits, ascending = DEFINITIONS[kind]
    circ, cocirc = ({c for c in mm.circuits() if c & p == c}
                    for mm in (m, m.dual()))
    if (len(circ), len(cocirc)) != (len(circuits), len(cocircuits)):
        return None
    return next((lab for lab in (dict(zip(order.split(), perm))
                                 for perm in itertools.permutations(elems(p)))
                 if all(lab[a] < lab[b] for a, b in map(str.split, ascending))
                 and read(lab, circuits) == circ
                 and read(lab, cocircuits) == cocirc), None)


def _labelling(rep):
    return None if rep is None else rep.witness["labelling"]


class TestSpecialSeparatorsFromTable:
    # each row of SPECIAL_SEPARATORS reads M*'s circuits from M's table;
    # the references build M* (the dual row's reference is the twisted
    # cube-like detector run on M*)
    REFERENCES = {
        "elongated-quad": lambda m, p: ref_definition(m, p, "elongated-quad"),
        "skew-whiff": lambda m, p: ref_definition(m, p, "skew-whiff"),
        "twisted-cube-like-dual":
            lambda m, p: _labelling(detect_twisted_cube_like(m.dual(), p)),
    }

    def test_rows_agree_with_references(self):
        assert [kind for kind, _ in SPECIAL_SEPARATORS] == list(
            self.REFERENCES)
        hits = dict.fromkeys(self.REFERENCES, 0)
        for entry in generate_corpus(0, max_n=10):
            for m in (entry.matroid, entry.matroid.dual()):
                for combo in itertools.combinations(range(m.n), 6):
                    p = mask_of(combo)
                    if lambda_(m, p) != 2:
                        continue
                    for kind, detect in SPECIAL_SEPARATORS:
                        got = _labelling(detect(m, p))
                        assert got == self.REFERENCES[kind](m, p), (
                            entry.name, m.fmt(p), kind)
                        hits[kind] += got is not None
        assert all(hits.values()), hits

    def test_cocircuit_closure_matches_the_dual(self):
        for entry in generate_corpus(0, max_n=7):
            m = entry.matroid
            md = m.dual()
            for s in range(1 << m.n):
                for e in range(m.n):
                    assert _in_cocl(m, s, e) == _in_cl(md, s, e), (
                        entry.name, s, e)

    def test_dual_twisted_cube_found_without_a_dual(self, tmp_path, capsys,
                                                    monkeypatch):
        m = twisted_cube_matroid().dual()
        p = m.set_of(["p1", "p2", "q1", "q2", "s1", "s2"])
        path = tmp_path / "tcd.mtx"
        path.write_text(serialize(m, "tcd"))

        def no_dual(self):
            raise AssertionError("a dual was built")

        monkeypatch.setattr(Matroid, "dual", no_dual)
        m = Matroid(m.n, m.bases, m.labels)
        assert special_separator(m, p) == "twisted-cube-like-dual"
        line = "{p1,p2,q1,q2,s1,s2} p1=p1 p2=p2 q1=q1 q2=q2 s1=s1 s2=s2\n"
        assert main(["separators", str(path)]) == 0
        assert capsys.readouterr().out == "twisted-cube-like-dual " + line
        assert main(["separators", str(path), "--format", "records"]) == 0
        assert capsys.readouterr().out == (
            "kind=twisted-cube-like-dual support=" + line)


GOLDEN = Path(__file__).parent / "golden"


def structure_lines(tmp_path):
    """The text output of `separators` and then of `analyze` on every
    corpus entry with at least six elements, seeds 0 and 11, each line
    prefixed with its command, seed and entry name."""
    entries = [(seed, e) for seed in (0, 11)
               for e in generate_corpus(seed, max_n=13) if e.matroid.n >= 6]
    out = []
    for cmd in ("separators", "analyze"):
        for seed, e in entries:
            path = tmp_path / f"{seed}_{e.name}.mtx"
            path.write_text(serialize(e.matroid, e.name))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main([cmd, str(path)]) == 0
            out += [f"{cmd} seed={seed} name={e.name}: {line}"
                    for line in buf.getvalue().splitlines()]
    return out


def test_structure_outputs_match_golden(tmp_path):
    # frozen before the six-element detectors, the special-separator chain
    # and the fan and flan searches were merged into shared helpers: pins
    # every labelling (primal and dual) and every fan and flan ordering
    lines = structure_lines(tmp_path)
    assert lines == (GOLDEN / "structures.txt").read_text().splitlines()
