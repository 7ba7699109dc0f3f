"""Harness-level behaviour: registry plumbing, verifier hypothesis gates,
corpus determinism."""

import hashlib
from pathlib import Path

import pytest

from matroidkit.core import Matroid, bit

from matroidkit.builders import (fano, nonfano, relax, twisted_cube_matroid,
                                 uniform, wheel, whirl)
from matroidkit.connectivity import is_3_connected, is_connected
from matroidkit.corpus import elongated_quad_glued, generate_corpus, two_sum
from matroidkit.harness import (MATROID_CHECKS, PAIR_CHECKS, Check,
                                _check_verdict,
                                is_wheel_or_whirl, run_lemma_registry,
                                sweep_theorem_triangles,
                                verify_flan_corollary, verify_foundation,
                                verify_theorem_main,
                                verify_theorem_triangles)
from matroidkit.minors import HypothesisUnmet, has_minor
from matroidkit.structures import triangles
from matroidkit.cli import serialize

GOLDEN = Path(__file__).parent / "golden"


def corpus_lines(seed, max_n=16):
    """One line per corpus entry: name, size, rank, labels and the sha256
    of the rank table's bytes."""
    out = []
    for e in generate_corpus(seed, max_n=max_n):
        m = e.matroid
        digest = hashlib.sha256(m.table().tobytes()).hexdigest()
        out.append(f"seed={seed} name={e.name} n={m.n} rank={m.rank} "
                   f"labels={','.join(m.labels)} table_sha256={digest}")
    return out


class TestCorpus:
    def test_matches_golden(self):
        # frozen from a Fraction elimination per r-subset, the method of
        # ref_from_vectors in test_oracles.py
        lines = corpus_lines(0) + corpus_lines(11)
        assert lines == (GOLDEN / "corpus.txt").read_text().splitlines()

    def test_deterministic(self):
        a = generate_corpus(7, max_n=12)
        b = generate_corpus(7, max_n=12)
        assert [e.name for e in a] == [e.name for e in b]
        assert all(x.matroid == y.matroid for x, y in zip(a, b))
        texts_a = [serialize(e.matroid, e.name) for e in a]
        texts_b = [serialize(e.matroid, e.name) for e in b]
        assert texts_a == texts_b

    def test_different_seed_changes_random_tail(self):
        a = generate_corpus(0, max_n=12)
        b = generate_corpus(1, max_n=12)
        sparse_a = [e.matroid for e in a if e.name.startswith("sparse")]
        sparse_b = [e.matroid for e in b if e.name.startswith("sparse")]
        assert sparse_a and sparse_b and sparse_a != sparse_b

    def test_size_cap_respected(self):
        for e in generate_corpus(0, max_n=10):
            assert e.matroid.n <= 10

    def test_wheel_whirl_recognition(self):
        assert is_wheel_or_whirl(wheel(4))
        assert is_wheel_or_whirl(whirl(3))
        assert is_wheel_or_whirl(uniform(2, 4))   # the rank-2 whirl
        assert not is_wheel_or_whirl(fano())
        assert not is_wheel_or_whirl(twisted_cube_matroid())


def _failed_columns(row, m):
    """The hypothesis columns of registry row `row` that M fails."""
    conn_ok = {0: True, 2: is_connected(m), 3: is_3_connected(m)}[row.conn]
    return {col for col, ok in (
        ("conn", conn_ok), ("least_n", m.n >= row.least_n),
        ("least_rank", m.rank >= row.least_rank),
        ("wheels", row.wheels or not is_wheel_or_whirl(m))) if not ok}


def _column_breakers(row):
    """(column, M) for each hypothesis column of `row`, with M failing that
    column: a 2-sum for 3-connectivity, U(2,4) plus a coloop for
    connectivity, a uniform matroid below the least size, U(3,6) below the
    least rank, and the rank-4 wheel and whirl."""
    u24 = uniform(2, 4)
    if row.conn == 3:
        yield "conn", two_sum(wheel(3), "s1", u24, "a")
    if row.conn == 2:
        yield "conn", Matroid(5, [b | bit(4) for b in u24.bases])
    if row.least_n:
        yield "least_n", uniform(2, row.least_n - 1)
    if row.least_rank:
        yield "least_rank", uniform(3, 6)
    if not row.wheels:
        yield "wheels", wheel(4)
        yield "wheels", whirl(4)


def _yielding(*cases):
    """A registry check that yields `cases` on any M."""
    def check_synthetic(m):
        yield from cases
    return check_synthetic


def check_resumed_after_witness(m):
    """A registry check whose second case fails, and that raises if it is
    run on past that witness."""
    yield None
    yield "w"
    raise AssertionError("resumed after its witness")


class TestRegistryPlumbing:
    def test_every_check_has_unique_name(self):
        names = [row.name for row in MATROID_CHECKS + PAIR_CHECKS]
        assert len(names) == len(set(names)) == 26

    @pytest.mark.parametrize(
        "row", [r for r in MATROID_CHECKS + PAIR_CHECKS
                if r.name != "closure-complement-swap"],
        ids=lambda r: r.name)
    def test_each_hypothesis_column_makes_vacuous(self, row):
        # every other column holds, and for a pair check N = U(2,4) is a
        # 3-connected minor of M, so the one failed column is the cause
        pair = [uniform(2, 4)] if row in PAIR_CHECKS else []
        breakers = list(_column_breakers(row))
        assert breakers
        for col, m in breakers:
            assert _failed_columns(row, m) == {col}
            assert all(has_minor(m, n) is not None for n in pair)
            v = _check_verdict(row, "m", m, *pair)
            assert (v.outcome, v.exercised) == ("vacuous", 0), (col, v)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: fan-end-removal and plane-with-triad-deletion "
        "fail on relax(whirl(3), t), a 6-element matroid outside the "
        "corpus"))
    def test_roadmap_item_1_witness(self):
        w = whirl(3)
        rows = [r for r in MATROID_CHECKS if r.name in
                ("fan-end-removal", "plane-with-triad-deletion")]
        assert len(rows) == 2
        for t in triangles(w):
            m = relax(w, t)
            for row in rows:
                assert _check_verdict(row, "m", m).outcome != "fail"

    def test_vacuous_reported_distinctly(self):
        small = generate_corpus(0, max_n=6)
        verdicts = run_lemma_registry(small)
        outcomes = {v.outcome for v in verdicts}
        assert "vacuous" in outcomes and "fail" not in outcomes

    def test_fail_carries_witness(self):
        # the runner counts the cases up to and including the first witness
        v = _check_verdict(Check(_yielding(None, None, ("w",)), conn=0),
                           "m", uniform(2, 4))
        assert (v.check, v.outcome, v.exercised, v.witness) == \
            ("synthetic", "fail", 3, ("w",))
        assert " witness=('w',) " in v.line()

    def test_runner_stops_at_first_witness(self):
        with pytest.raises(AssertionError, match="resumed"):
            list(check_resumed_after_witness(None))
        v = _check_verdict(Check(check_resumed_after_witness, conn=0), "m",
                           uniform(2, 4))
        assert (v.outcome, v.exercised, v.witness) == ("fail", 2, "w")

    @pytest.mark.parametrize("k", [1, 7])
    def test_runner_counts_every_pass(self, k):
        v = _check_verdict(Check(_yielding(*[None] * k), conn=0), "m",
                           uniform(2, 4))
        assert (v.outcome, v.exercised, v.witness) == ("pass", k, None)

    def test_runner_no_case_is_vacuous(self):
        v = _check_verdict(Check(_yielding(), conn=0), "m", uniform(2, 4))
        assert (v.outcome, v.exercised, v.witness) == ("vacuous", 0, None)

    def test_witness_shrinker(self):
        from matroidkit.harness import shrink_mask
        # violation: mask still covers bits {1, 3}; minimal witness is both
        got = shrink_mask(lambda x: (x & 0b01010) == 0b01010, 0b11111)
        assert got == 0b01010


class TestVerifierGates:
    def test_triangles_gap_gate(self):
        with pytest.raises(HypothesisUnmet):
            verify_theorem_triangles(uniform(3, 7), uniform(3, 5))

    def test_triangles_minor_gate(self):
        with pytest.raises(HypothesisUnmet):
            verify_theorem_triangles(fano().dual(), uniform(2, 4).dual())

    def test_main_gap_gate(self):
        with pytest.raises(HypothesisUnmet):
            verify_theorem_main(uniform(4, 12), uniform(4, 8))

    def test_main_fast_path(self):
        v = verify_theorem_main(uniform(4, 18), uniform(4, 8))
        assert v.outcome == "pass"

    def test_triangles_branches(self):
        v = verify_theorem_triangles(uniform(2, 9), uniform(2, 4))
        assert v.outcome == "pass" and v.witness == "detachable-pair"
        v = verify_theorem_triangles(whirl(5), uniform(2, 4))
        assert v.outcome == "pass" and v.witness == "detachable-after-exchange"

    def test_flan_corollary_detector_branch(self):
        m = elongated_quad_glued()
        d = m.id_of("q1")
        order = [m.id_of(x) for x in ("p1", "p2", "q3", "q4", "q2")]
        v = verify_flan_corollary(m, fano(), d, order)
        assert v.outcome == "pass" and v.witness == "elongated-quad"

    def test_flan_corollary_gate(self):
        m = elongated_quad_glued()
        with pytest.raises(HypothesisUnmet):
            verify_flan_corollary(m, fano(), m.id_of("w1"),
                                  [m.id_of(x) for x in
                                   ("p1", "p2", "q3", "q4", "q2")])

    def test_foundation_rejects_instances_with_pairs(self):
        m = uniform(2, 9)
        with pytest.raises(HypothesisUnmet):
            verify_foundation(m, uniform(2, 4), 0, 1,
                              m.set_of("cdef"), m.set_of("ghi"))

    def test_foundation_rejects_a_deletion_that_is_not_3_connected(self):
        # U(2,4) is no minor of the binary wheel, so the hypotheses on the
        # pair hold vacuously; deleting a spoke leaves a series pair
        m = wheel(4)
        with pytest.raises(HypothesisUnmet, match="not 3-connected"):
            verify_foundation(m, uniform(2, 4), 0, 4,
                              m.set_of(["s2", "s3", "r2", "r3"]),
                              m.set_of(["s4", "r4", "r1"]))

    @staticmethod
    def _twisted_instance():
        # the first instance of tests/golden/foundation.txt
        m = twisted_cube_matroid()
        d, dp = m.id_of("s1"), m.id_of("s2")
        y = m.set_of(["p1", "p2", "q1", "q2"])
        return m, d, dp, y, m.full ^ bit(d) ^ bit(dp) ^ y

    @pytest.mark.parametrize("case", ["golden", "not-cyclic", "overlap-in-Y",
                                      "overlap-at-d"])
    def test_foundation_instance_is_a_cyclic_partition(self, case):
        m, d, dp, y, z = self._twisted_instance()
        move = bit(m.id_of("q2")) | bit(m.id_of("t1"))
        y, z = {"golden": (y, z),
                "not-cyclic": (y ^ move, z ^ move),
                "overlap-in-Y": (y, z | bit(m.id_of("q2"))),
                # once accepted: Y and Z each hold d, which M \ d drops
                "overlap-at-d": (y | bit(d), z | bit(d))}[case]
        if case == "golden":
            assert verify_foundation(m, nonfano(), d, dp, y, z).outcome \
                == "pass"
            return
        with pytest.raises(HypothesisUnmet, match="cyclic 3-separation"):
            verify_foundation(m, nonfano(), d, dp, y, z)


class TestSweeps:
    def test_triangles_sweep_small(self):
        corpus = generate_corpus(0, max_n=9)
        verdicts = sweep_theorem_triangles(corpus, max_m=9)
        assert verdicts
        assert all(v.outcome == "pass" for v in verdicts)

    def test_foundation_public_verifier_agrees_with_sweep(self):
        # The sweep decides the hypotheses on (M, N) once per pair and skips
        # them per instance; the public verifier re-checks every one.  Its
        # verdicts are the frozen ones of criterion 6 on corpus seed 0.
        corpus = {e.name: e.matroid for e in generate_corpus(0, max_n=16)}
        lines = (GOLDEN / "foundation.txt").read_text().splitlines()
        assert lines
        for line in lines:
            rec = dict(tok.split("=", 1) for tok in line.split())
            m_name, n_name, d, dp, y = rec["instance"].split("|")
            m = corpus[m_name]
            d, dp = m.id_of(d[len("d="):]), m.id_of(dp[len("d'="):])
            y = m.set_of(y[len("Y={"):-1].split(","))
            z = m.full ^ bit(d) ^ bit(dp) ^ y
            v = verify_foundation(m, corpus[n_name], d, dp, y, z)
            assert (v.outcome, v.witness) == (rec["outcome"], rec["witness"])
