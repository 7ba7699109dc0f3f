"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.

Criteria 2 to 7 also compare their verdict lines, without `millis`, with
the frozen ones in tests/golden/.  The registry's file holds the per-check
summary lines, as `verify registry` prints them, and then every verdict
that is not vacuous; the summary counts pin the vacuous ones."""

import re
import time
from pathlib import Path

import numpy as np
import pytest

from matroidkit.core import validate
from matroidkit.cli import main, parse, serialize
from matroidkit.corpus import generate_corpus
from matroidkit.harness import (registry_summary, run_lemma_registry,
                                splitter_check, summary_lines,
                                sweep_foundation,
                                sweep_theorem_triangles,
                                verify_construction_spike,
                                verify_construction_twisted)

REQUIRED_NONZERO = [
    "uncrossing", "closure-complement-swap", "step-extension",
    "boundary-attachment", "guts-coguts-step", "contraction-vertical-split",
    "full-closure-two-separation", "guts-coguts-disjoint",
    "segment-deletion", "one-side-stays-connected",
    "triangle-deletion-triad", "rank3-cocircuit-contraction",
    "rank3-cocircuit-deletion", "closure-meets-once",
    "two-separation-minor-side", "cyclic-separation-labels",
    "parallel-label-switch", "grounded-triangle-contraction",
    "plane-external-deletion", "plane-with-triad-deletion",
    "hinged-plane-deletion-pairs", "six-point-plane-pairs",
    "quad-cocircuit-contraction", "flan-contraction",
    "fan-end-removal", "maximal-fan-end-removal",
]


GOLDEN = Path(__file__).parent / "golden"


def frozen(verdicts):
    return [re.sub(r" millis=\d+$", "", v.line()) for v in verdicts]


def golden(name):
    return (GOLDEN / name).read_text().splitlines()


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(0, max_n=16)


def _report(k, desc, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {k} ({desc}): PASS in {elapsed:.1f}s "
          f"(budget {budget}s)")
    assert elapsed < budget


def test_criterion_1_axioms_and_calculus(corpus):
    t0 = time.perf_counter()
    for entry in corpus:
        m = entry.matroid
        assert validate(m.bases, m.n, m.labels) == m, entry.name
        assert m.dual().dual() == m, entry.name
        if m.n <= 12:
            tab = m.table().astype(np.int16)
            lam1 = tab + tab[::-1] - m.rank
            dtab = m.dual().table().astype(np.int16)
            lam2 = tab + dtab - np.bitwise_count(np.arange(1 << m.n))
            assert bool((lam1 == lam2).all()), entry.name
    _report(1, "axioms, lambda formulas, dual involution", t0, 10)


def test_criterion_2_lemma_registry(corpus):
    t0 = time.perf_counter()
    verdicts = run_lemma_registry(corpus)
    fails = [v for v in verdicts if v.outcome == "fail"]
    assert not fails, [v.line() for v in fails[:5]]
    summary = registry_summary(verdicts)
    for check in REQUIRED_NONZERO:
        assert summary[check]["exercised"] > 0, check
    lines = summary_lines(summary) + frozen(
        v for v in verdicts if v.outcome != "vacuous")
    assert lines == golden("registry.txt")
    _report(2, "registry pass-or-vacuous with coverage", t0, 300)


def test_criterion_3_twisted_cube_replay():
    t0 = time.perf_counter()
    v = verify_construction_twisted()
    assert v.outcome == "pass"
    assert frozen([v]) == golden("constructions.txt")[:1]
    _report(3, "twisted-cube construction replay", t0, 600)


def test_criterion_4_spiked_fano_replay():
    t0 = time.perf_counter()
    v = verify_construction_spike(4, include_free=True)
    assert v.outcome == "pass"
    assert frozen([v]) == golden("constructions.txt")[1:]
    _report(4, "spiked-Fano construction replay, both variants", t0, 600)


def test_criterion_5_triangle_trichotomy_sweep(corpus):
    t0 = time.perf_counter()
    verdicts = sweep_theorem_triangles(corpus, max_m=11)
    assert verdicts
    bad = [v for v in verdicts if v.outcome != "pass"]
    assert not bad, [v.line() for v in bad[:5]]
    assert frozen(verdicts) == golden("triangles.txt")
    _report(5, f"trichotomy sweep over {len(verdicts)} pairs", t0, 1800)


def test_criterion_6_foundation_sweep(corpus):
    t0 = time.perf_counter()
    verdicts = sweep_foundation(corpus, max_m=12)
    assert verdicts, "no corpus instance met the standing hypotheses"
    bad = [v for v in verdicts if v.outcome != "pass"]
    assert not bad, [v.line() for v in bad[:5]]
    names = {v.instance.split("|d=")[0] for v in verdicts}
    assert "twistedcube|nonfano" in names
    assert frozen(verdicts) == golden("foundation.txt")
    _report(6, f"foundation sweep over {len(verdicts)} instances", t0, 1800)


def test_criterion_7_splitter_property(corpus):
    t0 = time.perf_counter()
    verdicts = splitter_check(corpus, max_m=12)
    assert verdicts
    bad = [v for v in verdicts if v.outcome != "pass"]
    assert not bad, [v.line() for v in bad[:5]]
    assert frozen(verdicts) == golden("splitter.txt")
    _report(7, f"splitter property over {len(verdicts)} pairs", t0, 600)


def test_criterion_8_cli(corpus, tmp_path, capsys):
    t0 = time.perf_counter()
    for entry in corpus:
        text = serialize(entry.matroid, entry.name)
        name2, m2 = parse(text)
        assert (name2, m2) == (entry.name, entry.matroid)
        assert serialize(m2, name2) == text

    assert main(["construct", "whirl 3"]) == 0
    whirl3 = capsys.readouterr().out
    assert whirl3.startswith("name whirl3\nelements s1 s2 s3 r1 r2 r3\n")
    assert whirl3.count("{") == 17

    assert main(["construct", "twistedcube"]) == 0
    m4 = tmp_path / "M4.mtx"
    m4.write_text(capsys.readouterr().out)
    assert main(["construct", "nonfano"]) == 0
    f7m = tmp_path / "F7minus.mtx"
    f7m.write_text(capsys.readouterr().out)

    assert main(["detachable", str(m4), "--minor", str(f7m),
                 "--exchange"]) == 0
    assert capsys.readouterr().out == "none\n"

    assert main(["separators", str(m4)]) == 0
    assert capsys.readouterr().out == (
        "twisted-cube-like {p1,p2,q1,q2,s1,s2} "
        "p1=p1 p2=p2 q1=q1 q2=q2 s1=s1 s2=s2\n")
    with capsys.disabled():
        _report(8, "CLI round-trips and documented examples", t0, 300)
