"""Tests of the benchmark's own code: tracer, output checks, result line.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAKE = {
    "__init__.py": "from .core import Matroid, rank_table\n",
    "core.py": """
        class Matroid:
            def __init__(self, n):
                self.n = n

            def delete(self, d):
                return Matroid(self.n - 1)

            def rank_of(self, x):
                return 0


        def rank_table(n, bases):
            return [0] * (1 << n)
        """,
    "minors.py": """
        from .core import Matroid, rank_table

        _memo = {}


        def labellings(m, n_mat):
            rank_table(m.n, ())
            yield 1
            yield 2


        def has_minor(m, n_mat):
            if m.n not in _memo:
                _memo[m.n] = next(labellings(m, n_mat), None)
            return _memo[m.n]
        """,
    "structures.py": """
        def detect_a(m, p):
            return None


        def detect_b(m, p):
            return p


        DETECTORS = (("a", detect_a), ("b", detect_b))
        """,
    "cli.py": """
        from .core import Matroid
        from .structures import DETECTORS
        from .minors import has_minor


        def cmd_run(text):
            m = Matroid(len(text))
            hits = [kind for kind, det in DETECTORS if det(m, 1)]
            return has_minor(m, m), hits
        """,
}


@pytest.fixture
def fake(tmp_path, monkeypatch):
    """A throwaway package shaped like matroidkit, imported fresh."""
    pkg = tmp_path / "fakekit"
    pkg.mkdir()
    for name, body in FAKE.items():
        (pkg / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    for name in [m for m in sys.modules if m.split(".")[0] == "fakekit"]:
        del sys.modules[name]
    yield importlib.import_module("fakekit")
    for name in [m for m in sys.modules if m.split(".")[0] == "fakekit"]:
        del sys.modules[name]


def install(modules=("core", "minors", "structures", "cli", "gone")):
    return tracer.install("fakekit", modules, skip={"core.Matroid.rank_of"})


def test_rebinds_every_holder_and_tags_ground_set_size(fake):
    t = install()
    cli = sys.modules["fakekit.cli"]
    assert cli.cmd_run("abcd") == (1, ["b"])
    assert cli.cmd_run("wxyz") == (1, ["b"])
    stats = t.stats
    # minors and the package imported rank_table by name; both are rebound.
    assert fake.rank_table is sys.modules["fakekit.core"].rank_table
    assert stats[("core.rank_table", 4)][tracer.CALLS] == 1
    # Detectors reached through a module-level tuple are traced too.
    assert stats[("structures.detect_b", 4)][tracer.CALLS] == 2
    assert stats[("structures.detect_b", 4)][tracer.FOUND] == 2
    # An untagged span takes the size its first tagged child worked on.
    assert stats[("cli.cmd_run", 4)][tracer.CALLS] == 2
    assert "core.Matroid.rank_of" not in t.traced
    assert "core.Matroid.delete" in t.traced


def test_generator_is_charged_per_resumption_and_cache_hits_counted(fake):
    t = install()
    cli = sys.modules["fakekit.cli"]
    cli.cmd_run("abcd")
    cli.cmd_run("efgh")
    cli.cmd_run("abcdefg")
    values, _ = tracer.layer_metrics(
        ["minors.labellings.calls", "minors.has_minor.calls",
         "minors.cache_hit_ratio", "core.rank_table.cells",
         "core.rank_table.n4.calls"], t)
    assert values["minors.labellings.calls"] == 2
    assert values["minors.has_minor.calls"] == 3
    assert values["minors.cache_hit_ratio"] == pytest.approx(1 / 3)
    assert values["core.rank_table.cells"] == 2 ** 4 + 2 ** 7
    assert values["core.rank_table.n4.calls"] == 1
    # The generator's resumption is a child span of has_minor.
    row = t.stats[("minors.labellings", 4)]
    assert row[tracer.SELF] > 0
    assert row[tracer.INCL] >= t.stats[("core.rank_table", 4)][tracer.INCL]


def test_self_times_add_up_to_covered_wall():
    ticks = iter(range(10 ** 6))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    leaf = t.wrap(lambda m: m, "x.leaf")
    mid = t.wrap(lambda m: (leaf(m), leaf(m)), "x.mid")
    mid(1)
    leaf(2)
    mid(3)
    self_total = sum(row[tracer.SELF] for row in t.stats.values())
    assert self_total == t.covered()
    values, _ = tracer.layer_metrics(["trace.uncovered_frac"], t)
    # layer_metrics read the clock once more: that tick is uncovered wall.
    wall = t.clock() - 1 - t.started
    assert self_total == pytest.approx(wall * (1 - values["trace.uncovered_frac"]))
    assert 0 < values["trace.uncovered_frac"] < 1


def test_missing_name_is_reported_not_fatal(fake):
    t = install()
    values, absent = tracer.layer_metrics(
        ["minors.labellings.self_s", "minors.has_minor_gone.calls",
         "gone.thing.self_s", "core.is_isomorphic.found_ratio"], t)
    assert absent == ["core.is_isomorphic", "gone.thing",
                      "minors.has_minor_gone"]
    assert values["minors.has_minor_gone.calls"] == 0
    assert values["core.is_isomorphic.found_ratio"] == 0


def test_normalize_drops_element_order_and_witnesses():
    a = ("twisted-cube-like {p1,p2,q1,q2,s1,s2} p1=p1 p2=p2\n"
         "spike-like {b,a} legs {a} {b}\n")
    b = ("spike-like {a,b} legs {b} {a}\n"
         "twisted-cube-like {s2,s1,q2,q1,p2,p1} p1=p2 p2=p1\n")
    assert (workloads.normalize("separators", a)
            == workloads.normalize("separators", b))
    assert workloads.normalize("analyze", "fans (c,b,a) (e,d,f)\n") == \
        ["fans {a,b,c} {d,e,f}"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corrupted_record_fails_the_check(workload):
    golden = workloads.load_golden(workload)
    assert golden, f"no golden records for {workload}"
    state = _state(workload)
    seed = workloads.PINNED_SEED
    assert workloads.check(workload, seed, state, dict(golden), {}, golden) \
        == (len(golden), [])
    op = sorted(golden)[0]
    corrupted = dict(golden, **{op: golden[op] + ["corrupted"]})
    attempted, failed = workloads.check(workload, seed, state, corrupted, {},
                                        golden)
    assert failed == [op] and attempted == len(golden)
    missing = {k: v for k, v in golden.items() if k != op}
    assert workloads.check(workload, seed, state, missing, {}, golden)[1] == [op]
    raised = workloads.check(workload, seed, state, missing,
                             {op: "ValueError: boom"}, golden)
    assert raised == (len(golden), [op])


def _state(workload):
    """Set-up state of the pinned seed, as far as the seed facts read it."""
    if workload == "cap":
        rec = workloads.load_golden("cap")
        return [(n, None, None, None,
                 int(next(l for l in rec[f"analyze n{n}"]
                          if l.startswith("elements")).split()[-1]))
                for n in workloads.CAP_SIZES]
    return None


def test_seed_facts_catch_wrong_output_on_any_seed():
    golden = workloads.load_golden("foundation")
    records = {op: [line.replace("outcome=pass", "outcome=fail")]
               for op, (line,) in golden.items()}
    _, failed = workloads.check("foundation", 7, None, records, {}, golden)
    assert failed == sorted(golden)
    rec = {"analyze n16": ["elements 16 rank 4 bases 1799"]}
    state = [(16, None, None, None, 1800)]
    assert workloads.Cap().facts(state, rec, {}) == ["analyze n16"]
    golden = workloads.load_golden("replay")
    wrong = dict(golden, **{"detachable twistedcube": ["contract {a,b}"]})
    assert workloads.check("replay", 7, None, wrong, {}, golden)[1] == \
        ["detachable twistedcube"]


def test_result_line_counts_failures(monkeypatch, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {m["name"]: 1.0 for m in spec["per_layer"]}

    def child(workload, seed, mode, deadline):
        failed = ["analyze n16"] if mode == "trace" else []
        return {"wall_s": 2.0, "peak_rss_mb": 10.0, "attempted": 4,
                "failed": failed, "errors": {}, "tracer_loaded": mode == "trace",
                "setup_s": 0.5, "layers": layers, "absent": ["cli.gone"],
                "top_self_s": []}
    monkeypatch.setattr(run, "run_child", child)

    assert run.main(["--workload", "cap", "--seed", "1", "--seconds", "3"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 8
    assert set(out["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert out["metrics"]["setup_s"]["value"] == 0.5

    assert run.main(["--workload", "cap", "--seed", "1", "--seconds", "3",
                     "--trace", "1"]) == 0
    text = capsys.readouterr().out
    out = json.loads(text.splitlines()[-1])
    assert not out["correct"] and out["failed"] == 1
    assert out["metrics"]["fail_frac"]["value"] == pytest.approx(1 / 8)
    assert set(out["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "ABSENT cli.gone" in text


def test_untraced_process_loads_no_tracer():
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import workloads;"
            "workloads.run_workload('replay', 1, 'setup', out=io.StringIO());"
            "print(sorted(m for m in sys.modules if 'tracer' in m))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_refuses_checkout_without_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "workloads.py", "tracer.py"):
        (tmp_path / "bench" / f).write_text((HERE / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
