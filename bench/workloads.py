"""The benchmark's workloads, each run once in a fresh interpreter.

    python3 bench/workloads.py WORKLOAD SEED MODE

MODE is `setup` (build the inputs and stop), `time` (then run the workload
untraced) or `trace` (install bench/tracer.py first).  The process prints
`ready` once its inputs are built and, unless MODE is `setup`, one JSON
result line at the end.  A fresh process per run is what keeps every cache
of the program cold; the benchmark never clears or reads one itself.

Every workload turns its output into records, one list of normalised lines
per operation, and checks them: against the golden records in
bench/golden/ when SEED is PINNED_SEED, and against facts that hold for any
seed otherwise.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
PINNED_SEED = 0


def import_program():
    """Import matroidkit from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import matroidkit
    if src not in Path(matroidkit.__file__).resolve().parents:
        raise SystemExit(f"matroidkit imported from {matroidkit.__file__}, "
                         f"not from {src}")
    return matroidkit


def _quiet(fn, *args):
    """fn(*args) with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fn(*args)
    return rc, out.getvalue(), err.getvalue()


def _canon(token: str) -> str:
    return "{" + ",".join(sorted(token[1:-1].split(","))) + "}"


def normalize(command: str, text: str) -> list[str]:
    """CLI output as sorted lines whose sets are sorted label sets.

    Element order, witness assignments and the orientation of fans depend
    on the order of the input's `elements` line, so they are dropped: a
    `separators` hit keeps only its kind and support.
    """
    lines = []
    for line in text.splitlines():
        toks = line.split()
        if command == "separators":
            toks = toks[:2]
        words = [t for t in toks if t[0] not in "{("]
        sets = sorted(_canon(t) for t in toks if t[0] in "{(")
        lines.append(" ".join(words + sets))
    return sorted(lines)


# ---------------------------------------------------------------------------
# foundation: acceptance criterion 6, the foundation sweep


class Foundation:
    """The foundation sweep over the seeded corpus.  Core's minor
    construction carries it, with heavy reuse of cached minor answers."""

    def setup(self, mk, seed, workdir):
        return mk.generate_corpus(seed, max_n=16)

    def ops(self, mk, corpus):
        from matroidkit import harness

        def sweep():
            return {v.instance: [re.sub(r" millis=\d+", "", v.line())]
                    for v in harness.sweep_foundation(corpus, max_m=12)}
        yield "sweep", sweep

    def facts(self, corpus, records, golden):
        bad = [op for op, lines in records.items()
               if " outcome=pass " not in lines[0]]
        if not any(op.startswith("twistedcube|nonfano|") for op in records):
            bad.append("twistedcube|nonfano")
        # Verdicts on fixed corpus entries do not depend on the seed.
        bad += [op for op, lines in golden.items()
                if "sparse8_" not in op and records.get(op) != lines]
        return bad


# ---------------------------------------------------------------------------
# replay: the README's CLI session on the reference constructions


REPLAY_PAIRS = (("twistedcube", "nonfano"), ("spikedfano", "fano"),
                ("spikedfano-free", "fano"))


class Replay:
    """`analyze`, `separators` and `detachable --exchange` on the three
    reference constructions.  Minor search with little reuse dominates, and
    only here do the delta-wye and wye-delta exchanges run."""

    def setup(self, mk, seed, workdir):
        from matroidkit import cli
        rng = random.Random(seed)
        paths = {}
        for name in sorted({x for pair in REPLAY_PAIRS for x in pair}):
            _, text, _ = _quiet(cli.main, ["construct", name])
            lines = text.splitlines()
            labels = lines[1].split()[1:]
            rng.shuffle(labels)
            lines[1] = "elements " + " ".join(labels)
            paths[name] = Path(workdir) / f"{name}.mtx"
            paths[name].write_text("\n".join(lines) + "\n")
        return paths

    def ops(self, mk, paths):
        for m, n in REPLAY_PAIRS:
            for argv in (["analyze", str(paths[m])],
                         ["separators", str(paths[m])],
                         ["detachable", str(paths[m]), "--minor",
                          str(paths[n]), "--exchange"]):
                yield f"{argv[0]} {m}", _cli_op(argv)

    def facts(self, paths, records, golden):
        bad = [op for op, lines in records.items()
               if op.startswith("detachable ") and lines != ["none"]]
        # Normalised records do not depend on the element order, so they
        # match the golden ones on every seed.
        return bad + [op for op, lines in golden.items()
                      if records.get(op) != lines]


def _cli_op(argv):
    """An operation running `matroidkit ARGV` and recording its output."""
    def op():
        from matroidkit import cli
        rc, out, err = _quiet(cli.main, argv)
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.strip()}")
        return normalize(argv[0], out)
    return op


# ---------------------------------------------------------------------------
# cap: seeded sparse-paving matroids up to the 24-element cap


CAP_SIZES = (16, 20, 24)
CAP_SEPARATORS = (16, 20)
CAP_RANK = 4


def sparse_paving_hyperplanes(rng, r_sets, n, r):
    """A seeded family of r-sets meeting pairwise in at most r-2 elements;
    declared circuit-hyperplanes, they give a sparse paving matroid."""
    chosen = []
    target = rng.randint(n // 2, 2 * n)
    cands = list(r_sets)
    rng.shuffle(cands)
    for q in cands:
        if len(chosen) == target:
            break
        if all((q & c).bit_count() <= r - 2 for c in chosen):
            chosen.append(q)
    return chosen


class Cap:
    """`analyze` and `separators` at n = 16, 20, 24 plus 3-connectivity of
    a single-element deletion and contraction.  Numpy table kernels and
    memory dominate and no minor search runs, so a minors change should
    leave this workload unchanged."""

    def setup(self, mk, seed, workdir):
        from matroidkit import cli
        rng = random.Random(seed)
        inputs = []
        for n in CAP_SIZES:
            r_sets = [sum(1 << i for i in c)
                      for c in itertools.combinations(range(n), CAP_RANK)]
            hyper = set(sparse_paving_hyperplanes(rng, r_sets, n, CAP_RANK))
            bases = [b for b in r_sets if b not in hyper]
            m = mk.Matroid(n, bases, [f"e{i}" for i in range(n)])
            path = Path(workdir) / f"cap{n}.mtx"
            path.write_text(cli.serialize(m, f"cap{n}"))
            inputs.append((n, path, m, rng.randrange(n), len(bases)))
        return inputs

    def ops(self, mk, inputs):
        for n, path, m, e, _ in inputs:
            yield f"analyze n{n}", _cli_op(["analyze", str(path)])
            if n in CAP_SEPARATORS:
                yield f"separators n{n}", _cli_op(["separators", str(path)])
            for kind, minor in (("delete", m.delete), ("contract", m.contract)):
                yield (f"3-connected {kind} n{n}",
                       lambda label=m.labels[e], minor=minor, e=e: [
                           f"{label} {mk.is_3_connected(minor(1 << e))}"])

    def facts(self, inputs, records, golden):
        bad = []
        for n, _, _, _, nbases in inputs:
            want = f"elements {n} rank {CAP_RANK} bases {nbases}"
            if want not in records.get(f"analyze n{n}", [want]):
                bad.append(f"analyze n{n}")
        return bad


WORKLOADS = {"foundation": Foundation(), "replay": Replay(), "cap": Cap()}


# ---------------------------------------------------------------------------


def load_golden(workload: str) -> dict:
    path = GOLDEN / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check(workload, seed, state, records, errors, golden):
    """(operations attempted, sorted names of the failed ones).

    An operation fails when it raised, when it broke a fact that holds for
    every seed, or, on the pinned seed, when it is missing, extra or
    different against the golden records.
    """
    ops = set(records) | set(errors)
    bad = set(errors)
    bad.update(WORKLOADS[workload].facts(state, records, golden))
    if seed == PINNED_SEED:
        ops |= set(golden)
        bad.update(op for op in ops if op not in errors
                   and records.get(op) != golden.get(op))
    ops |= bad
    return max(len(ops), 1), sorted(bad)


def run_workload(workload, seed, mode, out=sys.stdout):
    """Set up, report `ready`, then run, check and report one JSON line."""
    mk = import_program()
    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(HERE))
        import tracer as tracing
        tracer = tracing.install()
    wl = WORKLOADS[workload]
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        state = _quiet(wl.setup, mk, seed, tmp)[0]
        print("ready", file=out, flush=True)
        if mode == "setup":
            return None
        golden = load_golden(workload)
        records, errors = {}, {}
        t0 = time.perf_counter()
        for name, op in wl.ops(mk, state):
            try:
                got = _quiet(op)[0]
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors[name] = f"{type(exc).__name__}: {exc}"
                continue
            records.update(got if isinstance(got, dict) else {name: got})
        attempted, failed = check(workload, seed, state, records, errors,
                                  golden)
        wall = time.perf_counter() - t0
    result = {
        "wall_s": wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "records": records,
        "tracer_loaded": "tracer" in sys.modules,
    }
    if tracer is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["per_layer"]]
        result["layers"], result["absent"] = tracing.layer_metrics(names,
                                                                   tracer)
        self_s = {}
        for (name, _), row in tracer.stats.items():
            self_s[name] = self_s.get(name, 0.0) + row[tracing.SELF]
        result["top_self_s"] = sorted(
            ((secs, name) for name, secs in self_s.items()), reverse=True)[:12]
    print(json.dumps(result), file=out, flush=True)
    return result


if __name__ == "__main__":
    run_workload(sys.argv[1], int(sys.argv[2]), sys.argv[3])
