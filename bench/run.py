"""matroidkit benchmark: one workload, timed in fresh interpreters.

    python3 bench/run.py --workload {foundation,replay,cap} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Each timed run of the workload is a new process, so the
program's caches start cold, and processes run one after another.

With `--trace 0` it starts cold processes (set-up, then the timed run)
until S seconds of workload have been timed, at least one.  It adds
set-up-only processes until it has SETUP_SAMPLES set-up times, and reports
the medians of `wall_s` and `setup_s` and the largest `peak_rss_mb`.  With `--trace 1` it runs the
workload once untraced and once under bench/tracer.py and reports the
per-layer metrics listed in BENCHMARK.json.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  It exits 2 without a result when the checkout has no
program to run and 1 when a workload process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class WorkloadDied(Exception):
    pass


def run_child(workload, seed, mode, deadline):
    """One fresh interpreter running `bench/workloads.py`.  Its result, with
    `setup_s` from spawn to its `ready` line, timed by this process."""
    # String hashing feeds set and dict order, so it is seeded like the inputs.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), mode],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    killer.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            last = line
        rc = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise WorkloadDied(f"{workload} {mode} process exited {rc}")
    result = {} if mode == "setup" else json.loads(last)
    result["setup_s"] = ready
    return result


def measure(workload, seed, seconds, trace):
    """(timed results, set-up times, traced result or None)."""
    deadline = time.perf_counter() + DEADLINE_S
    runs, traced = [run_child(workload, seed, "time", deadline)], None
    if trace:
        traced = run_child(workload, seed, "trace", deadline)
        return runs, [], traced
    # Stop before an iteration like the last could overrun the deadline.
    while (sum(r["wall_s"] for r in runs) < seconds
           and time.perf_counter() + 2 * runs[-1]["wall_s"] < deadline):
        runs.append(run_child(workload, seed, "time", deadline))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", deadline)["setup_s"])
    return runs, setups, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("foundation", "replay", "cap"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "matroidkit" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'matroidkit'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        runs, setups, traced = measure(args.workload, args.seed,
                                       args.seconds, args.trace)
    except WorkloadDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = runs + ([traced] if traced else [])
    if any(r["tracer_loaded"] for r in runs):
        print("error: a timed run loaded the tracer", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in everything)
    failed = sorted({op for r in everything for op in r["failed"]})
    n_failed = sum(len(r["failed"]) for r in everything)
    fail_frac = n_failed / attempted

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = traced["wall_s"] / runs[0]["wall_s"] - 1
        values["fail_frac"] = fail_frac
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"workload={args.workload} seed={args.seed} timed_runs={len(runs)} "
          f"setup_samples={len(setups)} traced={bool(traced)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "fail_frac" not in metrics:
        print(f"  fail_frac = {fail_frac:.6g} ratio")
    print(f"  failed operations: {n_failed} of {attempted}")
    for op in failed:
        print(f"  FAILED {op}: "
              + "; ".join(r["errors"].get(op, "wrong output")
                          for r in everything if op in r["failed"]))
    if traced:
        for name in traced["absent"]:
            print(f"  ABSENT {name}: no such function, its metrics read 0")
        print("  largest self times (s):")
        for secs, name in traced["top_self_s"]:
            print(f"    {secs:10.4f}  {name}")
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
