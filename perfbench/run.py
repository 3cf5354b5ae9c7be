"""Run one nlcs benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload desk_panels --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run it from anywhere inside a source checkout: it imports ``nlcs`` from the
checkout's ``src`` directory and refuses to run without one.  Each workload
runs in its own worker process with the BLAS thread count pinned to 1; with
``--trace 0`` the set-up is also repeated in a few short-lived processes so
that ``setup_s`` is a median.  The metric names and units come from
BENCHMARK.json: every ``end_to_end`` metric with ``--trace 0``, every
``per_layer`` metric with ``--trace 1``.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Scratch files go to ``.bench_run/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: extra set-up-only processes per untimed run; setup_s is the median of these and the run's own
SETUP_PROBES = 6
#: workers of one workload still running this long after its start are killed, and the run fails
WORKLOAD_TIMEOUT_S = 170
#: notes (failed checks) printed per run; the count is always printed
MAX_NOTES = 20


def start_worker(workload, seed, seconds, trace, phase, workdir: Path, deadline: float) -> dict:
    out = workdir / f"{phase}.json"
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--phase", phase, "--workdir", str(workdir), "--out", str(out), "--t0"]
    cmd.append(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    # the worker's own output is diagnostics only; the result comes back in `out`
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({phase}) exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    workdir = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [] if trace else [
            start_worker(workload, seed, seconds, trace, "setup", workdir, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        res = start_worker(workload, seed, seconds, trace, "run", workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    values = dict(res["values"], setup_s=statistics.median(setups + [res["setup_s"]]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "samples": res["samples"],
        "notes": res["notes"],
        "digests": res["digests"],
        "env": res["env"],
    }


def report(workload: str, r: dict) -> None:
    print(f"== {workload}: {r['attempted']} ops attempted, {r['failed']} failed, "
          f"{r['samples']} latency samples")
    print("env " + json.dumps(r["env"], sort_keys=True))
    if r["digests"]:
        print("digests " + json.dumps(r["digests"], sort_keys=True))
    for note in r["notes"][:MAX_NOTES]:
        print("check failed: " + note)
    if len(r["notes"]) > MAX_NOTES:
        print(f"... {len(r['notes']) - MAX_NOTES} more failed checks")
    for name, m in r["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "nlcs" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: the benchmark needs src/nlcs and BENCHMARK.json in {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ["all"], required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for w in chosen:
        try:
            results[w] = run_workload(w, args.seed, args.seconds, args.trace, spec)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 1
        report(w, results[w])

    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
