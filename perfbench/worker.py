"""One benchmark workload in one process: set-up, the run, its checks.

run.py starts this script with the BLAS thread count pinned in the
environment and ``src`` on PYTHONPATH.  Set-up is everything up to the first
timed op -- interpreter start, ``import nlcs``, generating the inputs from
the seed and writing configs -- and is measured from the moment run.py
started the process.  Phase ``setup`` stops there; phase ``run`` goes on:

* ``--trace 0`` runs passes over the inputs until ``--seconds`` are used
  (at least two, so every run checks determinism), timing each op;
* ``--trace 1`` alternates traced and untimed passes, starting with a
  traced one, for the same time (at least three passes, so that two traced
  passes can be compared for exact counts).  The tracing overhead compares
  the untimed passes' rate with that of the traced passes after the first,
  which carries the warm-up; alternating keeps slow spells of the host from
  landing on one side only.

The raw values go to ``--out`` as JSON; run.py picks the reported metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import nlcs
import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PIN_REASON = (
    "measured on a 2-core box: desk panels 89-98 trials/s with 1 BLAS thread against "
    "65-79 with 2, large preset 9.9-10.1 against 4.5-5.4; two threads are slower and "
    "spread wider, so they measure the scheduler"
)


class Tally:
    """Ops, op times, failures and first-pass digests of one run."""

    def __init__(self):
        self.ops = 0
        self.wall = 0.0
        self.latencies: list[float] = []
        self.failed = 0
        self.notes: list[str] = []
        self.digests: dict[int, str] = {}

    def add(self, gi: int, res) -> None:
        self.ops += res.ops
        self.wall += res.wall
        self.latencies.extend(res.latencies)
        failed = res.failed
        if res.digest is not None:
            first = self.digests.setdefault(gi, res.digest)
            if res.digest != first:
                self.notes.append(f"group {gi}: digest {res.digest} != first pass {first}")
                failed = res.ops
        self.failed += failed
        self.notes.extend(res.notes)


def run_pass(workload, tally: Tally, p: int, deadline: float | None = None,
             tracer=None) -> bool:
    """Run pass ``p`` over the workload's op groups.  Returns False when the
    deadline (a ``perf_counter`` value) cut the pass short."""
    for gi, group in enumerate(workload.groups):
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        if tracer is not None:
            tracer.begin_unit(tally.ops)
        res = workload.run_group(group)
        if tracer is not None:
            tracer.end_unit(p, res.ops, int(res.wall * 1e9))
        tally.add(gi, res)
    if tracer is not None:
        tracer.mark_complete(p)
    return True


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (the checkout has no git metadata)"


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": _proc_field("/proc/self/status", "Threads"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "git_commit": git_commit(),
        "blas_pin_reason": PIN_REASON,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at process start")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(nlcs.__file__).resolve().parents:
        print(f"nlcs was imported from {nlcs.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    result = {"setup_s": setup_s}
    if args.phase == "run":
        result.update(run(workload, args.seconds, args.trace))
        result["env"] = environment()
    workload.close()
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


def run(workload, seconds: float, trace: int) -> dict:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    if not trace:
        p = 0
        while run_pass(workload, tally, p, deadline if p >= 2 else None):
            p += 1
        ms = np.array(tally.latencies) * 1e3
        values = {
            "ops_per_s": tally.ops / tally.wall,
            "op_p50_ms": float(np.percentile(ms, 50)),
            "op_p90_ms": float(np.percentile(ms, 90)),
            "success_rate": (tally.ops - tally.failed) / tally.ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tracer = tracing.Tracer()
        untimed_ops, untimed_wall = 0, 0.0
        p = 0
        while True:
            traced = p % 2 == 0
            ops, wall = tally.ops, tally.wall
            if traced:
                tracer.install()
            try:
                complete = run_pass(workload, tally, p, deadline if p >= 3 else None,
                                    tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if not traced:
                untimed_ops += tally.ops - ops
                untimed_wall += tally.wall - wall
            if not complete:
                break
            p += 1
        for p, msgs in tracing.drift(tracer.passes).items():
            tally.failed += tracer.passes[p].ops
            tally.notes.extend(f"count drift in traced pass {p}: {m}" for m in msgs)
        values = tracing.layer_metrics(tracer.passes, untimed_ops / untimed_wall)
    return {
        "values": values,
        "attempted": tally.ops,
        "failed": tally.failed,
        "samples": len(tally.latencies),
        "notes": tally.notes,
        "digests": {str(k): v for k, v in sorted(tally.digests.items())},
    }


if __name__ == "__main__":
    sys.exit(main())
