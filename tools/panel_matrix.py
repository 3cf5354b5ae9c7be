"""Experiment-panel identity matrix: run a fixed set of seeded l1
experiment panels in process and print one line per panel.

    python3 tools/panel_matrix.py > panels.txt
    python3 tools/panel_matrix.py --full > panels_full.txt

Run it from anywhere inside a source checkout: it imports ``nlcs`` from the
checkout's ``src`` directory and writes the panels' output files to a
temporary directory.  A line is

    <label> <sha256 of the output files> <digest of the solve records> solves=<n> steps=<total>

with each digest cut to 16 hex digits.  The file digest covers every file
``emit_reports`` writes (``trials.csv``, ``summary.json`` and the
``signal_<i>.csv`` overlays), in name order.  A solve record is

    <trial> <Newton steps> <returned iterate> <status> <certified> <certify_l1 calls> <QR fallbacks>

collected from outside the package by wrapping, at their module globals,
``experiment.recover_via_linearization`` (the trial count),
``recovery.solve_standard_form``, ``recovery.certify_l1`` and
``lp._gram_factor``, called once per Newton step: it returns the Gram and
its Cholesky factor, or None when the step takes the Householder QR
fallback, so counting None returns counts those fallbacks exactly.  The
starting point's own QR fallback (when 2 B B' overflows or its LU fails)
is not counted; no panel here takes it.
Diffing the output of two checkouts shows every panel whose files or
solver path changed; with ``--full`` each panel line is followed by its
records, indented by four spaces, so that the same diff names the trials
that moved.

The panels: the six desk panels (64x128, k = 10, 100 trials) at config
seed 0 with the benchmark's map specs; the large sign/pre and square/post
panels (160x512, k = 25, 40 trials) at config seeds 0-6; and desk sign/pre
at k = 30, past the l1 recovery threshold, at config seeds 0-2.  The whole
matrix takes about 13 s on a 2-core machine with BLAS on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nlcs.experiment as experiment  # noqa: E402
import nlcs.lp as lp  # noqa: E402
import nlcs.recovery as recovery  # noqa: E402

DESK = {"m": 64, "n": 128, "k": 10, "trials": 100}
LARGE = {"m": 160, "n": 512, "k": 25, "trials": 40}
#: the map specs of the benchmark's desk_panels and large_panels workloads
DESK_MAPS = [
    ("identity_pre", {"kind": "identity"}, "pre"),
    ("nonzero_random_pre", {"kind": "nonzero_random", "seed": 777}, "pre"),
    ("abs_pre", {"kind": "abs"}, "pre"),
    ("sign_pre", {"kind": "sign"}, "pre"),
    ("sine_post", {"kind": "sine"}, "post"),
    ("square_post", {"kind": "square"}, "post"),
]
LARGE_MAPS = [
    ("sign_pre", {"kind": "sign"}, "pre"),
    ("square_post", {"kind": "square"}, "post"),
]


def panels() -> list[tuple[str, dict, dict, str, int]]:
    """(label, sizes, map spec, composition, config seed) of every panel."""
    out = [(f"desk/{name}/seed0", DESK, spec, comp, 0) for name, spec, comp in DESK_MAPS]
    out += [(f"large/{name}/seed{seed}", LARGE, spec, comp, seed)
            for seed in range(7) for name, spec, comp in LARGE_MAPS]
    out += [(f"desk_k30/sign_pre/seed{seed}", {**DESK, "k": 30}, {"kind": "sign"}, "pre", seed)
            for seed in range(3)]
    return out


class Recorder:
    """One record per solve, from wrappers installed at module globals."""

    def __init__(self):
        self.records: list[tuple] = []
        self.trial = -1
        self.calls = self.fallbacks = 0

    @contextlib.contextmanager
    def installed(self):
        wrappers = ((experiment, "recover_via_linearization", self._trial),
                    (recovery, "solve_standard_form", self._solve),
                    (recovery, "certify_l1", self._certify),
                    (lp, "_gram_factor", self._factor))
        with contextlib.ExitStack() as stack:
            for module, name, wrap in wrappers:
                original = getattr(module, name)
                setattr(module, name, wrap(original))
                stack.callback(setattr, module, name, original)
            yield self

    def _trial(self, fn):
        def wrapped(*args, **kwargs):
            self.trial += 1
            return fn(*args, **kwargs)
        return wrapped

    def _solve(self, fn):
        def wrapped(*args, **kwargs):
            self.calls = self.fallbacks = 0
            res = fn(*args, **kwargs)
            self.records.append((self.trial, res.steps, res.iterations, res.status,
                                 res.certificate is not None, self.calls, self.fallbacks))
            return res
        return wrapped

    def _certify(self, fn):
        def wrapped(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return wrapped

    def _factor(self, fn):
        def wrapped(*args, **kwargs):
            found = fn(*args, **kwargs)
            self.fallbacks += found is None
            return found
        return wrapped


def run_panel(label: str, sizes: dict, spec: dict, composition: str, seed: int,
              work: Path) -> tuple[str, list[str]]:
    """The panel's line and its record lines."""
    out = work / label.replace("/", "_")
    config = experiment.ExperimentConfig(map_spec=spec, composition=composition, seed=seed,
                                         method="l1", output_dir=str(out), **sizes)
    recorder = Recorder()
    with recorder.installed():
        result = experiment.run_experiment(config)
    experiment.emit_reports(result.records, result.summary, config.output_dir, result.signals)
    files = hashlib.sha256()
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        data = path.read_bytes()
        files.update(f"{path.name}\n{len(data)}\n".encode())
        files.update(data)
    records = [" ".join(map(str, r)) for r in recorder.records]
    record_digest = hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
    steps = sum(r[1] for r in recorder.records)
    return f"{label} {files.hexdigest()[:16]} {record_digest} solves={len(records)} steps={steps}", records


def main_matrix(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="experiment-panel identity matrix")
    parser.add_argument("--full", action="store_true",
                        help="print each panel's solve records, indented, after its line")
    full = parser.parse_args(args).full
    with tempfile.TemporaryDirectory() as work:
        for panel in panels():
            line, records = run_panel(*panel, Path(work))
            print(line, flush=True)
            if full:
                print("\n".join("    " + r for r in records), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_matrix())
