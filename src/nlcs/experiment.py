"""Batch recovery experiments: seeded trials over a nonlinear map, with CSV
and JSON report emission suitable for diffing across runs.

Every trial draws a fresh seeded Gaussian sensing matrix and sparse signal,
forms the composite measurements, runs the linearize-then-recover pipeline
and records the outcome.  Before any trial, ``qualified_type`` -- the rule
the pipeline applies -- rejects a map that does not qualify.  Trial seeds
are derived deterministically from the config seed alone, so two configs
differing only in the map see identical (A, x) draws trial by trial, and
identical configs produce byte-identical output files.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .matrix_core import gaussian_matrix, random_sparse_signal, seeded_rng
from .nonlinear_maps import map_from_spec
from .pointwise_linearization import qualified_type
from .recovery import recover_via_linearization
from .report import JsonReport

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentSummary",
    "ExperimentResult",
    "run_experiment",
    "emit_reports",
]

#: a trial counts as a success when its relative error is below this
SUCCESS_REL_ERROR = 1e-3

#: sine anchors (x for "post", A x for "pre") are rescaled into max magnitude 3 (< pi)
SINE_MAX_MAGNITUDE = 3.0

#: desk-scale dimensions: brute-force spot checks and the LP stay fast
DESK_SCALE = {"m": 64, "n": 128, "k": 10, "trials": 100}

#: heavier preset for standalone runs; not exercised by the test suite
LARGE_SCALE = {"m": 160, "n": 512, "k": 25, "trials": 100}


@dataclass
class ExperimentConfig:
    m: int
    n: int
    k: int
    map_spec: dict
    composition: str
    trials: int
    seed: int
    method: str
    output_dir: str

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.composition not in ("pre", "post"):
            raise ValueError(f"composition must be 'pre' or 'post', got {self.composition!r}")
        if self.method not in ("l1", "l0"):
            raise ValueError(f"method must be 'l1' or 'l0', got {self.method!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Parse a config object; a missing or wrongly typed entry raises ``ValueError``."""
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        required = {"m", "n", "k", "map", "composition", "trials", "seed", "method", "output_dir"}
        missing = required - set(d)
        if missing:
            raise ValueError(f"config missing keys: {sorted(missing)}")
        if not isinstance(d["map"], dict):
            raise ValueError(f"config 'map' must be an object, got {d['map']!r}")
        ints = {}
        for key in ("m", "n", "k", "trials", "seed"):
            v = d[key]  # an integral float such as 5.0 passes; 2.5, "5" and true do not
            if isinstance(v, bool) or not (isinstance(v, numbers.Integral)
                                           or isinstance(v, float) and v.is_integer()):
                raise ValueError(f"config {key!r} must be an integer, got {v!r}")
            ints[key] = int(v)
        return cls(
            map_spec=dict(d["map"]),
            composition=str(d["composition"]),
            method=str(d["method"]),
            output_dir=str(d["output_dir"]),
            **ints,
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def preset(cls, scale: str, map_spec: dict, composition: str, seed: int,
               output_dir: str, method: str = "l1") -> "ExperimentConfig":
        """Config at a named scale: "desk" (default sizes) or "large" (heavier)."""
        sizes = {"desk": DESK_SCALE, "large": LARGE_SCALE}
        if scale not in sizes:
            raise ValueError(f"scale must be one of {sorted(sizes)}, got {scale!r}")
        return cls(map_spec=map_spec, composition=composition, seed=seed,
                   method=method, output_dir=output_dir, **sizes[scale])


@dataclass
class TrialRecord:
    trial_index: int
    rel_error: float
    support_exact: bool
    solver_status: str
    certificate_type: int
    delta_2k: float | None


@dataclass
class ExperimentSummary(JsonReport):
    success_rate: float
    median_rel_error: float
    trials: int
    # informational: runtime is nondeterministic, so it stays out of the serialized form
    mean_runtime_s: float = field(metadata={"json": None})


@dataclass
class ExperimentResult:
    records: list[TrialRecord]
    summary: ExperimentSummary
    signals: list[tuple[np.ndarray, np.ndarray]]  # (true, recovered) per trial


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials of a config.  The map/composition pairing is vetted
    up front by ``qualified_type``, the rule every trial's pipeline applies;
    a mismatch raises ``RequirementError`` before any trial."""
    dim = config.m if config.composition == "pre" else config.n
    F = map_from_spec(config.map_spec, dim)
    qualified_type(F, config.composition)

    master = seeded_rng(config.seed)
    trial_seeds = master.integers(0, 2**63, size=2 * config.trials)

    records: list[TrialRecord] = []
    signals: list[tuple[np.ndarray, np.ndarray]] = []
    runtimes = []
    for i in range(config.trials):
        A = gaussian_matrix(config.m, config.n, int(trial_seeds[2 * i]))
        x = random_sparse_signal(config.n, config.k, int(trial_seeds[2 * i + 1]))
        if F.kind == "sine":  # the map acts on the anchor, which must stay inside (-pi, pi)
            peak = float(np.abs(A @ x if config.composition == "pre" else x).max())
            if peak > SINE_MAX_MAGNITUDE:
                x = x * (SINE_MAX_MAGNITUDE / peak)
        t0 = time.perf_counter()
        out = recover_via_linearization(A, F, config.composition, x, config.method)
        runtimes.append(time.perf_counter() - t0)
        records.append(
            TrialRecord(
                trial_index=i,
                rel_error=float(out.report.rel_error),
                support_exact=bool(out.report.support_exact),
                solver_status=out.report.solver_status,
                certificate_type=out.certificate.type,
                delta_2k=out.delta_2k,
            )
        )
        signals.append((x, out.report.x_hat))

    errs = np.array([r.rel_error for r in records])
    summary = ExperimentSummary(
        success_rate=float(np.mean(errs < SUCCESS_REL_ERROR)),
        median_rel_error=float(np.median(errs)),
        trials=config.trials,
        mean_runtime_s=float(np.mean(runtimes)),
    )
    return ExperimentResult(records=records, summary=summary, signals=signals)


def _fmt(v) -> str:
    return repr(float(v))


def emit_reports(records, summary, output_dir, signals) -> list[str]:
    """Write trials.csv, summary.json and one signal_<i>.csv overlay per
    trial's (true, recovered) signal pair.  Returns the paths written.
    Output is byte-identical across reruns of the same experiment."""
    if not records:
        raise ValueError("records must be nonempty")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    trials_path = out / "trials.csv"
    with open(trials_path, "w", encoding="utf-8") as fh:
        fh.write("trial_index,rel_error,support_exact,solver_status,certificate_type,delta_2k\n")
        for r in records:
            delta = "" if r.delta_2k is None else _fmt(r.delta_2k)
            fh.write(
                f"{r.trial_index},{_fmt(r.rel_error)},"
                f"{'true' if r.support_exact else 'false'},{r.solver_status},"
                f"{r.certificate_type},{delta}\n"
            )
    written.append(str(trials_path))

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(str(summary_path))

    for i, (x_true, x_hat) in enumerate(signals):
        sig_path = out / f"signal_{i}.csv"
        # repr of a Python float is what _fmt writes
        rows = map("{},{!r},{!r}\n".format, range(len(x_true)), x_true.tolist(), x_hat.tolist())
        with open(sig_path, "w", encoding="utf-8") as fh:
            fh.write("index,true_value,recovered_value\n" + "".join(rows))
        written.append(str(sig_path))
    return written
