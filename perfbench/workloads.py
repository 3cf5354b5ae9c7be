"""The four seeded workloads of the nlcs benchmark.

Set-up turns the benchmark seed into a fixed list of op groups, the
workload's *pass*.  The worker runs the pass again and again until the run
time is used up.  A group is what runs between two clock checks: one
experiment panel of many trials on the panel workloads, one op on the
others.  Because every pass repeats the same inputs, every later pass checks
the first: a group whose output digest changes is counted as failed.

The benchmark calls the package only through its public functions, looked
up on their modules at call time so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nlcs.cli
import nlcs.experiment
import nlcs.nonlinear_maps as maps
import nlcs.pointwise_linearization as pwl
import nlcs.recovery
import nlcs.sensing_properties as props

#: a panel trial passes when its relative error is below this (criterion 7)
PANEL_REL_ERROR = 1e-3
#: solver statuses a passing panel trial may end with.  "max_iter" is the
#: solver's precision abort returning its best iterate; such trials recover x
#: to about 1e-9 yet are not "converged".  They pass here and are counted by
#: the traced run as lp.max_iter_share.
PANEL_STATUSES = ("converged", "max_iter")
#: l0 recovery on brute_certify must be exact to this relative error
L0_REL_ERROR = 1e-8


def derive_seed(seed: int, *labels) -> int:
    """Seed in [0, 2^63) for one labelled input, a pure function of the
    benchmark seed and the labels."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class GroupResult:
    ops: int
    latencies: list[float]  # seconds per op
    wall: float  # seconds of program calls in the group: the ops_per_s denominator
    failed: int
    digest: str | None = None  # compared across passes
    notes: list[str] = field(default_factory=list)


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ---------------------------------------------------------------------------
# desk_panels and large_panels: nlcs.cli.main(["experiment", ...]) per panel
# ---------------------------------------------------------------------------

DESK_PANELS = [
    ("identity_pre", {"kind": "identity"}, "pre"),
    ("nonzero_random_pre", {"kind": "nonzero_random", "seed": 777}, "pre"),
    ("abs_pre", {"kind": "abs"}, "pre"),
    ("sign_pre", {"kind": "sign"}, "pre"),
    ("sine_post", {"kind": "sine"}, "post"),
    ("square_post", {"kind": "square"}, "post"),
]
LARGE_PANELS = [
    ("sign_pre", {"kind": "sign"}, "pre"),
    ("square_post", {"kind": "square"}, "post"),
]


@dataclass
class Panel:
    label: str
    config: Path
    out: Path
    trials: int
    cert_type: int  # criterion 7: type 2 for nonzero_random, 3 otherwise


class BoundaryClock:
    """Times every call made through one module-global name and records
    nothing else; the untimed run's only instrument."""

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.samples: list[float] = []
        samples, fn, clock = self.samples, self.original, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            samples.append(clock() - t0)
            return out

        setattr(module, name, timed)

    def close(self) -> None:
        setattr(self.module, self.name, self.original)


class PanelWorkload:
    """Experiment panels run through the CLI; one op is one trial, timed at
    the ``nlcs.experiment.recover_via_linearization`` boundary."""

    def __init__(self, name, panels, sizes, trials, seed, workdir: Path):
        self.groups = []
        for label, spec, composition in panels:
            out = workdir / label
            config = workdir / f"{label}.json"
            config.write_text(json.dumps({
                **sizes,
                "map": spec,
                "composition": composition,
                "trials": trials,
                "seed": derive_seed(seed, name, label),
                "method": "l1",
                "output_dir": str(out),
            }), encoding="utf-8")
            cert_type = 2 if spec["kind"] == "nonzero_random" else 3
            self.groups.append(Panel(label, config, out, trials, cert_type))
        self.clock = BoundaryClock(nlcs.experiment, "recover_via_linearization")

    def close(self) -> None:
        self.clock.close()

    def run_group(self, panel: Panel) -> GroupResult:
        first = len(self.clock.samples)
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = nlcs.cli.main(["experiment", "--config", str(panel.config)])
        wall = time.perf_counter() - t0
        latencies = self.clock.samples[first:]
        if rc != 0:
            return GroupResult(panel.trials, latencies, wall, panel.trials,
                               notes=[f"{panel.label}: exit code {rc}: {sink.getvalue().strip()}"])
        if len(latencies) != panel.trials:
            raise RuntimeError(
                f"{panel.label}: {len(latencies)} pipeline calls for {panel.trials} trials; "
                "the latency boundary no longer sees every trial"
            )
        trials_csv = (panel.out / "trials.csv").read_bytes()
        summary = (panel.out / "summary.json").read_bytes()
        failed, notes = self._check(panel, trials_csv.decode("utf-8"))
        digest = (hashlib.sha256(trials_csv).hexdigest()[:16] + "/"
                  + hashlib.sha256(summary).hexdigest()[:16])
        return GroupResult(panel.trials, latencies, wall, failed, digest, notes)

    @staticmethod
    def _check(panel: Panel, text: str) -> tuple[int, list[str]]:
        rows = text.splitlines()[1:]
        if len(rows) != panel.trials:
            return panel.trials, [f"{panel.label}: {len(rows)} rows for {panel.trials} trials"]
        failed, notes = 0, []
        for row in rows:
            idx, rel_error, _, status, cert_type, _ = row.split(",")
            if (status not in PANEL_STATUSES or not float(rel_error) < PANEL_REL_ERROR
                    or int(cert_type) != panel.cert_type):
                failed += 1
                notes.append(f"{panel.label} trial {idx}: {row}")
        return failed, notes


def desk_panels(seed: int, workdir: Path) -> PanelWorkload:
    sizes = {"m": 64, "n": 128, "k": 10}
    return PanelWorkload("desk_panels", DESK_PANELS, sizes, 100, seed, workdir)


def large_panels(seed: int, workdir: Path) -> PanelWorkload:
    # 40 trials a panel keep a pass near 8 s, so that every run repeats it
    sizes = {"m": 160, "n": 512, "k": 25}
    return PanelWorkload("large_panels", LARGE_PANELS, sizes, 40, seed, workdir)


# ---------------------------------------------------------------------------
# brute_certify: spark, RIP, NSP, invariance and the l0 pipeline
# ---------------------------------------------------------------------------

@dataclass
class BruteInstance:
    A: np.ndarray  # one of SPARK_SHAPES: spark, RIP order 4, NSP order 2
    nsp_seed: int
    A6: np.ndarray  # 6 x 12 invariance triple and l0 pipeline
    M_I: np.ndarray
    M_D: np.ndarray
    x: np.ndarray  # 2-sparse signal for the l0 pipeline
    F: maps.NonlinearMap


class BruteCertify:
    """One op is one seeded instance of every brute-force certificate.

    The spark matrices come in eight shapes whose full upward scans cost
    from 637 to 12,910 column subsets, so op latencies spread over a range
    instead of sitting at one value."""

    SPARK_SHAPES = ((5, 10), (6, 12), (7, 12), (6, 13), (7, 13), (6, 14), (7, 14), (8, 14))
    NSP_SAMPLES = 1000

    def __init__(self, seed: int, workdir: Path):
        self.groups = [self._instance(derive_seed(seed, "brute_certify", i), shape)
                       for i, shape in enumerate(self.SPARK_SHAPES)]

    def close(self) -> None:
        pass

    @staticmethod
    def _instance(s: int, shape: tuple[int, int]) -> BruteInstance:
        rng = np.random.default_rng(s)
        A = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        A6 = rng.normal(0.0, 1.0 / np.sqrt(6), size=(6, 12))
        while True:
            M_I = rng.normal(size=(6, 6))
            if abs(np.linalg.det(M_I)) >= 1e-2:
                break
        M_D = np.zeros((12, 12))
        M_D[np.arange(12), rng.permutation(12)] = (
            rng.uniform(0.5, 2.0, size=12) * rng.choice([-1.0, 1.0], size=12))
        x = np.zeros(12)
        x[rng.choice(12, size=2, replace=False)] = (
            rng.uniform(0.5, 2.0, size=2) * rng.choice([-1.0, 1.0], size=2))
        return BruteInstance(A, int(rng.integers(2**63)), A6, M_I, M_D, x, maps.sign_map(6))

    def run_group(self, inst: BruteInstance) -> GroupResult:
        t0 = time.perf_counter()
        try:
            sp = props.spark(inst.A)
            rip = props.rip_constants(inst.A, 4)
            nsp = props.nsp_estimate(inst.A, 2, self.NSP_SAMPLES, inst.nsp_seed)
            inv_spark = props.check_invariance_spark(inst.A6, inst.M_I, inst.M_D)
            inv_rip = props.check_invariance_rip_order(inst.A6, 2, inst.M_I, inst.M_D)
            rec = nlcs.recovery.recover_via_linearization(inst.A6, inst.F, "pre", inst.x, "l0")
        except Exception as exc:  # noqa: BLE001 - any error fails this op only
            lat = time.perf_counter() - t0
            return GroupResult(1, [lat], lat, 1, notes=[_failure(exc)])
        lat = time.perf_counter() - t0
        problems = []
        w = sp.witness
        n = inst.A.shape[1]
        if not ((sp.spark == n + 1 and w == [])
                or (len(w) == sp.spark and np.linalg.matrix_rank(inst.A[:, w]) < len(w))):
            problems.append(f"spark {sp.spark} with witness {w} is not confirmed")
        gram = inst.A[:, :4].T @ inst.A[:, :4]
        ev = np.linalg.eigvalsh(gram)
        if not (0 < rip.alpha <= ev[0] + 1e-12 and ev[-1] <= rip.beta + 1e-12):
            problems.append(f"RIP bounds [{rip.alpha}, {rip.beta}] miss support 0..3 {ev}")
        if not (nsp.samples == self.NSP_SAMPLES and np.isfinite(nsp.c_lower)):
            problems.append(f"NSP estimate {nsp}")
        if not (inv_spark is True and inv_rip is True):
            problems.append(f"invariance spark={inv_spark} rip={inv_rip}")
        r = rec.report
        if not (r.rel_error <= L0_REL_ERROR and r.support_exact):
            problems.append(f"l0 recovery rel_error={r.rel_error} support_exact={r.support_exact}")
        digest = hashlib.sha256("\n".join([
            sp.to_json(), rip.to_json(), nsp.to_json(), r.to_json(), str(inv_spark), str(inv_rip),
        ]).encode()).hexdigest()[:16]
        return GroupResult(1, [lat], lat, int(bool(problems)), digest, problems)


# ---------------------------------------------------------------------------
# cert_sweep: requirement checks, strongest certificate, verification
# ---------------------------------------------------------------------------

def _permutation_map(dim: int, rng: np.random.Generator) -> maps.NonlinearMap:
    """F(z)_i = c_i z_perm(i): zero patterns move, so type-4 certificates
    occur wherever planted zeros do not line up with the permutation."""
    perm = rng.permutation(dim)
    scale = rng.uniform(0.5, 2.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    components = [lambda v, j=int(perm[i]), c=float(scale[i]): c * v[j] for i in range(dim)]
    return maps.custom_map(components)


CATALOG = (
    lambda d, rng: maps.abs_map(d),
    lambda d, rng: maps.sign_map(d),
    lambda d, rng: maps.quantize_away_from_zero(d, 0.5),
    lambda d, rng: maps.quantize_floor(d, 0.5),
    lambda d, rng: maps.sine_map(d),
    lambda d, rng: maps.square_map(d),
    lambda d, rng: maps.nonzero_random_map(d, int(rng.integers(2**63))),
    _permutation_map,
)


class CertSweep:
    """One op is one seeded (F, z) pair: the four requirement checks, the
    strongest certificate and its independent verification.

    Every (map kind, dimension, planted zeros or not) combination occurs
    once per pass; the seed draws the values.  Fixing the mix keeps the
    work per pass the same on every seed."""

    DIMS = range(4, 65, 4)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(derive_seed(seed, "cert_sweep"))
        self.groups = []
        for dim in self.DIMS:
            for planted_zeros in (False, True):
                for make in CATALOG:
                    F = make(dim, rng)
                    if F.kind == "sine":
                        z = rng.uniform(-3.0, 3.0, size=dim)  # inside the open domain (-pi, pi)
                    else:
                        z = rng.normal(size=dim)  # quantizer step 0.5: sub-step entries occur
                    if planted_zeros:
                        z[rng.random(dim) < 0.3] = 0.0
                    self.groups.append((F, z))

    def close(self) -> None:
        pass

    def run_group(self, pair) -> GroupResult:
        F, z = pair
        t0 = time.perf_counter()
        try:
            holds = {t: maps.check_requirement(F, t, z).holds for t in (1, 2, 3, 4)}
            cert = pwl.linearize_strongest(F, z)
            errors = pwl.certificate_errors(cert)
        except Exception as exc:  # noqa: BLE001 - any error fails this op only
            lat = time.perf_counter() - t0
            return GroupResult(1, [lat], lat, 1, notes=[f"{F.kind} dim {z.size}: {_failure(exc)}"])
        lat = time.perf_counter() - t0
        strongest = next((t for t in (3, 4, 2, 1) if holds[t]), 0)
        problems = [f"{F.kind} dim {z.size}: {e}" for e in errors]
        if cert.type != strongest:
            problems.append(f"{F.kind} dim {z.size}: type {cert.type}, strongest {strongest}")
        return GroupResult(1, [lat], lat, int(bool(problems)), notes=problems)


WORKLOADS = {
    "desk_panels": desk_panels,
    "large_panels": large_panels,
    "brute_certify": BruteCertify,
    "cert_sweep": CertSweep,
}
