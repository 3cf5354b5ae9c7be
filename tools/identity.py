"""Identity matrices: the package's exact answers over fixed inputs, one
line per input, so that two checkouts can be compared line by line.

    python3 tools/identity.py [--full] > identity.txt
    python3 tools/identity.py [--full] REV

Run it from anywhere inside a source checkout: it imports ``nlcs`` from the
checkout's ``src`` directory and the benchmark's instances from
``perfbench/workloads.py``, which it only reads.  Every matrix runs in
process, in one temporary working directory.  Without ``REV`` it prints
the four matrices below, each after a ``== <name> ==`` header; digests are
sha256 cut to 16 hex digits.  With ``--full`` each matrix adds the detail
fields it describes, indented by four spaces after a line, so that a diff
also names the fields that moved.

With ``REV`` (any git revision) it builds a temporary tree holding ``git
archive REV src`` next to copies of this checkout's ``tools`` and
``perfbench``, runs itself there and here as two child processes with BLAS
on one thread, and prints for each matrix the lines compared, how many
differ, and the differing lines (``difflib``, no context).  Since one
harness runs on both trees, only the package differs between the sides.
Nothing is written to the checkout or its ``.git``.  It exits 0 when no
line differs, 1 when one does, and 2 when a side fails, for instance when
``REV`` lacks a private name that ``--full`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import textwrap
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import numpy as np  # noqa: E402

import nlcs.experiment as experiment  # noqa: E402
import nlcs.lp as lp  # noqa: E402
import nlcs.nonlinear_maps as maps  # noqa: E402
import nlcs.pointwise_linearization as pwl  # noqa: E402
import nlcs.recovery  # noqa: E402
import nlcs.sensing_properties as props  # noqa: E402
from nlcs.cli import main as cli_main  # noqa: E402
from nlcs.matrix_core import gaussian_matrix, in_safe_range, random_sparse_signal  # noqa: E402
from workloads import BruteCertify, CertSweep  # noqa: E402

#: the benchmark seeds of the cert and brute matrices
SEEDS = range(3)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def digest(*parts: str | bytes) -> str:
    """sha256 of the concatenated parts (text as UTF-8), cut to 16 hex digits."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()[:16]


@contextlib.contextmanager
def swapped(*changes):
    """Set each (module, name, value) for the block, then restore the originals;
    the matrices count the package's internal calls through these."""
    originals = [(module, name, getattr(module, name)) for module, name, _ in changes]
    for module, name, value in changes:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in originals:
            setattr(module, name, value)


# ---------------------------------------------------------------------------
# cli: ``nlcs.cli.main`` over a fixed set of argument lists.  Each argument
# list names its inputs by relative path in the working directory, so the
# output does not depend on where the checkout lives.  A line is
#
#     <exit code> <digest of stdout> <digest of stderr> <arguments>
#
# Warnings raised during a run are recorded and appended to its stderr as
# ``Category: message`` lines, so they count in the stderr digest.  The "mean
# trial runtime" figure that ``nlcs experiment`` prints to stderr is the one
# nondeterministic output; it is masked before hashing.  The details are the
# run's stdout.
# ---------------------------------------------------------------------------

RUNTIME_LINE = re.compile(r"^mean trial runtime: .* s$", re.MULTILINE)


def _dependent_columns() -> np.ndarray:
    A = gaussian_matrix(4, 6, 3)
    A[:, 5] = A[:, 0]  # two equal columns: the RIP of order 2 fails
    return A


def _dependent_at_level_m() -> np.ndarray:
    A = gaussian_matrix(6, 12, 5)
    A[:, 11] = A[:, :5] @ np.array([0.5, -1.0, 2.0, 0.25, 1.5])  # one dependent 6-subset
    return A


def _near_dependent() -> np.ndarray:
    A = gaussian_matrix(6, 12, 5)
    # columns 3 and 11 nearly parallel (singular-value ratio 4e-4): the RIP gate still passes
    A[:, 11] = A[:, 3] + 1e-3 * gaussian_matrix(6, 1, 9)[:, 0]
    return A


def _signal_with_subnormal() -> np.ndarray:
    x = random_sparse_signal(12, 2, 6)
    x[np.flatnonzero(x == 0.0)[0]] = 1e-310
    return x


MATRICES = {
    "eye3.csv": np.eye(3),
    "dep.csv": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
    "diag.csv": np.diag([1.0, 2.0]),
    "rank1.csv": np.array([[1.0, 1.0], [2.0, 2.0]]),
    "wide.csv": np.array([[1.0, -1.0]]),
    "zero.csv": np.zeros((2, 3)),
    "g4x8.csv": gaussian_matrix(4, 8, 1),
    "g6x12.csv": gaussian_matrix(6, 12, 5),
    "dupcol.csv": _dependent_columns(),
    "wide25.csv": gaussian_matrix(2, 25, 2),
    "dep6x12.csv": _dependent_at_level_m(),
    "tall8x5.csv": gaussian_matrix(8, 5, 4),
    "g7x7.csv": gaussian_matrix(7, 7, 8),
    "near6x12.csv": _near_dependent(),
    "g80x160.csv": gaussian_matrix(80, 160, 10),  # m > 64: the blocked inverse of the l1 solver
}

POINTS = {
    "p_mixed.csv": [1.0, -2.0, 0.0],
    "p_zero.csv": [0.0, 0.0, 0.0],
    "p_negzero.csv": [-0.0, 1.0],
    "p_one.csv": [1.0],
    "p_tiny.csv": [1.0, 1e-12],
    "p_sine.csv": [0.0, 1e-9, 1.0, 0.0],
    "p_half.csv": [0.5, 1.5],
    "p_pi.csv": [np.pi, 0.5],
    "p_small.csv": [1e-10, 1.0],
    "p_normal.csv": [3e-308, 1.0],  # the smallest normal float is 2.2e-308
    "p_sub308.csv": [1e-308, 1.0],
    "p_sub.csv": [1e-310, 1.0],
    "p_subneg.csv": [-5e-324, 0.3, 0.0],
    "p_big.csv": [1e200, 1.0],  # square overflows
    "p_max.csv": [1.7e308, 1.0],  # the quantizers' division by the step overflows
}

SIGNALS = {
    "x12.csv": random_sparse_signal(12, 2, 6),
    "x8.csv": random_sparse_signal(8, 2, 4),
    "x6.csv": random_sparse_signal(6, 1, 2),
    "x3.csv": np.array([0.0, 2.5, 0.0]),
    "x12zero.csv": np.zeros(12),
    "x12sub.csv": _signal_with_subnormal(),
    "x5.csv": random_sparse_signal(5, 1, 9),
    "x12near.csv": np.array([0.0, 0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -0.75]),
}

#: signals for g80x160.csv only, kept out of the SIGNALS x matrices product; the
#: 40-sparse one lies beyond l1 recovery at 80x160, so its solve is never certified
WIDE_SIGNALS = {"x160.csv": random_sparse_signal(160, 8, 11),
                "x160k40.csv": random_sparse_signal(160, 40, 12)}

BAD_FILES = {
    "ragged.csv": "1,2\n3\n",
    "empty.csv": "",
    "nan.csv": "1,nan\n2,3\n",
    "text.csv": "a,b\n",
    "multi.csv": "1,2\n3,4\n",
}

GOOD_MAPS = [
    "identity",
    "abs",
    "sign",
    '{"kind": "quantize_afz", "step": 0.5}',
    '{"kind": "quantize_afz", "step": 1e300}',
    '{"kind": "quantize_floor", "step": 0.5}',
    '{"kind": "quantize_floor", "step": 1.0}',
    "sine",
    "square",
    '{"kind": "nonzero_random", "seed": 7}',
]

BAD_MAPS = [
    "nope",
    '{"kind": "quantize_afz"}',
    '{"kind": "quantize_floor", "step": -1}',
    '{"kind": "nonzero_random", "seed": 1.5}',
    '{"kind": ["abs"]}',
    "[1]",
    "{bad json",
]

SPEC_OF_KIND = {
    "identity": {"kind": "identity"},
    "abs": {"kind": "abs"},
    "sign": {"kind": "sign"},
    "quantize_afz": {"kind": "quantize_afz", "step": 0.5},
    "quantize_floor": {"kind": "quantize_floor", "step": 1.0},
    "sine": {"kind": "sine"},
    "square": {"kind": "square"},
    "nonzero_random": {"kind": "nonzero_random", "seed": 7},
}

BASE_CONFIG = {"m": 4, "n": 8, "k": 2, "map": {"kind": "abs"}, "composition": "pre",
               "trials": 2, "seed": 3, "method": "l1"}

#: whole config files that are malformed as they stand
BROKEN_CONFIGS = {"missing_keys": {"m": 4}, "not_object": [1, 2]}

#: changes to BASE_CONFIG that make it invalid or its map unqualified
BAD_CONFIGS = {
    "map_not_object": {"map": 5},
    "m_null": {"m": None},
    "trials_list": {"trials": [2]},
    "k_too_big": {"k": 9},
    "m_too_big": {"m": 9},
    "zero_trials": {"trials": 0},
    "bad_composition": {"composition": "middle"},
    "bad_method": {"method": "l2"},
    "seed_negative": {"seed": -1},
    "floor_pre": {"map": {"kind": "quantize_floor", "step": 1.0}},
    "nonzero_random_post": {"map": {"kind": "nonzero_random", "seed": 3}, "composition": "post"},
    "unknown_map": {"map": {"kind": "nope"}},
}


def _write_inputs() -> list[str]:
    """Write every input file into the working directory; return the config names."""
    for name, M in MATRICES.items():
        np.savetxt(name, M, delimiter=",")
    for name, v in {**POINTS, **SIGNALS, **WIDE_SIGNALS}.items():
        np.savetxt(name, np.asarray(v, dtype=np.float64), delimiter=",")
    for name, text in BAD_FILES.items():
        Path(name).write_text(text)
    Path("bad.json").write_text("{not json")
    configs = []
    for i, (kind, comp, method) in enumerate(
            itertools.product(SPEC_OF_KIND, ("pre", "post"), ("l1", "l0"))):
        name = f"cfg_{kind}_{comp}_{method}.json"
        cfg = {**BASE_CONFIG, "map": SPEC_OF_KIND[kind], "composition": comp, "method": method,
               "seed": i, "output_dir": f"out_{kind}_{comp}_{method}"}
        Path(name).write_text(json.dumps(cfg))
        configs.append(name)
    bad = {**BROKEN_CONFIGS, **{tag: {**BASE_CONFIG, "output_dir": f"out_bad_{tag}", **change}
                                for tag, change in BAD_CONFIGS.items()}}
    for tag, cfg in bad.items():
        name = f"cfg_bad_{tag}.json"
        Path(name).write_text(json.dumps(cfg))
        configs.append(name)
    return configs + ["bad.json", "missing.json"]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse: --version, usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), RUNTIME_LINE.sub("mean trial runtime: <masked> s", stderr)


def cli_matrix(work: Path, full: bool):
    """(line, stdout) of every argument list, run in the working directory."""
    configs = _write_inputs()
    all_matrices = [*MATRICES, "ragged.csv", "empty.csv", "nan.csv", "text.csv", "missing.csv"]
    runs: list[list[str]] = [[], ["--version"], ["selftest"], ["frobnicate"]]
    runs += [["spark", a] for a in all_matrices]
    runs += [["rip", a, "--k", k] for a in all_matrices for k in ("1", "2", "3", "9")]
    runs += [["nsp", a, "--k", k, "--samples", s, "--seed", seed]
            for a in [*MATRICES, "missing.csv"] for k in ("1", "2")
            for s, seed in (("20", "0"), ("20", "1"))]
    runs += [["nsp", "g4x8.csv", "--k", "1", "--samples", "0"]]
    runs += [["classify", "--map", f, "--composition", c, "--dim", d]
            for f in GOOD_MAPS + BAD_MAPS for c in ("pre", "post") for d in ("1", "4")]
    runs += [["classify", "--map", f, "--composition", "pre", "--dim", "3", "--samples", "7",
             "--seed", "11"] for f in GOOD_MAPS]
    runs += [["classify", "--map", "abs", "--composition", "pre", "--dim", "0"]]
    runs += [["linearize", "--map", f, "--point", p, "--type", t]
            for f in GOOD_MAPS for p in POINTS for t in ("1", "2", "3", "4")]
    runs += [["linearize", "--map", f, "--point", "p_mixed.csv", "--type", "3"] for f in BAD_MAPS]
    runs += [["linearize", "--map", "abs", "--point", p, "--type", "1"]
            for p in ("nan.csv", "multi.csv", "empty.csv", "missing.csv")]
    runs += [["linearize", "--map", "abs", "--point", "p_mixed.csv", "--type", "5"]]
    recover_maps = ["identity", "abs", "sign", '{"kind": "quantize_floor", "step": 1.0}', "sine",
                    "square", '{"kind": "nonzero_random", "seed": 7}']
    runs += [["recover", "--matrix", a, "--map", f, "--composition", c, "--signal", x,
             "--method", meth]
            for a in ("g6x12.csv", "g4x8.csv", "dupcol.csv", "eye3.csv", "near6x12.csv")
            for f in recover_maps
            for c in ("pre", "post") for x in SIGNALS for meth in ("l1", "l0")]
    runs += [["recover", "--matrix", "g80x160.csv", "--map", f, "--composition", c, "--signal",
             "x160.csv", "--method", "l1"] for f, c in (("sign", "pre"), ("square", "post"))]
    runs += [["recover", "--matrix", "g80x160.csv", "--map", "sign", "--composition", "pre",
             "--signal", "x160k40.csv", "--method", "l1"]]
    runs += [["recover", "--matrix", "g6x12.csv", "--map", "abs", "--composition", "pre",
             "--signal", "x12.csv", "--method", meth, "--max-iter", it]
            for meth in ("l1", "l0") for it in ("0", "1", "3")]
    runs += [["experiment", "--config", c] for c in configs]
    for argv in runs:
        code, stdout, stderr = run_cli(argv)
        yield (f"{code} {digest(stdout)} {digest(stderr)} {json.dumps(argv)}",
               [stdout.rstrip("\n")] if stdout else [])


# ---------------------------------------------------------------------------
# panel: seeded l1 experiment panels.  A line is
#
#     <label> <digest of the output files> <digest of the records> solves=<n> steps=<total>
#
# The file digest covers every file ``emit_reports`` writes (``trials.csv``,
# ``summary.json`` and the ``signal_<i>.csv`` overlays), in name order.  A
# solve record, one detail line each, is
#
#     <trial> <Newton steps> <returned iterate> <status> <certified> <certify calls>
#         <QR fallbacks> guess=<tests>:<proof>
#
# collected from outside the package by wrapping, at their module globals,
# ``experiment.recover_via_linearization`` (the trial count),
# ``recovery.solve_standard_form``, the l1 certificate builder and
# ``lp._gram_factor``, called once per Newton step: it returns the Gram and
# its Cholesky factor, or None when the step takes the Householder QR
# fallback, so counting None returns counts those fallbacks exactly.  The
# starting point's own QR fallback (when 2 B B' overflows or its LU fails) is
# not counted; no panel here takes it.  The builder is
# ``recovery._support_certifier`` where the package has it (an older layout,
# where the solver hook ``certify_l1`` took the dual and called it) and
# ``recovery.certify_l1`` otherwise; each call within a solve is one of the
# solve's certify calls.  ``guess`` counts the tests of the support guess
# before the solve, those of every test that the builder returns before a
# solve starts, and names the proof that ended the trial before the solve:
# ``dual0`` for the dual 0 and ``ls<r>`` for the r-th least-squares dual
# candidate, or ``-`` when none did.  A trial proven before the solve makes
# none; its record reads ``<trial> - - converged True 0 0
# guess=<tests>:<proof>``.  A package whose guess has no candidates (its
# builder returns the test alone) never names an ``ls<r>``, one that also
# tests the guess at the solver's iterates has those tests left out, and one
# without a guess records ``guess=0:-``.
#
# The details end with ``max_beta=<beta>``, the largest rounding bound beta
# (``recovery._margin_and_bound``, as ``l1_dual_errors`` checks it) over the
# panel's proofs, before or in a solve, as the repr of a float, or ``-`` when
# no trial was proven; it is left out of the record digest, so a change to
# the bound alone moves only this detail.
#
# The panels: the six desk panels (64x128, k = 10, 100 trials) at config seed
# 0 with the benchmark's map specs; the large sign/pre and square/post panels
# (160x512, k = 25, 40 trials) at config seeds 0-6; and desk sign/pre at
# k = 30, past the l1 recovery threshold, at config seeds 0-2.
# ---------------------------------------------------------------------------

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


class Recorder:
    """One record per solve or per trial proven before its solve, from
    wrappers installed at module globals."""

    def __init__(self):
        self.records: list[tuple] = []
        self.trial = -1
        self.calls = self.fallbacks = self.tests = 0
        self.proof, self.solved = "-", False
        self.beta = self.max_beta = None

    def installed(self):
        builder = ("_support_certifier" if hasattr(nlcs.recovery, "_support_certifier")
                   else "certify_l1")
        wrappers = ((experiment, "recover_via_linearization", self._trial),
                    (nlcs.recovery, "solve_standard_form", self._solve),
                    (nlcs.recovery, builder, self._certifier),
                    (lp, "_gram_factor", self._factor),
                    (nlcs.recovery, "_margin_and_bound", self._bound))
        return swapped(*((module, name, wrap(getattr(module, name)))
                         for module, name, wrap in wrappers if hasattr(module, name)))

    def _trial(self, fn):
        def wrapped(*args, **kwargs):
            self.trial += 1
            self.tests = 0
            self.proof, self.solved = "-", False
            out = fn(*args, **kwargs)
            if self.proof != "-" and not self.solved:  # proven before the solve
                self.records.append((self.trial, "-", "-", "converged", True, 0, 0,
                                     f"guess={self.tests}:{self.proof}"))
            return out
        return wrapped

    def _solve(self, fn):
        def wrapped(*args, **kwargs):
            self.calls = self.fallbacks = 0
            self.solved = True
            res = fn(*args, **kwargs)
            self.records.append((self.trial, res.steps, res.iterations, res.status,
                                 res.certificate is not None, self.calls, self.fallbacks,
                                 f"guess={self.tests}:{self.proof}"))
            return res
        return wrapped

    def _certifier(self, fn):
        def wrapped(*args, **kwargs):
            found = fn(*args, **kwargs)
            if self.solved:  # a call of the solve's certify hook
                self.calls += 1
            if found is None:
                return found
            test, *rest = found if isinstance(found, tuple) else (found,)
            before = not self.solved

            def counted(y):
                self.beta = None
                proved = test(y)
                if proved is not None and self.beta is not None:
                    self.max_beta = max(self.max_beta or 0.0, self.beta)
                if before and not self.solved:
                    if proved is not None:
                        self.proof = f"ls{self.tests}" if self.tests else "dual0"
                    self.tests += 1
                return proved
            return (counted, *rest) if rest else counted
        return wrapped

    def _bound(self, fn):
        def wrapped(*args, **kwargs):
            found = fn(*args, **kwargs)
            self.beta = None if found is None else found[1]
            return found
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
    files = []
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        data = path.read_bytes()
        files += [f"{path.name}\n{len(data)}\n", data]
    records = [" ".join(map(str, r)) for r in recorder.records]
    record_digest = digest("\n".join(records))
    solved = [r[1] for r in recorder.records if r[1] != "-"]
    beta = "-" if recorder.max_beta is None else repr(recorder.max_beta)
    return (f"{label} {digest(*files)} {record_digest} solves={len(solved)} steps={sum(solved)}",
            records + [f"max_beta={beta}"])


def panel_matrix(work: Path, full: bool):
    """(line, records) of every panel."""
    panels = [(f"desk/{name}/seed0", DESK, spec, comp, 0) for name, spec, comp in DESK_MAPS]
    panels += [(f"large/{name}/seed{seed}", LARGE, spec, comp, seed)
            for seed in range(7) for name, spec, comp in LARGE_MAPS]
    panels += [(f"desk_k30/sign_pre/seed{seed}", {**DESK, "k": 30}, {"kind": "sign"}, "pre", seed)
            for seed in range(3)]
    for panel in panels:
        yield run_panel(*panel, work)


# ---------------------------------------------------------------------------
# cert: the 256 (map kind, dimension, planted zeros) pairs of one cert_sweep
# pass at each benchmark seed.  A line is
#
#     seed<s>/<index> <kind> dim<n> holds=<1234> type=<t> errors=<list> <digest of the fields>
#
# where ``holds`` gives the four ``check_requirement`` verdicts for types 1-4
# as T or F, ``type`` the type ``linearize_strongest`` built and ``errors``
# what ``certificate_errors`` returned for it.  The digest covers the dtype,
# shape and bits of the certificate's perm, vals, q, col, Fz and z, in that
# order.  A pair where ``linearize_strongest`` raises prints ``type=-`` and
# the error's class and message in place of the errors and digest.  The
# details are those six fields.
# ---------------------------------------------------------------------------

FIELDS = ("perm", "vals", "q", "col", "Fz", "z")


def fields(cert) -> tuple[list[str], str]:
    """``name value`` for each field, arrays as the repr of their list; and
    the digest of the fields, arrays by dtype, shape and bits."""
    lines, parts = [], []
    for name in FIELDS:
        value = getattr(cert, name)
        if isinstance(value, np.ndarray):
            lines.append(f"{name} {value.tolist()}")
            parts += [f"{name} {value.dtype.str} {value.shape}\n", value.tobytes()]
        else:
            lines.append(f"{name} {value!r}")
            parts.append(f"{name} {value!r}\n")
    return lines, digest(*parts)


def run_pair(label: str, F, z) -> tuple[str, list[str]]:
    """The pair's line and its field lines."""
    holds = "".join("TF"[not maps.check_requirement(F, t, z).holds] for t in (1, 2, 3, 4))
    head = f"{label} {F.kind} dim{z.shape[0]} holds={holds}"
    try:
        cert = pwl.linearize_strongest(F, z)
    except ValueError as exc:  # RequirementError is a ValueError
        return f"{head} type=- {type(exc).__name__}: {exc}", []
    lines, field_digest = fields(cert)
    return f"{head} type={cert.type} errors={pwl.certificate_errors(cert)} {field_digest}", lines


def cert_matrix(work: Path, full: bool):
    for seed in SEEDS:
        for i, (F, z) in enumerate(CertSweep(seed, work).groups):
            yield run_pair(f"seed{seed}/{i:03d}", F, z)


# ---------------------------------------------------------------------------
# brute: the benchmark's brute_certify instances and a few extra shapes.  A
# line is
#
#     <label> <rows>x<cols> spark=<s> witness=<w> <digest of the reports>
#
# where the digest covers the JSON of the spark, RIP (order 4) and NSP (order
# 2, 1,000 samples) reports of A and, for a brute_certify instance, both
# invariance verdicts and the l0 pipeline's report on its 6x12 matrix, as the
# benchmark computes them; a call that raises contributes the error's class
# and message instead.
#
# With ``--full`` each line also gives ``b``, the level where the spark
# screen starts its minors, and how many probe subsets of A each stage takes:
# ``det_cleared`` cleared by the recursion's determinant bound,
# ``floor_cleared`` by the Cholesky floor test, and ``svd`` sent on to the
# SVD; the three sum to C(cols, rows) (``b=-`` when the probe is not
# screened: a tall A, or one outside ``in_safe_range``); then, for
# ``rip_constants(A, 4)``, ``rip_screened``, the supports in chunks that the
# RIP screen runs on, and ``rip_eigvalsh``, the supports sent to ``eigvalsh``
# (seeds, uncleared supports and every support of an unscreened chunk); last,
# for a brute_certify instance, ``rip_gate``, the route of each call of the
# RIP-order gate, first the l0 pipeline's on its 6x12 matrix, then the
# invariance triple's: ``proved`` by the gate's own test, or ``fallback`` to
# ``rip_constants`` (``rip_gate=-`` on the other lines).  These fields read
# ``sensing_properties._base_level``, ``_uncleared``, ``_floor_cleared``,
# ``_rip_screens``, ``_extremes`` and ``_require_rip_order``, so they need a
# checkout that has them; the digests do not.
#
# The instances: the eight brute_certify shapes at benchmark seeds 0-2; the
# same matrices with a dependency planted at level 3 and at level rows; the
# 6x12 matrix scaled by 2^300, 2^-300, 2^420, 2^600 and 2^-600; and the
# near-square shapes 10x14, 12x16, 14x18, 15x16, 17x19 and 19x19.
# ---------------------------------------------------------------------------

NEAR_SQUARE = ((10, 14), (12, 16), (14, 18), (15, 16), (17, 19), (19, 19))


def planted(A: np.ndarray, level: int) -> np.ndarray:
    """A with its last column a combination of ``level - 1`` others."""
    A = A.copy()
    A[:, -1] = A[:, :level - 1] @ np.linspace(0.5, 1.5, level - 1)
    return A


def attempt(call) -> str:
    """The JSON of ``call()``'s report, its value, or the error it raised."""
    try:
        out = call()
    except Exception as exc:  # noqa: BLE001 - any error is part of the answer
        return f"{type(exc).__name__}: {exc}"
    return out.to_json() if hasattr(out, "to_json") else str(out)


def reports(A: np.ndarray, inst=None) -> list[str]:
    """The reports that the digest covers, in order."""
    seed = 0 if inst is None else inst.nsp_seed
    out = [attempt(lambda: props.spark(A)), attempt(lambda: props.rip_constants(A, 4)),
           attempt(lambda: props.nsp_estimate(A, 2, BruteCertify.NSP_SAMPLES, seed))]
    if inst is not None:
        out += [attempt(lambda: props.check_invariance_spark(inst.A6, inst.M_I, inst.M_D)),
                attempt(lambda: props.check_invariance_rip_order(inst.A6, 2, inst.M_I, inst.M_D)),
                attempt(lambda: nlcs.recovery.recover_via_linearization(
                    inst.A6, inst.F, "pre", inst.x, "l0").report)]
    return out


def screen_fields(A: np.ndarray) -> str:
    m, n = A.shape
    if m > n or not in_safe_range(A):
        return "b=- det_cleared=0 floor_cleared=0 svd=-"
    floor, reached = props._floor_cleared, []

    def counting(G, subs, tau):
        reached.append(len(subs))
        return floor(G, subs, tau)

    with swapped((props, "_floor_cleared", counting)):
        sent = sum(len(chunk) for chunk in props._uncleared(A))
    return (f"b={props._base_level(n, m)} det_cleared={math.comb(n, m) - sum(reached)}"
            f" floor_cleared={sum(reached) - sent} svd={sent}")


def rip_fields(A: np.ndarray) -> str:
    counts = {"screened": 0, "eigvalsh": 0}
    screens, extremes = props._rip_screens, props._extremes

    def screening(N, k):
        chosen = screens(N, k)
        counts["screened"] += N * chosen
        return chosen

    def counting(M, subs, alpha, beta):
        counts["eigvalsh"] += len(subs)
        return extremes(M, subs, alpha, beta)

    with swapped((props, "_rip_screens", screening), (props, "_extremes", counting)):
        attempt(lambda: props.rip_constants(A, 4))
    return f"rip_screened={counts['screened']} rip_eigvalsh={counts['eigvalsh']}"


def gate_field(inst) -> str:
    """The route of each RIP-order gate call of the l0 pipeline, then of the
    invariance triple: proved, or fallback to ``rip_constants``."""
    if inst is None:
        return "rip_gate=-"
    routes = []
    gate, rip = props._require_rip_order, props.rip_constants

    def routing(A, k):
        routes.append("proved")
        return gate(A, k)

    def falling_back(A, k):
        routes[-1] = "fallback"
        return rip(A, k)

    with swapped((props, "_require_rip_order", routing),
                 (nlcs.recovery, "_require_rip_order", routing),
                 (props, "rip_constants", falling_back)):
        attempt(lambda: nlcs.recovery.recover_via_linearization(inst.A6, inst.F, "pre", inst.x, "l0"))
        attempt(lambda: props.check_invariance_rip_order(inst.A6, 2, inst.M_I, inst.M_D))
    return f"rip_gate={','.join(routes)}"


def run_brute(label: str, A: np.ndarray, full: bool, inst=None) -> str:
    rep = props.spark(A)
    reports_digest = digest("\n".join(reports(A, inst)))
    line = (f"{label} {A.shape[0]}x{A.shape[1]} spark={rep.spark} witness={rep.witness}"
            f" {reports_digest}")
    return f"{line} {screen_fields(A)} {rip_fields(A)} {gate_field(inst)}" if full else line


def instances(work: Path):
    """(label, A, brute instance or None) for every line."""
    for seed in SEEDS:
        groups = BruteCertify(seed, work).groups
        for i, inst in enumerate(groups):
            yield f"seed{seed}/{i}", inst.A, inst
        for i, inst in enumerate(groups):
            for level in (3, inst.A.shape[0]):
                yield f"seed{seed}/{i}/dep{level}", planted(inst.A, level), None
        for power in (300, -300, 420, 600, -600):
            yield f"seed{seed}/A6*2^{power}", inst.A6 * 2.0**power, None
    for i, (m, n) in enumerate(NEAR_SQUARE):
        yield f"near/{i}", gaussian_matrix(m, n, 100 + i), None


def brute_matrix(work: Path, full: bool):
    for label, A, inst in instances(work):
        yield run_brute(label, A, full, inst), []


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

SECTIONS = {"cli": cli_matrix, "panel": panel_matrix, "cert": cert_matrix, "brute": brute_matrix}


def print_matrices(full: bool) -> None:
    """Every matrix after its header, run in one temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, matrix in SECTIONS.items():
                print(f"== {name} ==", flush=True)
                for line, details in matrix(Path(work), full):
                    print(line, flush=True)
                    if full and details:  # indented by four spaces
                        print(textwrap.indent("\n".join(details), "    ", lambda _: True),
                              flush=True)
        finally:
            os.chdir(cwd)


def sections(text: str) -> dict[str, list[str]]:
    """The lines of each matrix in the output of ``print_matrices``."""
    out: dict[str, list[str]] = {}
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            body = out[line[3:-3]] = []
        else:
            body.append(line)
    return out


def report(rev: str, before: str, after: str) -> int:
    """Print, per matrix, the lines compared, how many differ and the differing
    lines between ``before`` (REV's output) and ``after`` (this checkout's);
    1 when a line differs, else 0."""
    old, new = sections(before), sections(after)
    moved = 0
    for name in SECTIONS:
        a, b = old[name], new[name]
        opcodes = difflib.SequenceMatcher(None, a, b).get_opcodes()
        differ = sum(max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in opcodes if tag != "equal")
        print(f"{name}: {max(len(a), len(b))} lines compared, {differ} differ")
        lines = difflib.unified_diff(a, b, rev, "here", n=0, lineterm="")
        for line in itertools.islice(lines, 2, None):  # past the ---/+++ header
            print("    " + line)
        moved += differ
    return int(moved > 0)


def build_tree(rev: str, tree: Path) -> None:
    """``git archive REV src`` under ``tree``, next to copies of this
    checkout's ``tools`` and ``perfbench``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             stdout=subprocess.PIPE, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    for name in ("tools", "perfbench"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))


def diff(rev: str, full: bool) -> int:
    """Run the matrices on ``rev``'s package and on this checkout's, in
    parallel, and ``report`` the difference; 2 when a side fails (its error
    goes to stderr)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **dict.fromkeys(THREAD_VARS, "1")}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        try:
            build_tree(rev, tmp / "tree")
        except subprocess.CalledProcessError:
            print(f"git archive {rev} src failed")
            return 2
        procs = []
        for i, root in enumerate((tmp / "tree", ROOT)):
            with open(tmp / f"{i}.out", "w") as out:
                cmd = [sys.executable, str(root / "tools" / "identity.py")] + ["--full"] * full
                procs.append(subprocess.Popen(cmd, stdout=out, env=env))
        codes = [proc.wait() for proc in procs]
        for label, code in zip((rev, "this checkout"), codes):
            if code:
                print(f"{label} failed with exit code {code}")
        if any(codes):
            return 2
        return report(rev, *((tmp / f"{i}.out").read_text() for i in range(2)))


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="identity matrices of the package's answers")
    parser.add_argument("--full", action="store_true", help="add each matrix's detail fields")
    parser.add_argument("rev", nargs="?", help="diff the matrices against this git revision")
    opts = parser.parse_args(args)
    if opts.rev:
        return diff(opts.rev, opts.full)
    print_matrices(opts.full)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
