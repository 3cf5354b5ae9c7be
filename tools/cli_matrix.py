"""CLI byte-identity matrix: run ``nlcs.cli.main`` over a fixed set of
argument lists and print one line per run.

    python3 tools/cli_matrix.py > matrix.txt
    python3 tools/cli_matrix.py --full > matrix_full.txt

Run it from anywhere inside a source checkout: it imports ``nlcs`` from the
checkout's ``src`` directory.  Every run happens in-process, in a temporary
working directory holding the input files, so that each argument list names
its inputs by relative path and the output does not depend on where the
checkout lives.  A line is

    <exit code> <sha256 of stdout> <sha256 of stderr> <arguments>

with each digest cut to 16 hex digits.  Warnings raised during a run are
recorded and appended to its stderr as ``Category: message`` lines, so they
count in the stderr digest.  The "mean trial runtime" figure that
``nlcs experiment`` prints to stderr is the one nondeterministic output; it
is masked before hashing.  Diffing the output of two checkouts shows every
run whose exit code, output or error changed.  With ``--full`` each digest
line is followed by the run's stdout, every line indented by four spaces,
so that the same diff also names the fields that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from nlcs.cli import main  # noqa: E402
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal  # noqa: E402

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


def runs(configs: list[str]) -> list[list[str]]:
    all_matrices = [*MATRICES, "ragged.csv", "empty.csv", "nan.csv", "text.csv", "missing.csv"]
    out: list[list[str]] = [[], ["--version"], ["selftest"], ["frobnicate"]]
    out += [["spark", a] for a in all_matrices]
    out += [["rip", a, "--k", k] for a in all_matrices for k in ("1", "2", "3", "9")]
    out += [["nsp", a, "--k", k, "--samples", s, "--seed", seed]
            for a in [*MATRICES, "missing.csv"] for k in ("1", "2")
            for s, seed in (("20", "0"), ("20", "1"))]
    out += [["nsp", "g4x8.csv", "--k", "1", "--samples", "0"]]
    out += [["classify", "--map", f, "--composition", c, "--dim", d]
            for f in GOOD_MAPS + BAD_MAPS for c in ("pre", "post") for d in ("1", "4")]
    out += [["classify", "--map", f, "--composition", "pre", "--dim", "3", "--samples", "7",
             "--seed", "11"] for f in GOOD_MAPS]
    out += [["classify", "--map", "abs", "--composition", "pre", "--dim", "0"]]
    out += [["linearize", "--map", f, "--point", p, "--type", t]
            for f in GOOD_MAPS for p in POINTS for t in ("1", "2", "3", "4")]
    out += [["linearize", "--map", f, "--point", "p_mixed.csv", "--type", "3"] for f in BAD_MAPS]
    out += [["linearize", "--map", "abs", "--point", p, "--type", "1"]
            for p in ("nan.csv", "multi.csv", "empty.csv", "missing.csv")]
    out += [["linearize", "--map", "abs", "--point", "p_mixed.csv", "--type", "5"]]
    recover_maps = ["identity", "abs", "sign", '{"kind": "quantize_floor", "step": 1.0}', "sine",
                    "square", '{"kind": "nonzero_random", "seed": 7}']
    out += [["recover", "--matrix", a, "--map", f, "--composition", c, "--signal", x,
             "--method", meth]
            for a in ("g6x12.csv", "g4x8.csv", "dupcol.csv", "eye3.csv", "near6x12.csv")
            for f in recover_maps
            for c in ("pre", "post") for x in SIGNALS for meth in ("l1", "l0")]
    out += [["recover", "--matrix", "g80x160.csv", "--map", f, "--composition", c, "--signal",
             "x160.csv", "--method", "l1"] for f, c in (("sign", "pre"), ("square", "post"))]
    out += [["recover", "--matrix", "g80x160.csv", "--map", "sign", "--composition", "pre",
             "--signal", "x160k40.csv", "--method", "l1"]]
    out += [["recover", "--matrix", "g6x12.csv", "--map", "abs", "--composition", "pre",
             "--signal", "x12.csv", "--method", meth, "--max-iter", it]
            for meth in ("l1", "l0") for it in ("0", "1", "3")]
    out += [["experiment", "--config", c] for c in configs]
    return out


def run_one(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --version, usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    stderr = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, out.getvalue(), RUNTIME_LINE.sub("mean trial runtime: <masked> s", stderr)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main_matrix(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="CLI byte-identity matrix")
    parser.add_argument("--full", action="store_true",
                        help="print each run's stdout, indented, after its digest line")
    full = parser.parse_args(args).full
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            configs = _write_inputs()
            for argv in runs(configs):
                code, stdout, stderr = run_one(argv)
                print(f"{code} {_digest(stdout)} {_digest(stderr)} {json.dumps(argv)}", flush=True)
                if full and stdout:
                    print(textwrap.indent(stdout.rstrip("\n"), "    ", lambda _: True), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_matrix())
