"""Command-line interface.

Subcommands: spark, rip, nsp, classify, linearize, recover, experiment,
selftest.  Exit codes: 0 success, 1 validation error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import NspOrderError, RequirementError, RipOrderError
from .experiment import ExperimentConfig, emit_reports, run_experiment
from .matrix_core import (
    gaussian_matrix,
    random_sparse_signal,
    read_matrix,
    read_vector,
)
from .nonlinear_maps import abs_map, map_from_spec, quantize_floor, sign_map
from .pointwise_linearization import certificate_errors, classify, linearize
from .recovery import basis_pursuit, l0_oracle, recover_via_linearization
from .sensing_properties import nsp_estimate, rip_constants, spark


def _parse_map_spec(text: str) -> dict:
    text = text.strip()
    if text.startswith("{"):
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("map spec JSON must be an object")
        return spec
    return {"kind": text}


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def cmd_spark(args) -> int:
    _emit(spark(read_matrix(args.matrix)).to_dict())
    return 0


def cmd_rip(args) -> int:
    A = read_matrix(args.matrix)
    try:
        _emit(rip_constants(A, args.k).to_dict())
    except RipOrderError as exc:
        _emit({"order": args.k, "holds": False, "message": str(exc)})
    return 0


def cmd_nsp(args) -> int:
    A = read_matrix(args.matrix)
    try:
        _emit(nsp_estimate(A, args.k, args.samples, args.seed).to_dict())
    except NspOrderError as exc:
        _emit({"order": args.k, "holds": False, "message": str(exc)})
    return 0


def cmd_classify(args) -> int:
    F = map_from_spec(_parse_map_spec(args.map), args.dim)
    _emit(classify(F, args.composition, args.samples, args.seed).to_dict())
    return 0


def cmd_linearize(args) -> int:
    z = read_vector(args.point)
    F = map_from_spec(_parse_map_spec(args.map), z.shape[0])
    cert = linearize(F, z, args.type)
    problems = certificate_errors(cert)
    if problems:  # defensive: constructors should never emit an invalid certificate
        print("invalid certificate: " + "; ".join(problems), file=sys.stderr)
        return 2
    _emit(cert.to_dict())
    return 0


def cmd_recover(args) -> int:
    A = read_matrix(args.matrix)
    x = read_vector(args.signal)
    dim = A.shape[0] if args.composition == "pre" else A.shape[1]
    F = map_from_spec(_parse_map_spec(args.map), dim)
    out = recover_via_linearization(A, F, args.composition, x, args.method,
                                    max_iter=args.max_iter)
    payload = out.report.to_dict()
    payload["certificate_type"] = out.certificate.type
    payload["delta_2k"] = out.delta_2k
    payload["scale"] = out.scale
    _emit(payload)
    return 0 if out.report.solver_status == "converged" else 2


def cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    result = run_experiment(config)
    emit_reports(result.records, result.summary, config.output_dir, result.signals)
    payload = result.summary.to_dict()
    payload["output_dir"] = config.output_dir
    _emit(payload)
    print(f"mean trial runtime: {result.summary.mean_runtime_s:.4f} s", file=sys.stderr)
    return 0


def cmd_selftest(args) -> int:
    """Fast internal consistency checks; prints one line per check."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - selftest reports any failure
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    def _spark():
        rep = spark(np.eye(3))
        assert rep.spark == 4 and rep.witness == []

    def _rip():
        rep = rip_constants(np.diag([1.0, 2.0]), 1)
        assert abs(rep.alpha - 1) < 1e-12 and abs(rep.beta - 4) < 1e-12

    def _linearize():
        for seed in range(20):
            A = gaussian_matrix(4, 8, seed)
            z = A @ random_sparse_signal(8, 2, seed + 100)
            for F in (abs_map(4), sign_map(4)):
                cert = linearize(F, z, 3)
                assert not certificate_errors(cert)

    def _floor_fails():
        F = quantize_floor(3, 1.0)
        cert_ok = False
        try:
            linearize(F, np.array([0.5, 1.5, 0.0]), 3)
            cert_ok = True
        except RequirementError:
            pass
        assert not cert_ok

    def _recover():
        A = gaussian_matrix(6, 12, 5)
        x = random_sparse_signal(12, 2, 6)
        out = recover_via_linearization(A, sign_map(6), "pre", x, "l0")
        assert out.report.rel_error < 1e-8 and out.report.support_exact

    def _bp():
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        rep = basis_pursuit(B, np.array([1.0, 0.0]))
        assert rep.solver_status == "converged"
        assert np.abs(rep.x_hat - np.array([1.0, 0.0, 0.0])).max() < 1e-6

    def _l0():
        B = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        rep = l0_oracle(B, np.array([1.0, 0.0]), 2)
        assert np.abs(rep.x_hat - np.array([1.0, 0.0, 0.0])).max() < 1e-10

    check("spark identity", _spark)
    check("rip diagonal", _rip)
    check("diagonal linearization soundness", _linearize)
    check("floor quantizer rejected", _floor_fails)
    check("sign-map recovery", _recover)
    check("basis pursuit vertex", _bp)
    check("l0 oracle", _l0)

    failed = 0
    for name, ok, msg in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {msg}" if msg else ""))
        failed += 0 if ok else 1
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nlcs",
        description="Sparse recovery from nonlinear measurements via pointwise linearization",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spark", help="spark of a matrix (CSV file)")
    sp.add_argument("matrix")
    sp.set_defaults(fn=cmd_spark)

    sp = sub.add_parser("rip", help="brute-force RIP constants of order k")
    sp.add_argument("matrix")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_rip)

    sp = sub.add_parser("nsp", help="sampled NSP lower bound of order k")
    sp.add_argument("matrix")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_nsp)

    sp = sub.add_parser("classify", help="strongest linearization type of a map")
    sp.add_argument("--map", required=True, help="map spec JSON or bare kind name")
    sp.add_argument("--composition", choices=["pre", "post"], required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("linearize", help="certificate F(z) = Y z at a point")
    sp.add_argument("--map", required=True)
    sp.add_argument("--point", required=True, help="vector CSV file")
    sp.add_argument("--type", type=int, choices=[1, 2, 3, 4], required=True)
    sp.set_defaults(fn=cmd_linearize)

    sp = sub.add_parser("recover", help="linearize-then-recover pipeline")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--map", required=True)
    sp.add_argument("--composition", choices=["pre", "post"], required=True)
    sp.add_argument("--signal", required=True, help="true sparse signal (vector CSV)")
    sp.add_argument("--method", choices=["l1", "l0"], required=True)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.set_defaults(fn=cmd_recover)

    sp = sub.add_parser("experiment", help="run a batch experiment from a JSON config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_experiment)

    sp = sub.add_parser("selftest", help="fast internal consistency checks")
    sp.set_defaults(fn=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore"):  # an overflow is reported by its error alone
            return args.fn(args)
    except (ValueError, RipOrderError, OSError) as exc:  # the other package errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
