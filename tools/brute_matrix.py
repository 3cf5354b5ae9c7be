"""Brute-force certificate identity matrix: run the benchmark's brute_certify
instances and a few extra shapes in process and print one line per instance.

    python3 tools/brute_matrix.py > brute.txt
    python3 tools/brute_matrix.py --full > brute_full.txt

Run it from anywhere inside a source checkout: it imports ``nlcs`` from the
checkout's ``src`` directory and takes the instances from ``BruteCertify``
in ``perfbench/workloads.py``, which it only reads.  A line is

    <label> <rows>x<cols> spark=<s> witness=<w> <sha256 of the reports>

where the digest, cut to 16 hex digits, covers the JSON of the spark, RIP
(order 4) and NSP (order 2, 1,000 samples) reports of A and, for a
brute_certify instance, both invariance verdicts and the l0 pipeline's
report on its 6x12 matrix, as the benchmark computes them; a call that
raises contributes the error's class and message instead.  Diffing the
output of two checkouts shows every instance whose answers changed.

With ``--full`` each line also gives ``b``, the level where the spark
screen starts its minors, and ``cleared`` and ``svd``, how many probe
subsets of A the screen clears and how many it sends to the SVD (``b=-``
when the probe is not screened: a tall A, or one outside
``in_safe_range``); then, for ``rip_constants(A, 4)``, ``rip_screened``,
the supports in chunks that the RIP screen runs on, and ``rip_eigvalsh``,
the supports sent to ``eigvalsh`` (seeds, uncleared supports and every
support of an unscreened chunk); last, for a brute_certify instance,
``rip_gate``, the route of each call of the RIP-order gate, first the l0
pipeline's on its 6x12 matrix, then the invariance triple's: ``proved`` by
the gate's own test, or ``fallback`` to ``rip_constants`` (``rip_gate=-``
on the other lines).  These fields read ``sensing_properties._base_level``,
``_uncleared``, ``_rip_screens``, ``_extremes`` and ``_require_rip_order``,
so they need a checkout that has them; the digests do not.

The instances: the eight brute_certify shapes at benchmark seeds 0-2; the
same matrices with a dependency planted at level 3 and at level rows;
the 6x12 matrix scaled by 2^300, 2^-300, 2^420, 2^600 and 2^-600; and the
near-square shapes 10x14, 12x16, 14x18, 15x16, 17x19 and 19x19.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import nlcs.recovery  # noqa: E402
import nlcs.sensing_properties as props  # noqa: E402
from nlcs.matrix_core import gaussian_matrix, in_safe_range  # noqa: E402
from workloads import BruteCertify  # noqa: E402

SEEDS = range(3)
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
        return "b=- cleared=0 svd=-"
    sent = sum(len(chunk) for chunk in props._uncleared(A))
    return f"b={props._base_level(n, m)} cleared={math.comb(n, m) - sent} svd={sent}"


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

    props._rip_screens, props._extremes = screening, counting
    try:
        attempt(lambda: props.rip_constants(A, 4))
    finally:
        props._rip_screens, props._extremes = screens, extremes
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

    props._require_rip_order = nlcs.recovery._require_rip_order = routing
    props.rip_constants = falling_back
    try:
        attempt(lambda: nlcs.recovery.recover_via_linearization(inst.A6, inst.F, "pre", inst.x, "l0"))
        attempt(lambda: props.check_invariance_rip_order(inst.A6, 2, inst.M_I, inst.M_D))
    finally:
        props._require_rip_order = nlcs.recovery._require_rip_order = gate
        props.rip_constants = rip
    return f"rip_gate={','.join(routes)}"


def run(label: str, A: np.ndarray, full: bool, inst=None) -> str:
    rep = props.spark(A)
    digest = hashlib.sha256("\n".join(reports(A, inst)).encode()).hexdigest()[:16]
    line = f"{label} {A.shape[0]}x{A.shape[1]} spark={rep.spark} witness={rep.witness} {digest}"
    return f"{line} {screen_fields(A)} {rip_fields(A)} {gate_field(inst)}" if full else line


def instances():
    """(label, A, brute instance or None) for every line."""
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            groups = BruteCertify(seed, Path(work)).groups
            for i, inst in enumerate(groups):
                yield f"seed{seed}/{i}", inst.A, inst
            for i, inst in enumerate(groups):
                for level in (3, inst.A.shape[0]):
                    yield f"seed{seed}/{i}/dep{level}", planted(inst.A, level), None
            for power in (300, -300, 420, 600, -600):
                yield f"seed{seed}/A6*2^{power}", inst.A6 * 2.0**power, None
    for i, (m, n) in enumerate(NEAR_SQUARE):
        yield f"near/{i}", gaussian_matrix(m, n, 100 + i), None


def main_matrix(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="brute-force certificate identity matrix")
    parser.add_argument("--full", action="store_true",
                        help="add the spark and RIP screens' counts to each line")
    full = parser.parse_args(args).full
    for label, A, inst in instances():
        print(run(label, A, full, inst), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_matrix())
