"""Certificate identity matrix: run the benchmark's cert_sweep pairs in
process and print one line per (F, z) pair.

    python3 tools/cert_matrix.py > certs.txt
    python3 tools/cert_matrix.py --full > certs_full.txt

Run it from anywhere inside a source checkout: it imports ``nlcs`` from the
checkout's ``src`` directory and takes the pairs from ``CertSweep`` in
``perfbench/workloads.py``, which it only reads.  A line is

    seed<s>/<index> <kind> dim<n> holds=<1234> type=<t> errors=<list> <sha256 of the fields>

where ``holds`` gives the four ``check_requirement`` verdicts for types 1-4
as T or F, ``type`` the type ``linearize_strongest`` built and ``errors``
what ``certificate_errors`` returned for it.  The digest, cut to 16 hex
digits, covers the dtype, shape and bits of the certificate's perm, vals,
q, col, Fz and z, in that order.  A pair where ``linearize_strongest``
raises prints ``type=-`` and the error's class and message in place of the
errors and digest.  With ``--full`` each line is followed by those six
fields, indented by four spaces, so that a diff of two checkouts names the
entries that moved.

The pairs: the 256 (map kind, dimension, planted zeros) pairs of one
cert_sweep pass at benchmark seeds 0-2.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import nlcs.nonlinear_maps as maps  # noqa: E402
import nlcs.pointwise_linearization as pwl  # noqa: E402
from workloads import CertSweep  # noqa: E402

SEEDS = range(3)
FIELDS = ("perm", "vals", "q", "col", "Fz", "z")


def field_lines(cert) -> list[str]:
    """``name value`` for each field; arrays as the repr of their list."""
    out = []
    for name in FIELDS:
        value = getattr(cert, name)
        out.append(f"{name} {value.tolist() if isinstance(value, np.ndarray) else value!r}")
    return out


def field_digest(cert) -> str:
    digest = hashlib.sha256()
    for name in FIELDS:
        value = getattr(cert, name)
        if isinstance(value, np.ndarray):
            digest.update(f"{name} {value.dtype.str} {value.shape}\n".encode())
            digest.update(value.tobytes())
        else:
            digest.update(f"{name} {value!r}\n".encode())
    return digest.hexdigest()[:16]


def run_pair(label: str, F, z) -> tuple[str, list[str]]:
    """The pair's line and its field lines."""
    holds = "".join("TF"[not maps.check_requirement(F, t, z).holds] for t in (1, 2, 3, 4))
    head = f"{label} {F.kind} dim{z.shape[0]} holds={holds}"
    try:
        cert = pwl.linearize_strongest(F, z)
    except ValueError as exc:  # RequirementError is a ValueError
        return f"{head} type=- {type(exc).__name__}: {exc}", []
    errors = pwl.certificate_errors(cert)
    return f"{head} type={cert.type} errors={errors} {field_digest(cert)}", field_lines(cert)


def main_matrix(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="certificate identity matrix")
    parser.add_argument("--full", action="store_true",
                        help="print each certificate's fields, indented, after its line")
    full = parser.parse_args(args).full
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            for i, (F, z) in enumerate(CertSweep(seed, Path(work)).groups):
                line, fields = run_pair(f"seed{seed}/{i:03d}", F, z)
                print(line)
                if full and fields:
                    print("\n".join("    " + f for f in fields))
    return 0


if __name__ == "__main__":
    raise SystemExit(main_matrix())
