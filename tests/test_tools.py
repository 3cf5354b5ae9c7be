"""Smoke tests of the four identity tools in ``tools/``: each one imports,
and one instance or argument list goes through the function that makes
its line, with and without what ``--full`` adds.  The tools read private
names of the package (``sensing_properties._uncleared``, ``_base_level``,
``_rip_screens``, ``_extremes``, ``_require_rip_order``;
``lp._gram_factor``), so a rename breaks them here rather than at the next
identity run."""

import importlib.util
import json
import re
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_brute_matrix(tmp_path):
    tool = load("brute_matrix")
    inst = tool.BruteCertify(0, tmp_path).groups[1]
    line = tool.run("seed0/1", inst.A, False, inst)
    assert re.fullmatch(r"seed0/1 6x12 spark=7 witness=\[0, 1, 2, 3, 4, 5, 6\] [0-9a-f]{16}", line)
    full = tool.run("seed0/1", inst.A, True, inst)
    assert re.fullmatch(re.escape(line) + r" b=1 cleared=\d+ svd=\d+ rip_screened=495"
                        r" rip_eigvalsh=\d+ rip_gate=proved,proved,proved,proved", full)
    assert tool.run("small", inst.A[:, :6], True).endswith(
        " rip_screened=0 rip_eigvalsh=15 rip_gate=-")
    inst.A6[:, 5] = inst.A6[:, 3]  # the gate on A cannot prove it; the pipeline then fails
    assert tool.gate_field(inst) == "rip_gate=fallback,fallback"


def test_cert_matrix(tmp_path):
    tool = load("cert_matrix")
    F, z = tool.CertSweep(0, tmp_path).groups[0]
    line, fields = tool.run_pair("seed0/000", F, z)
    assert line.startswith(f"seed0/000 {F.kind} dim{z.shape[0]} holds=")
    assert [f.split()[0] for f in fields] in ([], list(tool.FIELDS))


def test_panel_matrix(tmp_path):
    tool = load("panel_matrix")
    sizes = {"m": 12, "n": 24, "k": 2, "trials": 3}
    line, records = tool.run_panel("smoke/sign_pre", sizes, {"kind": "sign"}, "pre", 0, tmp_path)
    assert re.fullmatch(r"smoke/sign_pre [0-9a-f]{16} [0-9a-f]{16} solves=3 steps=\d+", line)
    assert [r.split()[0] for r in records] == ["0", "1", "2"]


def test_cli_matrix(tmp_path, monkeypatch):
    tool = load("cli_matrix")
    monkeypatch.chdir(tmp_path)
    configs = tool._write_inputs()
    assert all(Path(c).exists() for c in configs if c != "missing.json")
    code, stdout, stderr = tool.run_one(["rip", "g6x12.csv", "--k", "2"])
    assert (code, stderr) == (0, "") and json.loads(stdout)["order"] == 2
    code, stdout, stderr = tool.run_one(["spark", "missing.csv"])
    assert code == 1 and stdout == "" and stderr.startswith("error:")

