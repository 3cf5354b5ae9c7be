"""Smoke tests of ``tools/identity.py``: it imports, one instance or
argument list of each matrix goes through the function that makes its
line, with and without what ``--full`` adds, and the diff against a
revision reports what moved.  The tool reads private names of the package
(``sensing_properties._uncleared``, ``_base_level``, ``_floor_cleared``,
``_rip_screens``, ``_extremes``, ``_require_rip_order``;
``lp._gram_factor``; ``recovery.certify_l1``, ``_margin_and_bound``), so a rename breaks
them here rather than at the next identity run."""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load():
    spec = importlib.util.spec_from_file_location("tools_identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_brute_matrix(tmp_path):
    tool = load()
    inst = tool.BruteCertify(0, tmp_path).groups[1]
    line = tool.run_brute("seed0/1", inst.A, False, inst)
    assert re.fullmatch(r"seed0/1 6x12 spark=7 witness=\[0, 1, 2, 3, 4, 5, 6\] [0-9a-f]{16}", line)
    full = tool.run_brute("seed0/1", inst.A, True, inst)
    assert re.fullmatch(re.escape(line) + r" b=1 det_cleared=\d+ floor_cleared=\d+ svd=\d+"
                        r" rip_screened=495 rip_eigvalsh=\d+ rip_gate=proved,proved,proved,proved",
                        full)
    assert tool.run_brute("small", inst.A[:, :6], True).endswith(
        " rip_screened=0 rip_eigvalsh=15 rip_gate=-")
    inst.A6[:, 5] = inst.A6[:, 3]  # the gate on A cannot prove it; the pipeline then fails
    assert tool.gate_field(inst) == "rip_gate=fallback,fallback"


def test_brute_matrix_stages_cover_the_probe(tmp_path):
    tool = load()
    routes = set()
    for _, A, _ in tool.instances(tmp_path):
        fields = dict(field.split("=") for field in tool.screen_fields(A).split())
        if fields["b"] != "-":
            stages = [int(fields[name]) for name in ("det_cleared", "floor_cleared", "svd")]
            assert sum(stages) == math.comb(A.shape[1], A.shape[0])
            routes.add((fields["b"] == "1", stages[0] > 0))
    assert routes == {(True, True), (False, False)}  # only the recursion clears by determinant


def test_cert_matrix(tmp_path):
    tool = load()
    F, z = tool.CertSweep(0, tmp_path).groups[0]
    line, fields = tool.run_pair("seed0/000", F, z)
    assert line.startswith(f"seed0/000 {F.kind} dim{z.shape[0]} holds=")
    assert [f.split()[0] for f in fields] in ([], list(tool.FIELDS))


def test_panel_matrix(tmp_path):
    tool = load()
    sizes = {"m": 12, "n": 24, "k": 2, "trials": 3}
    # a least-squares dual candidate proves every sign/pre trial before a solve
    line, (*records, beta) = tool.run_panel("smoke/sign_pre", sizes, {"kind": "sign"}, "pre", 0,
                                            tmp_path)
    assert re.fullmatch(r"smoke/sign_pre [0-9a-f]{16} [0-9a-f]{16} solves=0 steps=0", line)
    assert records == [f"{t} - - converged True 0 0 guess=2:ls1" for t in range(3)]
    assert 0.0 < float(beta.removeprefix("max_beta=")) < 1e-9
    # square/post: the dual 0 proves trials 0 and 2, the first candidate trial 1
    line, (*records, beta) = tool.run_panel("smoke/square_post", sizes, {"kind": "square"},
                                            "post", 0, tmp_path)
    assert line.endswith(" solves=0 steps=0")
    assert records == ["0 - - converged True 0 0 guess=1:dual0",
                       "1 - - converged True 0 0 guess=2:ls1",
                       "2 - - converged True 0 0 guess=1:dual0"]
    assert 0.0 < float(beta.removeprefix("max_beta=")) < 1e-9


def test_panel_matrix_beta_is_the_largest_over_the_proofs(tmp_path, monkeypatch):
    # every bound the checker computes, proof or not, and the ones it accepted
    from nlcs import recovery
    bounds, check = [], recovery._margin_and_bound

    def recorded(*args):
        found = check(*args)
        bounds.append(found)
        return found

    monkeypatch.setattr(recovery, "_margin_and_bound", recorded)
    tool = load()
    sizes = {"m": 12, "n": 24, "k": 2, "trials": 3}
    _, (*_, beta) = tool.run_panel("smoke/sign_pre", sizes, {"kind": "sign"}, "pre", 0, tmp_path)
    proofs = [bound for margin, bound in filter(None, bounds) if margin > bound]
    assert len(proofs) == 3 and beta == f"max_beta={max(proofs)!r}"
    monkeypatch.setattr(recovery, "_proven_on_support", lambda B, y, S: None)
    monkeypatch.setattr(recovery, "certify_l1", lambda B, b, S: None)  # nothing is proven
    _, (*_, beta) = tool.run_panel("smoke/sign_pre", sizes, {"kind": "sign"}, "pre", 0, tmp_path)
    assert beta == "max_beta=-"


def test_panel_matrix_without_the_candidates(tmp_path, monkeypatch):
    # with no dual candidates the dual 0 alone is tested before the solve; the
    # solves run, and their certify hook proves at an iterate
    from nlcs import recovery
    monkeypatch.setattr(recovery, "_ls_duals", lambda *args: iter(()))
    tool = load()
    sizes = {"m": 12, "n": 24, "k": 2, "trials": 3}
    line, (*records, _) = tool.run_panel("smoke/sign_pre", sizes, {"kind": "sign"}, "pre", 0,
                                         tmp_path)
    assert re.fullmatch(r"smoke/sign_pre [0-9a-f]{16} [0-9a-f]{16} solves=3 steps=\d+", line)
    assert [r.split()[0] for r in records] == ["0", "1", "2"]
    for record in records:  # certify_l1 proved at the iterate the solve returned
        trial, steps, iterate, status, certified, calls, _, guess = record.split()
        assert (steps, status, certified, guess) == (iterate, "converged", "True", "guess=1:-")
        assert int(calls) >= 1
    # square/post: the guess proves trials 0 and 2 at the dual 0, before any solve
    line, (*records, _) = tool.run_panel("smoke/square_post", sizes, {"kind": "square"},
                                         "post", 0, tmp_path)
    assert line.endswith(" solves=1 steps=3")
    assert records == ["0 - - converged True 0 0 guess=1:dual0",
                       "1 3 3 converged True 2 0 guess=1:-",
                       "2 - - converged True 0 0 guess=1:dual0"]


def test_panel_matrix_without_the_guess(tmp_path, monkeypatch):
    # a package without the support guess, as at the parent of the change
    # that added it: the matrix still runs, counts the solves' certify
    # calls, and records guess=0:-
    from nlcs import recovery
    monkeypatch.setattr(recovery, "_proven_on_support", lambda B, y, S: None)
    tool = load()
    sizes = {"m": 12, "n": 24, "k": 2, "trials": 3}
    line, (*records, beta) = tool.run_panel("smoke/square_post", sizes, {"kind": "square"},
                                            "post", 0, tmp_path)
    assert line.endswith(" solves=3 steps=" + str(sum(int(r.split()[1]) for r in records)))
    assert beta != "max_beta=-"  # the solves' certify hook proves every trial
    assert [r.split()[-1] for r in records] == ["guess=0:-"] * 3
    assert all(int(r.split()[5]) >= 1 for r in records)


def test_panel_matrix_of_the_older_builder_name(tmp_path, monkeypatch):
    # a package whose builder is ``_support_certifier``, reached through a
    # ``certify_l1`` that calls it, as before the builder took that name: the
    # tool wraps the builder there and makes the same line and records
    from nlcs import recovery
    monkeypatch.setattr(recovery, "_ls_duals", lambda *args: iter(()))  # trial 1 is solved
    tool = load()
    args = ("smoke/square_post", {"m": 12, "n": 24, "k": 2, "trials": 3}, {"kind": "square"},
            "post", 0)
    line, records = tool.run_panel(*args, tmp_path / "current")
    assert records[1] == "1 3 3 converged True 2 0 guess=1:-" and records[-1] != "max_beta=-"
    monkeypatch.setattr(recovery, "_support_certifier", recovery.certify_l1, raising=False)
    monkeypatch.setattr(recovery, "certify_l1",
                        lambda B, b, S: recovery._support_certifier(B, b, S))
    assert tool.run_panel(*args, tmp_path / "older") == (line, records)


def test_cli_matrix(tmp_path, monkeypatch):
    tool = load()
    monkeypatch.chdir(tmp_path)
    configs = tool._write_inputs()
    assert all(Path(c).exists() for c in configs if c != "missing.json")
    code, stdout, stderr = tool.run_cli(["rip", "g6x12.csv", "--k", "2"])
    assert (code, stderr) == (0, "") and json.loads(stdout)["order"] == 2
    code, stdout, stderr = tool.run_cli(["spark", "missing.csv"])
    assert code == 1 and stdout == "" and stderr.startswith("error:")


OUTPUT = "".join(f"== {name} ==\n{name} line 1\n    {name} detail\n{name} line 2\n"
                 for name in ("cli", "panel", "cert", "brute"))


def test_report_of_identical_outputs(capsys):
    tool = load()
    assert tool.report("REV", OUTPUT, OUTPUT) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name}: 3 lines compared, 0 differ" for name in ("cli", "panel", "cert", "brute")]


def test_report_names_a_planted_change(capsys):
    tool = load()
    planted = OUTPUT.replace("panel line 2", "panel line 2 moved")
    assert tool.report("REV", OUTPUT, planted) == 1
    out = capsys.readouterr().out
    assert "panel: 3 lines compared, 1 differ\n    @@ -3 +3 @@\n    -panel line 2\n" \
           "    +panel line 2 moved\ncert: " in out
    assert out.count(" 0 differ") == 3


def test_diff_fails_on_an_unknown_revision(capsys):
    assert load().diff("no-such-revision", False) == 2
    assert "no-such-revision" in capsys.readouterr().out


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_tree_imports_its_own_package(tmp_path):
    tree = tmp_path / "tree"
    load().build_tree("HEAD", tree)
    assert sorted(p.name for p in tree.iterdir()) == ["perfbench", "src", "tools"]
    script = (f"import runpy; runpy.run_path({str(tree / 'tools' / 'identity.py')!r}); "
              "import nlcs; print(nlcs.__file__)")
    found = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           check=True).stdout.strip()
    assert Path(found) == tree / "src" / "nlcs" / "__init__.py"
