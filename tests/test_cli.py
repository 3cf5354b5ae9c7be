import json
import warnings

import numpy as np
import pytest

from nlcs.cli import main
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "A.csv"
    np.savetxt(path, np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), delimiter=",")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpark:
    def test_reports_witness(self, matrix_file, capsys):
        code, out, _ = run_cli(capsys, "spark", matrix_file)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"spark": 3, "witness": [0, 1, 2]}

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "spark", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error" in err


class TestRip:
    def test_success(self, tmp_path, capsys):
        path = tmp_path / "D.csv"
        np.savetxt(path, np.diag([1.0, 2.0]), delimiter=",")
        code, out, _ = run_cli(capsys, "rip", str(path), "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == pytest.approx(1.0)
        assert payload["beta"] == pytest.approx(4.0)
        assert payload["lambda"] == pytest.approx(np.sqrt(0.4))

    def test_failure_reported(self, tmp_path, capsys):
        path = tmp_path / "D.csv"
        np.savetxt(path, np.array([[1.0, 1.0], [2.0, 2.0]]), delimiter=",")
        code, out, _ = run_cli(capsys, "rip", str(path), "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is False

    def test_invalid_order(self, matrix_file, capsys):
        code, _, err = run_cli(capsys, "rip", matrix_file, "--k", "9")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("scale, k", [(2.0**600, 2), (2.0**-600, 2), (1e300, 1)])
    def test_constants_outside_float_range(self, tmp_path, capsys, scale, k):
        path = tmp_path / "big.csv"
        np.savetxt(path, scale * gaussian_matrix(4, 8, 1), delimiter=",")
        code, out, err = run_cli(capsys, "rip", str(path), "--k", str(k))
        assert (code, out) == (1, "")
        assert "outside float64's range" in err and "scaled by 2^" in err


class TestNsp:
    def test_estimate(self, matrix_file, capsys):
        code, out, _ = run_cli(capsys, "nsp", matrix_file, "--k", "1", "--samples", "50", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 50
        assert payload["c_lower"] > 0

    def test_order_failure_reported(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.array([[1.0, -1.0]]), delimiter=",")
        code, out, _ = run_cli(capsys, "nsp", str(path), "--k", "2", "--samples", "10")
        assert code == 0
        assert json.loads(out)["holds"] is False


class TestClassify:
    def test_abs(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--map", "abs", "--composition", "post", "--dim", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["best_type"] == 3
        assert payload["qualifies"] is True

    def test_json_spec(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--map",
            '{"kind": "quantize_floor", "step": 1.0}',
            "--composition",
            "pre",
            "--dim",
            "4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["best_type"] == 1
        assert payload["qualifies"] is False

    def test_unknown_kind(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--map", "tanh", "--composition", "pre", "--dim", "3")
        assert code == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed(self, capsys, seed):
        spec = '{"kind": "nonzero_random", "seed": %s}' % seed
        code, out, err = run_cli(capsys, "classify", "--map", spec, "--composition", "pre", "--dim", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec", ['{"kind": "nonzero_random", "seed": 3.7}',
                                      '{"kind": "quantize_floor", "step": Infinity}',
                                      '{"kind": "quantize_afz", "step": NaN}'])
    def test_bad_map_parameter(self, capsys, spec):
        code, out, err = run_cli(capsys, "classify", "--map", spec, "--composition", "pre", "--dim", "3")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and ("seed" in err or "step" in err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("spec", ['{"kind": "quantize_afz", "step": [1]}',
                                      '{"kind": "quantize_floor", "step": null}',
                                      '{"kind": ["abs"]}'])
    def test_wrongly_typed_spec(self, capsys, spec):
        code, _, err = run_cli(capsys, "classify", "--map", spec, "--composition", "pre", "--dim", "3")
        assert code == 1
        assert err.startswith("error:")


class TestLinearize:
    def test_diagonal_certificate(self, tmp_path, capsys):
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array([1.0, -2.0, 0.0]), delimiter=",")
        code, out, _ = run_cli(capsys, "linearize", "--map", "abs", "--point", str(point), "--type", "3")
        assert code == 0
        payload = json.loads(out)
        Y = np.array(payload["Y"]).reshape(3, 3)
        assert np.allclose(Y, np.diag([1.0, -1.0, 1.0]))

    def test_tiny_entry_certificate_accepted(self, tmp_path, capsys):
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array([1.0, 1e-12]), delimiter=",")
        code, out, err = run_cli(capsys, "linearize", "--map", "sign", "--point", str(point),
                                 "--type", "3")
        assert code == 0, err
        assert json.loads(out)["Y"] == [1.0, 0.0, 0.0, 1e12]

    def test_tiny_entry_type2_certificate_accepted(self, tmp_path, capsys):
        # an exact two-pivot Y with cond(Y) > 1e16 is invertible by structure
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array([0.0, 1e-9, 1.0, 0.0]), delimiter=",")
        code, out, err = run_cli(capsys, "linearize", "--map", "sine", "--point", str(point),
                                 "--type", "2")
        assert code == 0, err
        assert json.loads(out)["type"] == 2

    @pytest.mark.parametrize("spec", ["sign", '{"kind": "quantize_afz", "step": 0.5}'])
    @pytest.mark.parametrize("t", ["1", "2", "3", "4"])
    def test_subnormal_entry_counts_as_zero(self, tmp_path, capsys, spec, t):
        # z_0 = 1e-310 is a zero coordinate while f_0(z) != 0: types 1 and 2
        # hold and build, types 3 and 4 fail, and nothing overflows
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array([1e-310, 1.0]), delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "linearize", "--map", spec, "--point", str(point),
                                     "--type", t)
        assert caught == []
        if t in ("1", "2"):
            assert (code, err) == (0, "")
            assert json.loads(out)["type"] == int(t)
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error: map ")
            assert f"violates linearization requirement {t}" in err

    @pytest.mark.parametrize("t", ["1", "2", "3", "4"])
    def test_overflow_is_one_error(self, tmp_path, capsys, t):
        # 1e300 / 1e-10 is beyond the float range for every type's construction
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array([1e-10, 1.0]), delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "linearize", "--map",
                                     '{"kind": "quantize_afz", "step": 1e300}',
                                     "--point", str(point), "--type", t)
        assert (code, out, caught) == (1, "", [])
        assert err.splitlines() == [
            "error: certificate overflows at the given point: some f_i(z)/z_j is not finite"
        ]

    @pytest.mark.parametrize("spec, kind, z", [
        ("square", "square", [1e200, 1.0]),
        ('{"kind": "quantize_floor", "step": 0.5}', "quantize_floor", [1.7e308, 1.0]),
    ])
    def test_map_overflow_is_one_error(self, tmp_path, capsys, spec, kind, z):
        # the map's own output overflows: its error, and no numpy warning ahead of it
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array(z), delimiter=",")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "linearize", "--map", spec, "--point", str(point),
                                     "--type", "3")
        assert (code, out, caught) == (1, "", [])
        assert err.splitlines() == [f"error: map {kind!r} produced non-finite output"]

    def test_requirement_violation(self, tmp_path, capsys):
        point = tmp_path / "z.csv"
        np.savetxt(point, np.array([0.5, 1.5]), delimiter=",")
        code, _, err = run_cli(
            capsys,
            "linearize",
            "--map",
            '{"kind": "quantize_floor", "step": 1.0}',
            "--point",
            str(point),
            "--type",
            "3",
        )
        assert code == 1
        assert "requirement" in err


class TestRecover:
    def _write_instance(self, tmp_path):
        A = gaussian_matrix(6, 12, 5)
        x = random_sparse_signal(12, 2, 6)
        apath, xpath = tmp_path / "A.csv", tmp_path / "x.csv"
        np.savetxt(apath, A, delimiter=",")
        np.savetxt(xpath, x, delimiter=",")
        return str(apath), str(xpath)

    def test_l0_exact(self, tmp_path, capsys):
        apath, xpath = self._write_instance(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "recover",
            "--matrix", apath,
            "--map", "sign",
            "--composition", "pre",
            "--signal", xpath,
            "--method", "l0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["solver_status"] == "converged"
        assert payload["rel_error"] <= 1e-8
        assert payload["support_exact"] is True
        assert payload["certificate_type"] == 3

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        apath, xpath = self._write_instance(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "recover",
            "--matrix", apath,
            "--map", "abs",
            "--composition", "pre",
            "--signal", xpath,
            "--method", "l1",
            "--max-iter", "1",
        )
        assert code == 2
        assert json.loads(out)["solver_status"] == "max_iter"

    @pytest.mark.parametrize("method", ["l1", "l0"])
    def test_zero_max_iter_rejected(self, tmp_path, capsys, method):
        apath, xpath = self._write_instance(tmp_path)
        code, out, err = run_cli(
            capsys,
            "recover",
            "--matrix", apath,
            "--map", "sign",
            "--composition", "pre",
            "--signal", xpath,
            "--method", method,
            "--max-iter", "0",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "max_iter" in err


class TestExperiment:
    def test_runs_and_emits(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        config = {
            "m": 8,
            "n": 16,
            "k": 2,
            "map": {"kind": "abs"},
            "composition": "pre",
            "trials": 3,
            "seed": 11,
            "method": "l1",
            "output_dir": str(out_dir),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 3
        assert (out_dir / "trials.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "signal_2.csv").exists()
        assert "runtime" in err

    def test_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"m": 4}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1

    @pytest.mark.parametrize("key, value", [("map", 5), ("m", None), ("trials", [2]),
                                            ("trials", 2.5), ("seed", "5"), ("k", True),
                                            ("n", 16.5)])
    def test_wrongly_typed_config(self, tmp_path, capsys, key, value):
        config = {
            "m": 8,
            "n": 16,
            "k": 2,
            "map": {"kind": "abs"},
            "composition": "pre",
            "trials": 2,
            "seed": 1,
            "method": "l1",
            "output_dir": str(tmp_path / "o"),
            key: value,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert err.startswith("error:") and repr(key) in err
        assert not (tmp_path / "o").exists()

    def test_mismatched_map_rejected(self, tmp_path, capsys):
        config = {
            "m": 8,
            "n": 16,
            "k": 2,
            "map": {"kind": "quantize_floor", "step": 1.0},
            "composition": "pre",
            "trials": 2,
            "seed": 1,
            "method": "l1",
            "output_dir": str(tmp_path / "o"),
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert code == 1
        assert "qualify" in err


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 7
    assert all(ln.startswith("[PASS]") for ln in lines)
