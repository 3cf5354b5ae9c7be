import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlcs
import nlcs.experiment
from nlcs import recovery
from nlcs.errors import RequirementError
from nlcs.matrix_core import gaussian_matrix, random_sparse_signal
from nlcs.nonlinear_maps import map_from_spec
from nlcs.recovery import LP_FEASIBILITY_TOL, recover_via_linearization
from nlcs.experiment import (
    ExperimentConfig,
    emit_reports,
    run_experiment,
)


def make_config(tmp_path, **overrides):
    base = dict(
        m=8,
        n=16,
        k=2,
        map_spec={"kind": "abs"},
        composition="pre",
        trials=5,
        seed=123,
        method="l1",
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_dict_roundtrip(self, tmp_path):
        d = {
            "m": 8,
            "n": 16,
            "k": 2,
            "map": {"kind": "sign"},
            "composition": "pre",
            "trials": 3,
            "seed": 7,
            "method": "l0",
            "output_dir": str(tmp_path),
        }
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.map_spec == {"kind": "sign"}
        assert cfg.method == "l0"

    @pytest.mark.parametrize("key", ["m", "n", "k", "trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, "5", True, False, None, float("inf")])
    def test_non_integer_sizes_rejected(self, tmp_path, key, value):
        d = {"m": 8, "n": 16, "k": 2, "map": {"kind": "abs"}, "composition": "pre",
             "trials": 3, "seed": 7, "method": "l1", "output_dir": str(tmp_path), key: value}
        with pytest.raises(ValueError, match=repr(key)):
            ExperimentConfig.from_dict(d)

    def test_integral_floats_accepted(self, tmp_path):
        d = {"m": 8.0, "n": 16.0, "k": 2.0, "map": {"kind": "abs"}, "composition": "pre",
             "trials": 3.0, "seed": 7.0, "method": "l1", "output_dir": str(tmp_path)}
        cfg = ExperimentConfig.from_dict(d)
        assert (cfg.m, cfg.n, cfg.k, cfg.trials, cfg.seed) == (8, 16, 2, 3, 7)
        assert all(type(v) is int for v in (cfg.m, cfg.n, cfg.k, cfg.trials, cfg.seed))

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentConfig.from_dict({"m": 4})

    def test_invalid_sizes(self, tmp_path):
        with pytest.raises(ValueError):
            make_config(tmp_path, k=20)
        with pytest.raises(ValueError):
            make_config(tmp_path, m=20)
        with pytest.raises(ValueError):
            make_config(tmp_path, trials=0)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "m": 6,
                    "n": 12,
                    "k": 2,
                    "map": {"kind": "identity"},
                    "composition": "pre",
                    "trials": 2,
                    "seed": 1,
                    "method": "l1",
                    "output_dir": str(tmp_path / "o"),
                }
            )
        )
        cfg = ExperimentConfig.from_json_file(path)
        assert cfg.n == 12


class TestRunExperiment:
    def test_baseline_small(self, tmp_path):
        cfg = make_config(tmp_path, map_spec={"kind": "identity"}, trials=5)
        result = run_experiment(cfg)
        assert len(result.records) == 5
        assert result.summary.trials == 5
        assert all(r.trial_index == i for i, r in enumerate(result.records))
        assert all(r.certificate_type == 3 for r in result.records)

    def test_abs_matches_baseline_per_trial(self, tmp_path):
        # the abs certificate differs from the identity by an invertible
        # diagonal factor, so every trial solves the same feasible set
        base = run_experiment(make_config(tmp_path, map_spec={"kind": "identity"}))
        flipped = run_experiment(make_config(tmp_path, map_spec={"kind": "abs"}))
        for rb, rf in zip(base.records, flipped.records):
            assert rf.rel_error == pytest.approx(rb.rel_error, abs=1e-6)

    def test_nonzero_random_certificate_type(self, tmp_path):
        cfg = make_config(tmp_path, map_spec={"kind": "nonzero_random", "seed": 9}, trials=3)
        result = run_experiment(cfg)
        assert all(r.certificate_type == 2 for r in result.records)

    def test_post_composition_square(self, tmp_path):
        cfg = make_config(
            tmp_path, map_spec={"kind": "square"}, composition="post", trials=4, method="l1"
        )
        result = run_experiment(cfg)
        assert all(r.certificate_type == 3 for r in result.records)
        assert result.summary.success_rate == 1.0

    def test_sine_post_stays_in_domain(self, tmp_path):
        cfg = make_config(
            tmp_path, map_spec={"kind": "sine"}, composition="post", trials=4, method="l1"
        )
        result = run_experiment(cfg)
        assert all(x_true.max() <= 3.0 for x_true, _ in result.signals)
        assert result.summary.success_rate == 1.0

    def test_sine_pre_stays_in_domain(self, tmp_path):
        # under "pre" the sine acts on A x, so A x is what must stay inside
        # (-pi, pi); rescaling x alone let a trial of this config leave it
        cfg = make_config(tmp_path, m=16, n=32, k=6, map_spec={"kind": "sine"},
                          composition="pre", trials=5, seed=29, method="l1")
        result = run_experiment(cfg)
        assert len(result.records) == 5

    def test_mismatch_rejected_before_trials(self, tmp_path):
        cfg = make_config(tmp_path, map_spec={"kind": "quantize_floor", "step": 1.0})
        with pytest.raises(ValueError, match="qualify"):
            run_experiment(cfg)
        cfg = make_config(
            tmp_path, map_spec={"kind": "nonzero_random", "seed": 3}, composition="post"
        )
        with pytest.raises(ValueError, match="qualify"):
            run_experiment(cfg)

    def test_gate_uses_the_pipeline_rule(self, tmp_path, monkeypatch):
        # sampled at m=64 this map looks invertible (no sample maps to all
        # zeros), but its nominal type 1 is what every trial would build
        calls = []
        monkeypatch.setattr(nlcs.experiment, "recover_via_linearization",
                            lambda *a, **k: calls.append(a))
        cfg = make_config(tmp_path, m=64, n=128, k=10, trials=2,
                          map_spec={"kind": "quantize_floor", "step": 0.5})
        with pytest.raises(RequirementError, match="qualify"):
            run_experiment(cfg)
        assert calls == []

    @pytest.mark.parametrize("spec", [{"kind": "abs"}, {"kind": "quantize_floor", "step": 0.5},
                                      {"kind": "nonzero_random", "seed": 3}, {"kind": "square"}])
    @pytest.mark.parametrize("composition", ["pre", "post"])
    def test_gate_agrees_with_pipeline(self, tmp_path, spec, composition):
        cfg = make_config(tmp_path, map_spec=spec, composition=composition, trials=1)
        try:
            run_experiment(cfg)
            gate_passed = True
        except RequirementError:
            gate_passed = False
        dim = cfg.m if composition == "pre" else cfg.n
        A = gaussian_matrix(cfg.m, cfg.n, 1)
        x = random_sparse_signal(cfg.n, cfg.k, 2)
        try:
            recover_via_linearization(A, map_from_spec(spec, dim), composition, x, "l1")
            pipeline_passed = True
        except RequirementError:
            pipeline_passed = False
        assert gate_passed == pipeline_passed

    def test_delta_recorded_at_small_scale(self, tmp_path):
        cfg = make_config(tmp_path, n=12, m=6, k=2, trials=2)
        result = run_experiment(cfg)
        assert all(r.delta_2k is not None for r in result.records)

    def test_k_equals_n_square_system(self, tmp_path):
        cfg = make_config(tmp_path, m=6, n=6, k=6, trials=1, map_spec={"kind": "abs"})
        result = run_experiment(cfg)
        assert result.records[0].rel_error <= 1e-6


class TestEmitReports:
    def test_file_shapes(self, tmp_path):
        cfg = make_config(tmp_path, trials=3)
        result = run_experiment(cfg)
        written = emit_reports(result.records, result.summary, cfg.output_dir, result.signals)
        trials = (tmp_path / "out" / "trials.csv").read_text().splitlines()
        assert len(trials) == 4  # header + 3 records
        assert trials[0] == "trial_index,rel_error,support_exact,solver_status,certificate_type,delta_2k"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert set(summary) == {"success_rate", "median_rel_error", "trials"}
        sig0 = (tmp_path / "out" / "signal_0.csv").read_text().splitlines()
        assert len(sig0) == cfg.n + 1
        assert sig0[0] == "index,true_value,recovered_value"
        assert len(written) == 2 + 3

    def test_empty_records_rejected(self, tmp_path):
        cfg = make_config(tmp_path, trials=1)
        result = run_experiment(cfg)
        with pytest.raises(ValueError):
            emit_reports([], result.summary, cfg.output_dir, result.signals)

    def test_byte_identical_rerun(self, tmp_path):
        cfg1 = make_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg2 = make_config(tmp_path, output_dir=str(tmp_path / "b"))
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        emit_reports(r1.records, r1.summary, cfg1.output_dir, r1.signals)
        emit_reports(r2.records, r2.summary, cfg2.output_dir, r2.signals)
        for name in ["trials.csv", "summary.json", "signal_0.csv", "signal_4.csv"]:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_signal_overlay_matches_per_line_writer(self, tmp_path):
        # the one-write overlay against the per-line _fmt writer, on signed
        # zeros, subnormals and values whose repr switches to exponent form
        special = [-0.0, 5e-324, -1.5e-310, 1e-05, 1e+16, 1e+22, 0.1 + 0.2]
        x_true = np.array(special + [0.0, -2.5, 1.0 / 3.0])
        x_hat = np.array(special[::-1] + [-0.0, 7.0, np.nextafter(1.0, 2.0)])
        result = run_experiment(make_config(tmp_path, trials=1))
        emit_reports(result.records, result.summary, str(tmp_path / "out"), [(x_true, x_hat)])
        want = "index,true_value,recovered_value\n" + "".join(
            f"{j},{nlcs.experiment._fmt(x_true[j])},{nlcs.experiment._fmt(x_hat[j])}\n"
            for j in range(len(x_true)))
        assert (tmp_path / "out" / "signal_0.csv").read_bytes() == want.encode("utf-8")

    def test_summary_json_keys(self, tmp_path):
        summary = run_experiment(make_config(tmp_path, trials=2)).summary
        assert summary.mean_runtime_s > 0.0
        keys = {"success_rate", "median_rel_error", "trials"}
        assert set(summary.to_dict()) == keys
        assert set(json.loads(summary.to_json())) == keys


def test_paired_seed_draws_are_map_independent(tmp_path):
    # identical config seeds must see identical (A, x) draws regardless of map
    cfg_a = make_config(tmp_path, map_spec={"kind": "identity"}, trials=3)
    cfg_b = make_config(tmp_path, map_spec={"kind": "sign"}, trials=3)
    ra = run_experiment(cfg_a)
    rb = run_experiment(cfg_b)
    for (xa, _), (xb, _) in zip(ra.signals, rb.signals):
        assert np.array_equal(xa, xb)


# at k = 10 every trial ends at a certified exit, whose refit hides the solver's
# own rounding; at k = 30 most trials are not certified and end on the iterate;
# at m = 80 > 64 the solver substitutes over the normal factor's diagonal blocks
@pytest.mark.parametrize("kind, composition, k, m, n",
                         [("sign", "pre", 10, 64, 128), ("square", "post", 10, 64, 128),
                          ("sign", "pre", 30, 64, 128), ("sign", "pre", 10, 80, 160)],
                         ids=["sign-pre", "square-post", "sign-pre-k30", "sign-pre-80x160"])
def test_outputs_identical_across_blas_thread_counts(tmp_path, kind, composition, k, m, n):
    src = str(Path(nlcs.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        cfg_path = tmp_path / f"config{threads}.json"
        cfg_path.write_text(json.dumps({
            "m": m, "n": n, "k": k, "map": {"kind": kind}, "composition": composition,
            "trials": 10, "seed": 0, "method": "l1", "output_dir": str(out_dir),
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "nlcs", "experiment", "--config", str(cfg_path)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert len(outputs[0]) == 12  # trials.csv, summary.json, 10 signal files
    assert outputs[0] == outputs[1]


def test_uncertified_desk_solves_converge(tmp_path, monkeypatch):
    # sign/pre at the desk scale with k = 30, past the l1 recovery threshold:
    # most solves are not certified and run to the solver's own stopping tests
    reports = []
    basis_pursuit = recovery.basis_pursuit

    def logged(B, y, **kwargs):
        rep = basis_pursuit(B, y, **kwargs)
        reports.append((rep, float(np.linalg.norm(y))))
        return rep

    monkeypatch.setattr(recovery, "basis_pursuit", logged)
    cfg = make_config(tmp_path, m=64, n=128, k=30, map_spec={"kind": "sign"}, trials=100, seed=0)
    run_experiment(cfg)
    assert len(reports) == 100
    statuses = [rep.solver_status for rep, _ in reports]
    assert statuses.count("max_iter") <= 2
    assert sum(not rep.certified for rep, _ in reports) >= 50
    for rep, ynorm in reports:
        if rep.solver_status == "converged":
            assert rep.residual <= LP_FEASIBILITY_TOL * (1.0 + ynorm)
