import json

import numpy as np
import pytest

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

    def test_mismatch_rejected_before_trials(self, tmp_path):
        cfg = make_config(tmp_path, map_spec={"kind": "quantize_floor", "step": 1.0})
        with pytest.raises(ValueError, match="qualify"):
            run_experiment(cfg)
        cfg = make_config(
            tmp_path, map_spec={"kind": "nonzero_random", "seed": 3}, composition="post"
        )
        with pytest.raises(ValueError, match="qualify"):
            run_experiment(cfg)

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
            emit_reports([], result.summary, cfg.output_dir)

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

    def test_summary_json_keys(self, tmp_path):
        summary = run_experiment(make_config(tmp_path, trials=2)).summary
        assert summary.mean_runtime_s > 0.0
        keys = {"success_rate", "median_rel_error", "trials"}
        assert set(summary.to_dict()) == keys
        assert set(json.loads(summary.to_json())) == keys

    def test_signals_optional(self, tmp_path):
        cfg = make_config(tmp_path, trials=2)
        result = run_experiment(cfg)
        written = emit_reports(result.records, result.summary, cfg.output_dir)
        assert len(written) == 2


def test_paired_seed_draws_are_map_independent(tmp_path):
    # identical config seeds must see identical (A, x) draws regardless of map
    cfg_a = make_config(tmp_path, map_spec={"kind": "identity"}, trials=3)
    cfg_b = make_config(tmp_path, map_spec={"kind": "sign"}, trials=3)
    ra = run_experiment(cfg_a)
    rb = run_experiment(cfg_b)
    for (xa, _), (xb, _) in zip(ra.signals, rb.signals):
        assert np.array_equal(xa, xb)
