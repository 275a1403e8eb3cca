"""Batch verification runs and report serialization."""

import json

import pytest

from circulant4 import ConfigError, RunConfig, run_verify
from circulant4.reporting import report_json, report_to_csv


def base_config(**overrides):
    cfg = {
        "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
        "points": [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1]],
        "seeds": "random:3",
        "rng_seed": 1234,
        "derivative_mode": "analytic",
    }
    cfg.update(overrides)
    return cfg


class TestRunConfig:
    def test_valid(self):
        config = RunConfig(base_config())
        assert config.points.shape == (2, 4)
        assert config.seeds.shape == (3, 4)

    def test_grid_expansion(self):
        cfg = base_config()
        del cfg["points"]
        cfg["grid"] = {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 2, 1, 1]}
        config = RunConfig(cfg)
        assert config.points.shape == (4, 4)

    def test_missing_family(self):
        with pytest.raises(ConfigError, match="family"):
            RunConfig({"points": [[0, 0, 0, 0]], "seeds": [[1, 0, 0, 0]]})

    def test_inadmissible_family_names_inequality(self):
        cfg = base_config(family={"name": "constant", "params": [3, 2.5, 2]})
        with pytest.raises(ConfigError, match="B < C"):
            RunConfig(cfg)

    def test_random_seeds_require_rng_seed(self):
        cfg = base_config()
        del cfg["rng_seed"]
        with pytest.raises(ConfigError, match="rng_seed"):
            RunConfig(cfg)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigError, match="tolerance"):
            RunConfig(base_config(tolerances={"section_tol": -1}))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line"):
            RunConfig.from_file(str(path))


class TestRunVerify:
    def test_flat_family_passes_with_zero_residuals(self):
        cfg = base_config(family={"name": "constant", "params": [3, 1, 2]},
                          seeds=[[1.0, 0.0, 0.0, 0.0]])
        report = run_verify(RunConfig(cfg))
        assert report["summary"]["status"] == "pass"
        assert report["summary"]["max_equality_residual"] == 0.0
        assert report["summary"]["max_nabla_q_residual"] == 0.0

    def test_parallel_family_passes(self):
        report = run_verify(RunConfig(base_config()))
        assert report["summary"]["status"] == "pass"
        assert report["summary"]["criteria"]["section_equalities"] == "pass"

    def test_control_family_flagged(self):
        cfg = base_config(family={"name": "control", "params": [3.0, 0.1, 1.0, 2.0]})
        report = run_verify(RunConfig(cfg))
        assert report["summary"]["status"] == "fail"
        assert report["summary"]["criteria"]["nabla_q_zero"] == "fail"
        assert "not applicable" in report["summary"]["criteria"]["section_equalities"]

    def test_summary_maxima_recomputable(self):
        report = run_verify(RunConfig(base_config()))
        parsed = json.loads(report_json(report))
        records = parsed["records"]
        assert parsed["summary"]["max_equality_residual"] == max(
            r["equality_residual"] for r in records
        )
        assert parsed["summary"]["max_identity_residual"] == max(
            max(r["identity_residuals"].values()) for r in records
        )

    def test_byte_identical_reports(self):
        a = report_json(run_verify(RunConfig(base_config())))
        b = report_json(run_verify(RunConfig(base_config())))
        assert a == b

    def test_rng_seed_changes_records(self):
        a = report_json(run_verify(RunConfig(base_config())))
        b = report_json(run_verify(RunConfig(base_config(rng_seed=99))))
        assert a != b

    def test_report_written_to_path(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = base_config(output={"format": "json", "path": str(out)})
        report = run_verify(RunConfig(cfg))
        assert json.loads(out.read_text())["summary"] == json.loads(report_json(report))["summary"]

    def test_csv_flattening(self):
        report = run_verify(RunConfig(base_config()))
        lines = report_to_csv(report).strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + points x seeds
        assert lines[0].startswith("point_index,seed_index")


class TestSeedValidation:
    @pytest.mark.parametrize("seeds", ["random:0", "random:-3"])
    def test_empty_random_seed_count_rejected(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(base_config(seeds=seeds))

    def test_non_qbase_seed_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match=r"seeds\[1\]"):
            RunConfig(base_config(seeds=[[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]))


class TestOneGeometryPassPerPoint:
    def test_run_verify_evaluates_each_jet_once(self, monkeypatch):
        from circulant4 import curvature, fields, reporting

        calls = []
        original = fields.eval_jet

        def counting(spec, p):
            calls.append(tuple(p))
            return original(spec, p)

        for module in (fields, curvature, reporting):
            if hasattr(module, "eval_jet"):
                monkeypatch.setattr(module, "eval_jet", counting)
        config = RunConfig(base_config())
        run_verify(config)
        assert len(calls) == len(config.points) == len(set(calls))
