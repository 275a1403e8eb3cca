"""Command-line interface: subcommands, exit codes, output stability."""

import json

import pytest

from circulant4.cli import main


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
        "points": [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1]],
        "seeds": "random:2",
        "rng_seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestInspect:
    def test_basic(self, capsys):
        assert main(["inspect", "--coeffs", "3,1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["det_closed_form"] == pytest.approx(21.0)
        assert sorted(payload["eigenvalues"]) == pytest.approx([1, 1, 3, 7])
        assert payload["admissible"] is True

    def test_missing_coeffs_exits_2(self, capsys):
        assert main(["inspect"]) == 2
        assert "coeffs" in capsys.readouterr().err

    def test_malformed_coeffs_exits_2(self):
        assert main(["inspect", "--coeffs", "3,1"]) == 2


class TestQbase:
    def test_seed_report(self, capsys):
        assert main(["qbase", "--coeffs", "3,1,2", "--seed-vector", "1,0,0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"]["is_qbase"] is True
        assert payload["spectral_frame"]["max_deviation"] <= 1e-12
        assert payload["closed_form_frame"]["status"] in (
            "ok", "sqrt_domain_failure", "residual_exceeds_tolerance",
        )

    def test_inadmissible_coeffs_exit_1(self, capsys):
        assert main(["qbase", "--coeffs", "1,2,3", "--seed-vector", "1,0,0,0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert "not available" in payload["frames"]


class TestPyramid:
    def test_example(self, capsys):
        assert main(["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,0,0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cos_alpha"] == pytest.approx(1 / 3)
        assert payload["cos_delta"] == pytest.approx(3 / 4)

    def test_degenerate_seed_exits_2(self, capsys):
        assert main(["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,1,1,1"]) == 2


class TestCurvature:
    def test_point_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["curvature", "--config", cfg, "--point", "0,0,0,0",
                     "--seed-vector", "1,0.2,-0.3,0.4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 1
        entry = payload["points"][0]
        assert entry["nabla_q_residual"] <= 1e-9
        assert len(entry["sections"][0]["mu"]) == 6

    def test_fd_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["curvature", "--config", cfg, "--mode", "fd",
                     "--point", "0.1,0.2,0.3,0.4", "--seed-vector", "1,0,0,0"])
        assert code == 0
        entry = json.loads(capsys.readouterr().out)["points"][0]
        assert entry["nabla_q_residual"] <= 1e-6

    def test_missing_config_exits_2(self):
        assert main(["curvature"]) == 2


class TestVerify:
    def test_pass_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["status"] == "pass"

    def test_failing_run_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family={"name": "control", "params": [3.0, 0.1, 1.0, 2.0]})
        assert main(["verify", "--config", cfg]) == 1
        assert json.loads(capsys.readouterr().out)["summary"]["status"] == "fail"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family={"name": "constant", "params": [1, 2, 3]})
        assert main(["verify", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["verify", "--config", "/nonexistent/run.json"]) == 2

    def test_out_file_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("point_index,seed_index")
        assert len(lines) == 1 + 2 * 2


class TestSeedValidationExitCode:
    @pytest.mark.parametrize("seeds", ["random:0", [[1.0, 1.0, 1.0, 1.0]]])
    def test_bad_seeds_exit_2_before_any_work(self, tmp_path, capsys, seeds):
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, seeds=seeds)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "config error: seeds" in capsys.readouterr().err
        assert not out.exists()
