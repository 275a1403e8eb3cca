"""Command-line interface: subcommands, exit codes, output stability."""

import json
import os
import pathlib
import subprocess
import sys
import warnings
from unittest import mock

import pytest

from circulant4 import RunConfig, cli
from circulant4.cli import main
from test_contract import FD_STEP_LOST, GRID_SPAN, PHASE_OVERFLOW, strict_json


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


def run_in_subprocess(*argv, **env):
    """The CLI in a subprocess, so a numpy RuntimeWarning would reach stderr as it does for a user; ``env`` adds
    to its environment."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "circulant4.cli", *argv], capture_output=True, text=True,
                          env=env, check=False)


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

    @pytest.mark.parametrize("coeffs,quantity", [
        ("1e308,1e308,1e307", "eigenvalues"), ("1e200,1,0", "det_closed_form"),
    ])
    def test_overflow_exits_2_naming_the_quantity(self, tmp_path, capsys, coeffs, quantity):
        out, given = tmp_path / "inspect.json", [float(v) for v in coeffs.split(",")]
        for argv in (["inspect", "--coeffs", coeffs], ["inspect", "--coeffs", coeffs, "--out", str(out)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: --coeffs {given}: a float overflows in {quantity}\n"
            assert captured.out == ""
        assert not out.exists()


class TestQbase:
    def test_seed_report(self, capsys):
        assert main(["qbase", "--coeffs", "3,1,2", "--seed-vector", "1,0,0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"]["is_qbase"] is True
        assert payload["spectral_frame"]["max_deviation"] <= 1e-12
        assert payload["closed_form_frame"]["status"] in (
            "ok", "sqrt_domain_failure", "residual_exceeds_tolerance",
        )

    def test_spectral_frame_without_a_seed(self, capsys):
        assert main(["qbase", "--coeffs", "3,1,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "seed" not in payload
        assert len(payload["spectral_frame"]["seed"]) == 4
        assert payload["spectral_frame"]["max_deviation"] <= 1e-12

    @pytest.mark.parametrize("command", ["qbase", "pyramid"])
    def test_overflowing_seed_exits_2_naming_it(self, capsys, command):
        assert main([command, "--coeffs", "3,1,2", "--seed-vector", "1e200,1,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: --seed-vector = [1e+200, 1.0, 0.0, 0.0]: "
                                "its independence polynomial overflows a float\n")
        assert captured.out == ""

    @pytest.mark.parametrize("seed", ["1e-310,0,0,0", "5e-324,0,0,0"])
    def test_subnormal_seed_reports_a_zero_determinant(self, capsys, seed):
        # Its orbit determinant underflows, where numpy's det wrote a divide-by-zero warning to stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["qbase", "--coeffs", "3,1,2", "--seed-vector", seed]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)["seed"]
        assert (report["orbit_determinant"], report["is_qbase"]) == (0.0, False)

    def test_inadmissible_coeffs_exit_1(self, capsys):
        assert main(["qbase", "--coeffs", "1,2,3", "--seed-vector", "1,0,0,0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert "not available" in payload["frames"]

    @pytest.mark.parametrize("coeffs,construction,operation", [
        ("1.7e308,1e307,5e307", "spectral seed", "add"),  # A + C
    ])
    def test_overflowing_frame_prints_only_the_error(self, coeffs, construction, operation):
        # Admissible and finite, so the frames are not "not available": a float overflow is an error.
        result = run_in_subprocess("qbase", "--coeffs", coeffs)
        assert result.returncode == 2
        given = tuple(float(v) for v in coeffs.split(","))
        assert result.stderr == (f"error: coefficients {given}: float arithmetic fails in the {construction} "
                                 f"(overflow encountered in scalar {operation})\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("coeffs,numpy_error", [
        ("1e308,1e307,5e307", "overflow encountered in scalar add"),  # A + B + 2C
        ("1e200,1e199,5e199", "overflow encountered in scalar power"),  # B^2
        ("4e-300,1e-300,2e-300", "invalid value encountered in scalar divide"),  # x^1 x^3 is 0 / 0
    ], ids=["overflow-add", "overflow-power", "underflow-divide"])
    def test_failing_closed_form_leaves_the_spectral_frame(self, capsys, coeffs, numpy_error):
        # The spectral seed is finite here, so only the closed-form audit is not available.
        assert main(["qbase", "--coeffs", coeffs]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["spectral_frame"]["max_deviation"] <= 1e-12
        given = tuple(float(v) for v in coeffs.split(","))
        assert payload["closed_form_frame"] == (f"not available: coefficients {given}: float arithmetic fails in "
                                                f"the closed-form frame ({numpy_error})")

    @pytest.mark.parametrize("coeffs,status", [("3,1,2", "sqrt_domain_failure"),
                                               ("5,1,2", "residual_exceeds_tolerance")])
    def test_closed_form_audit_is_strict_json(self, capsys, coeffs, status):
        # RFC 8259 has no NaN: the radicals that a sqrt_domain_failure leaves undefined are null, as its candidate is.
        assert main(["qbase", "--coeffs", coeffs, "--seed-vector", "1,0.2,-0.3,0.4"]) == 0
        audit = strict_json(capsys.readouterr().out)["closed_form_frame"]
        assert audit["status"] == status
        radicals = [audit[key] for key in ("x2", "sum_x1_x3", "prod_x1_x3", "discriminant")]
        if status == "sqrt_domain_failure":
            assert radicals + [audit["candidate"], audit["max_deviation"]] == [None] * 6
        else:
            assert all(type(value) is float for value in radicals)


class TestPyramid:
    def test_example(self, capsys):
        assert main(["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,0,0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cos_alpha"] == pytest.approx(1 / 3)
        assert payload["cos_delta"] == pytest.approx(3 / 4)

    def test_degenerate_seed_exits_2(self, capsys):
        assert main(["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,1,1,1"]) == 2

    @pytest.mark.parametrize("coeffs,eigenvalues", [
        ("3,2,1", "[8.0, 0.0, 2.0, 2.0]"), ("1,3,2", "[9.0, -3.0, -1.0, -1.0]"),
    ])
    def test_metric_not_positive_definite_exits_2(self, capsys, coeffs, eigenvalues):
        assert main(["pyramid", "--coeffs", coeffs, "--seed-vector", "1,0.5,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: metric is not positive definite: eigenvalues {eigenvalues}\n"
        assert captured.out == ""

    def test_overflowing_squared_length_prints_only_the_error(self):
        result = run_in_subprocess("pyramid", "--coeffs", "1e308,1e300,1e301", "--seed-vector", "1e10,1,0,0")
        assert result.returncode == 2
        assert result.stderr == ("error: seed [10000000000.0, 1.0, 0.0, 0.0] has squared length nan under g, "
                                 "not a positive finite float\n")
        assert result.stdout == ""

    @pytest.mark.parametrize("coeffs,seed,edges", [
        ("1e308,1e307,5e307", "1,0,0,0", "inf and inf"),
        ("1.5670105710131144e+307,5.761661809093871e+306,1.18768610648311e+307",
         "-0.023444959997027354,0.0010149361764430554,1.7329290983880103,-1.5997137662805831",
         "inf and 4.284228737217388e+307"),
    ], ids=["both", "long"])
    def test_overflowing_squared_edge_exits_2_naming_the_edges(self, capsys, coeffs, seed, edges):
        # g(x, x) is finite, but 2 g(x, x) (1 - cos) overflows: the report held Infinity, and the run exited 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pyramid", "--coeffs", coeffs, "--seed-vector", seed]) == 2
        captured = capsys.readouterr()
        vector = [float(v) for v in seed.split(",")]
        assert captured.err == f"error: seed {vector} has squared edges {edges} under g (need both finite floats)\n"
        assert captured.out == ""

    def test_finite_squared_edges_whose_sum_overflows_exit_0(self, capsys):
        argv = ["pyramid", "--coeffs", "1.6853373139334212e+307,5.617791046444737e+306,1.1235582092889474e+307",
                "--seed-vector", "2,1,0,-1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert (payload["edge_sq_long"], payload["edge_sq_short"]) == (1.1235582092889474e+308, 8.98846567431158e+307)

    def test_near_singular_metric_exits_2_with_the_degenerate_apex(self, capsys):
        argv = ["pyramid", "--coeffs", "1.000000001,0.9999999995,1", "--seed-vector", "1.002,0.999,1,0.999"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: degenerate apex: qx is parallel to x (cos alpha = 1)\n"
        assert captured.out == ""

    def test_nearly_fixed_q_squared_exits_2_with_the_degenerate_base(self, capsys):
        # At these coefficients cos beta is 1.0, and the base angle divided by zero with a traceback (exit 1).
        argv = ["pyramid", "--coeffs", "3,1,2.9999999999999", "--seed-vector", "2.01,0,1.99,0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: degenerate base: q^2 x is parallel to x (cos beta = 1)\n"
        assert captured.out == ""


class TestStrictJson:
    @pytest.mark.parametrize("argv", [["inspect", "--coeffs", "3,1,2"],
                                      ["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,0,0,0"]],
                             ids=["inspect", "pyramid"])
    def test_output_is_strict_json(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        strict_json(captured.out)


class TestErrorLines:
    @pytest.mark.parametrize("argv,err", [
        (["inspect", "--coeffs", "3,x,2"], "config error: --coeffs: could not convert string to float: 'x'\n"),
        (["pyramid", "--coeffs", "3,1,2"], "config error: --seed-vector v1,v2,v3,v4 is required\n"),
        (["verify"], "config error: --config PATH is required\n"),
        (["qbase", "--coeffs", "1.7e308,1e307,5e307"],
         "error: coefficients (1.7e+308, 1e+307, 5e+307): float arithmetic fails in the spectral seed "
         "(overflow encountered in scalar add)\n"),
    ], ids=["non-numeric-coeffs", "pyramid-without-seed", "verify-without-config", "qbase-frame-overflow"])
    def test_exits_2_with_one_error_line(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""


class TestCurvature:
    def test_point_override(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path), tmp_path / "curvature.json"
        code = main(["curvature", "--config", cfg, "--point", "0,0,0,0",
                     "--seed-vector", "1,0.2,-0.3,0.4", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        payload = json.loads(out.read_text())
        assert len(payload["points"]) == 1
        entry = payload["points"][0]
        assert entry["nabla_q_residual"] <= 1e-9
        assert len(entry["sections"][0]["mu"]) == 6

    def test_negative_first_point_after_a_space(self, tmp_path, capsys):
        argv = ["curvature", "--config", write_config(tmp_path), "--point", "-0.1,0,0,0",
                "--seed-vector", "1,0.2,-0.3,0.4"]
        assert main(argv) == 0
        assert [p["point"] for p in json.loads(capsys.readouterr().out)["points"]] == [[-0.1, 0.0, 0.0, 0.0]]

    def test_fd_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["curvature", "--config", cfg, "--mode", "fd",
                     "--point", "0.1,0.2,0.3,0.4", "--seed-vector", "1,0,0,0"])
        assert code == 0
        entry = json.loads(capsys.readouterr().out)["points"][0]
        assert entry["nabla_q_residual"] <= 1e-6

    def test_missing_config_exits_2(self):
        assert main(["curvature"]) == 2


NEAR_LIMIT = {"family": {"name": "constant", "params": [1e308, 1e307, 5e307]}, "points": [[0, 0, 0, 0]],
              "seeds": [[3e-78, 6e-79, -9e-79, 1.2e-78]]}


class TestVerify:
    def test_pass_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["verify", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["status"] == "pass"

    def test_failing_run_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family={"name": "control", "params": [3.0, 0.1, 1.0, 2.0]})
        assert main(["verify", "--config", cfg]) == 1
        assert json.loads(capsys.readouterr().out)["summary"]["status"] == "fail"

    def test_records_hold_the_documented_fields(self, tmp_path, capsys):
        assert main(["verify", "--config", write_config(tmp_path)]) == 0
        fields = ["coeffs", "equality_residual", "frame_residual", "identity_residuals", "mu", "nabla_q_residual",
                  "parallel_residual", "point", "point_index", "seed", "seed_index", "symmetry_residuals",
                  "zero_residual"]
        assert [sorted(record) for record in json.loads(capsys.readouterr().out)["records"]] == [fields] * 4

    def test_unscaled_frame_residual_fails_spectral_frame(self, tmp_path, capsys):
        # Its Gram residual, 1.6e-11, misses frame_tol 1e-12: the residual is dimensionless, so it is not scaled
        # by 1 + A.
        cfg = write_config(tmp_path, family={"name": "constant", "params": [16, 4.8, 15.999984]},
                           points=[[0, 0, 0, 0]], seeds=[[1, 0.2, -0.3, 0.4]])
        assert main(["verify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["summary"]["criteria"]["spectral_frame"] == "fail"

    def test_near_the_float_limit_passes(self, tmp_path, capsys):
        # A + 2B + C = 1.7e308: 4 (A + 2B + C) overflows, but nothing the analytic run computes does.
        cfg = write_config(tmp_path, **NEAR_LIMIT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["summary"]["status"] == "pass"

    def test_near_the_float_limit_is_refused_in_fd_mode(self, tmp_path, capsys):
        # The finite-difference stencil forms 2 A = 2e308.
        assert main(["curvature", "--config", write_config(tmp_path, **NEAR_LIMIT), "--mode", "fd"]) == 2
        assert capsys.readouterr() == ("", "config error: family: constant: A reaches 1e+308, so the "
                                           "finite-difference stencil's 2 A overflows a float\n")

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

    @pytest.mark.parametrize("level,err", [("info", "INFO circulant4: verification status: pass\n"), (None, "")])
    def test_status_line_only_with_cml_log(self, tmp_path, monkeypatch, level, err):
        if level is None:
            monkeypatch.delenv("CML_LOG", raising=False)
        else:
            monkeypatch.setenv("CML_LOG", level)
        result = run_in_subprocess("verify", "--config", write_config(tmp_path))
        assert result.returncode == 0
        assert result.stderr == err
        assert json.loads(result.stdout)["summary"]["status"] == "pass"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_reports_are_byte_identical_across_interpreter_processes(self, tmp_path, fmt):
        # The seeds_heavy benchmark config: str hashing, and so set and dict-of-str order, differs per hash seed.
        cfg = tmp_path / "seeds_heavy.json"
        cfg.write_text(json.dumps({"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
                                   "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [2] * 4},
                                   "seeds": "random:64", "rng_seed": 101}))
        results = [run_in_subprocess("verify", "--config", str(cfg), "--format", fmt, PYTHONHASHSEED=hash_seed)
                   for hash_seed in ("0", "1", "12345")]
        assert [(r.returncode, r.stderr) for r in results] == [(0, "")] * 3
        assert results[0].stdout.count("\n") > 1024 and results[0].stdout == results[1].stdout == results[2].stdout

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

    def test_overflowing_seed_exits_2_naming_it(self, tmp_path, capsys):
        # Not a q-base (x1 - x2 + x3 - x4 = 0), yet its polynomial is inf * 0 = NaN, which is not 0.
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, seeds=[[1.0, 0.0, 0.0, 0.0], [1e200, 0, -1e200, 0]])
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: seeds[1] = [1e+200, 0.0, -1e+200, 0.0]: "
                                "its independence polynomial overflows a float\n")
        assert captured.out == ""
        assert not out.exists()

    def test_underflowing_gram_determinant_exits_2_naming_the_seed(self, tmp_path, capsys):
        # 1e-80 e1 passes the q-base rule (ratio 1), but on a metric of scale 1e-3 its q-section Gram determinants
        # underflow to 0: unrefused, the run divided 0 by 0, printed a numpy warning and exited 1.
        cfg = write_config(tmp_path, family={"name": "constant", "params": [3e-3, 1e-3, 2e-3]},
                           points=[[0.0, 0.0, 0.0, 0.0]], seeds=[[1e-80, 0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: seeds[0] = [1e-80, 0.0, 0.0, 0.0]: a q-section Gram determinant is 0.0 "
                                "(need a positive finite float)\n")
        assert captured.out == ""


# s_wave at one point with a seed whose q-orbit is nearly degenerate: P(x) = -4.0e-30 against (x.x)^2 = 16.  Unrefused,
# its run divided by zero in the q-section curvatures, wrote Infinity into the report and exited 1.
NEARLY_DEGENERATE = {"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
                     "points": [[0.3, -0.2, 0.5, 0.1]], "seeds": [[1, 1, 1, 1.0000000001]]}


class TestNearlyDegenerateSeedExitCode:
    def test_verify_exits_2_with_one_line_naming_the_seed(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(NEARLY_DEGENERATE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: seeds[0] = [1.0, 1.0, 1.0, 1.0000000001] is nearly degenerate: ")
        assert captured.err.endswith(" (need |P(x)| >= 1e-12 (x.x)^2 = 1.60000000016e-11)\n")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_curvature_seed_vector_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curvature", "--config", cfg, "--seed-vector", "1,1,1,1.0000000001"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: seeds[0] = [1.0, 1.0, 1.0, 1.0000000001] is nearly degenerate: ")
        assert captured.out == ""

    def test_qbase_reports_no_qbase(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["qbase", "--coeffs", "3,1,2", "--seed-vector", "1,1,1,1.0000000001"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"]["is_qbase"] is False

    def test_pyramid_exits_2_naming_the_reason(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,1,1,1.0000000001"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: seed vector is nearly degenerate: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestParseTimeValidationExitCode:
    @pytest.mark.parametrize("overrides,field", [
        ({"points": [[0.0, 0.0, 0.0, 0.0], [float("nan"), 0.0, 0.0, 0.0]]}, "points[1]"),
        ({"tolerances": {"section_tol": True}}, "tolerances.section_tol"),
        ({"tolerances": {"sectoin_tol": 1e-9}}, "tolerances.sectoin_tol"),
        ({"tolernces": {"section_tol": 1e-9}}, "tolernces"),
    ])
    def test_bad_config_exits_2_before_any_work(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not out.exists()

    def test_overflowing_amplitude_prints_one_line(self, tmp_path):
        # |eps| |direction| sum 1/d overflows to inf, so the chart's ranges of A and C are unbounded.
        cfg = write_config(tmp_path, family={"name": "s_wave", "params": [2.0, 1e308, 3.0, 1.0]})
        result = run_in_subprocess("verify", "--config", cfg)
        assert result.returncode == 2
        assert result.stderr == "config error: family: s_wave: C = inf, A = -inf (need C < A)\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("params", [[1.7e308, 1e307, 5e307], [1e200, 1e199, 5e199]])
    def test_near_float_limit_family_prints_one_line(self, tmp_path, params):
        # Admissible and finite, but its q-section denominators overflow: refused before any point is evaluated.
        cfg = write_config(tmp_path, family={"name": "constant", "params": params}, points=[[0, 0, 0, 0]],
                           seeds=[[1, 0.2, -0.3, 0.4]])
        result = run_in_subprocess("verify", "--config", cfg)
        assert result.returncode == 2
        assert result.stderr.startswith(f"config error: family.params = {params}: A + 2B + C reaches ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["verify", "curvature"])
    @pytest.mark.parametrize("name", [["s_wave"], {}], ids=["list", "dict"])
    def test_non_string_family_name_prints_one_line(self, tmp_path, capsys, command, name):
        # An unhashable name was looked up in the family table: a TypeError traceback and exit 1.
        cfg = write_config(tmp_path, family={"name": name, "params": [2.0, 0.1, 3.0, 1.0]})
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"config error: family: unknown family {name!r}; "
                                "use make_custom_family for custom fields\n")
        assert captured.out == ""

    def test_non_finite_grid_exits_2(self, tmp_path, capsys):
        grid = {"min": [float("-inf"), 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 1, 1, 1]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
            "grid": grid, "seeds": "random:1", "rng_seed": 7,
        }))
        assert main(["verify", "--config", str(path)]) == 2
        assert "grid.min" in capsys.readouterr().err


# The two configs of test_contract whose points no run can evaluate, three variants, and the line each prints.
_UNEVALUABLE = {
    "grid-span": (GRID_SPAN, "grid axis 0 spans min -1e+308 to max 1e+308, and max - min overflows a float "
                  "(need it finite)"),
    "grid-span-one-point": ({**GRID_SPAN, "grid": {**GRID_SPAN["grid"], "count": [1, 1, 1, 1]}},
                            "grid axis 0 spans min -1e+308 to max 1e+308, and max - min overflows a float "
                            "(need it finite)"),
    "phase-analytic": (PHASE_OVERFLOW, "points[0] = [1e+308, 0.0, -1e+308, 0.0]: a wave phase of s_wave "
                       "overflows a float"),
    "phase-fd": ({**PHASE_OVERFLOW, "derivative_mode": "fd"}, "points[0] = [1e+308, 0.0, -1e+308, 0.0]: a wave "
                 "phase of s_wave overflows a float"),
    "phase-sum": ({**PHASE_OVERFLOW, "points": [[1e308, 1e308, 0, 0]]}, "points[0] = [1e+308, 1e+308, 0.0, 0.0]: "
                  "a wave phase of s_wave overflows a float"),
}


class TestUnevaluablePointExitCode:
    @pytest.mark.parametrize("command", ["verify", "curvature"])
    @pytest.mark.parametrize("case", sorted(_UNEVALUABLE))
    def test_exits_2_with_one_line_and_keeps_the_out_file(self, tmp_path, capsys, command, case):
        config, reason = _UNEVALUABLE[case]
        out = tmp_path / "report.json"
        out.write_bytes(b'{"earlier": "report"}\r\n')
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {reason}\n")
        assert out.read_bytes() == b'{"earlier": "report"}\r\n'

    def test_curvature_point_flag_is_evaluated_in_both_modes(self, tmp_path, capsys):
        # x1 +- FD_STEP rounds to x1 = 1e13, but the finite-difference stencil shifts the wave's phase, not x1.
        cfg = write_config(tmp_path, family={"name": "control", "params": [4.0, 0.5, 1.0, 2.0]})
        residuals = []
        for mode in ("fd", "analytic"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["curvature", "--config", cfg, "--mode", mode, "--point", "1e13,0.2,0.1,0.4"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            residuals.append(json.loads(captured.out)["points"][0]["nabla_q_residual"])
        assert residuals[0] == pytest.approx(residuals[1], rel=1e-6) and residuals[1] > 1e-3


class TestFiniteDifferencesFarFromTheOrigin:
    """In fd mode a coordinate far from the origin costs the finite differences no digits: the stencil shifts each
    wave's phase, not the chart point."""

    @staticmethod
    def verify(tmp_path, capsys, config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, json.loads(captured.out)["summary"]

    @pytest.mark.parametrize("x1", [1e4, 1e6, 1e9, 2.0**43])
    def test_s_wave_passes_every_criterion(self, tmp_path, capsys, x1):
        code, summary = self.verify(tmp_path, capsys, {**FD_STEP_LOST, "points": [[x1, 0.2, 0.1, 0.4]],
                                                       "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]}})
        assert code == 0 and summary["status"] == "pass"
        assert set(summary["criteria"].values()) == {"pass"}

    @pytest.mark.parametrize("x1", [1e4, 1e6, 1e9, 2.0**43, 1e13])
    def test_control_fails_nabla_q_zero(self, tmp_path, capsys, x1):
        # At x1 = 1e13, FD_STEP_LOST's own point, x1 +- FD_STEP rounds to x1.
        code, summary = self.verify(tmp_path, capsys, {**FD_STEP_LOST, "points": [[x1, 0.2, 0.1, 0.4]]})
        assert code == 1 and summary["criteria"]["nabla_q_zero"] == "fail"


class TestSectionValidationExitCode:
    @pytest.mark.parametrize("overrides,field", [
        ({"grid": {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 1, 1, 1]}}, "'grid'"),
        ({"output": {"fromat": "csv"}}, "output.fromat"),
        ({"output": "csv"}, "'output'"),
        ({"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0], "parms": []}}, "family.parms"),
    ])
    def test_bad_section_exits_2(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and field in captured.err
        assert captured.out == ""


class TestCurvatureOverrideValidation:
    @pytest.mark.parametrize("flag,value", [
        ("--seed-vector", "1,1,1,1"),
        ("--seed-vector", "1,inf,0,0"),
        ("--point", "nan,0,0,0"),
        ("--point", "0,0,-inf,0"),
    ])
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, flag, value):
        # A finite seed that is not a q-base is checked as the config field it replaces.
        field = "seeds[0]" if (flag, value) == ("--seed-vector", "1,1,1,1") else flag
        cfg = write_config(tmp_path)
        assert main(["curvature", "--config", cfg, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field} = ")
        assert captured.out == ""

    def test_overflowing_seed_vector_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["curvature", "--config", cfg, "--seed-vector", "1e200,0,-1e200,0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: seeds[0] = [1e+200, 0.0, -1e+200, 0.0]: "
                                "its independence polynomial overflows a float\n")
        assert captured.out == ""


_CURVATURE_FLAGS = {
    "none": [], "mode": ["--mode", "fd"], "point": ["--point", "0,0,0,0"],
    "seed-vector": ["--seed-vector", "1,0.2,-0.3,0.4"],
    "all": ["--mode", "fd", "--point", "0,0,0,0", "--seed-vector", "1,0.2,-0.3,0.4"],
}


class TestCurvatureSingleParse:
    """The curvature flags edit the config before its one parse; the fields they replace are not read."""

    @pytest.mark.parametrize("flags", list(_CURVATURE_FLAGS))
    def test_one_run_config_per_call(self, tmp_path, capsys, monkeypatch, flags):
        built = []
        init = RunConfig.__init__

        def counting_init(self, raw):
            built.append(raw)
            init(self, raw)
        monkeypatch.setattr(RunConfig, "__init__", counting_init)
        assert main(["curvature", "--config", write_config(tmp_path), *_CURVATURE_FLAGS[flags]]) == 0
        assert len(built) == 1
        points = json.loads(capsys.readouterr().out)["points"]
        assert len(points) == (1 if "--point" in _CURVATURE_FLAGS[flags] else 2)

    def test_seed_vector_draws_no_random_seeds(self, tmp_path, capsys, monkeypatch):
        from circulant4 import reporting

        def sample(rng, n):
            raise AssertionError("a seed was drawn")
        monkeypatch.setattr(reporting, "random_qbase_seeds", sample)
        cfg = write_config(tmp_path, seeds="random:1000")
        assert main(["curvature", "--config", cfg, "--seed-vector", "1,0.2,-0.3,0.4"]) == 0
        sections = [p["sections"] for p in json.loads(capsys.readouterr().out)["points"]]
        assert [[s["seed"] for s in point] for point in sections] == [[[1.0, 0.2, -0.3, 0.4]]] * 2

    def test_point_replaces_a_grid_over_the_cap(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
            "grid": {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [1001, 1000, 1, 1]},
            "seeds": "random:1", "rng_seed": 7,
        }))
        assert main(["curvature", "--config", str(path), "--point", "0.1,0.2,0.3,0.4"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["point"] for p in points] == [[0.1, 0.2, 0.3, 0.4]]
        assert main(["curvature", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "grid.count" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", list(_CURVATURE_FLAGS))
    def test_unknown_key_is_still_rejected(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, tolernces={"section_tol": 1e-9})
        assert main(["curvature", "--config", cfg, *_CURVATURE_FLAGS[flags]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: unknown config key 'tolernces'")
        assert captured.out == ""

    @pytest.mark.parametrize("flags", list(_CURVATURE_FLAGS))
    @pytest.mark.parametrize("root", ["[1, 2]", '"run"', "null"])
    def test_non_object_root_exits_2(self, tmp_path, capsys, flags, root):
        path = tmp_path / "run.json"
        path.write_text(root)
        assert main(["curvature", "--config", str(path), *_CURVATURE_FLAGS[flags]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: config root must be a JSON object\n"
        assert captured.out == ""


# Each command's flags that take comma-separated numbers, with a valid value for each.
_NUMBER_FLAGS = {
    "inspect": {"--coeffs": "3,1,2"},
    "qbase": {"--coeffs": "3,1,2", "--seed-vector": "1,0,0,0"},
    "pyramid": {"--coeffs": "3,1,2", "--seed-vector": "1,0,0,0"},
    "curvature": {"--point": "0,0,0,0", "--seed-vector": "1,0.2,-0.3,0.4"},
}
_NON_FINITE = [(command, flag, bad) for command, flags in _NUMBER_FLAGS.items() for flag in flags
               for bad in ("nan", "inf", "-inf")]


# A value for each number flag whose first number is negative.
_NEGATIVE = {"--coeffs": "-3,1,2", "--point": "-0.1,0,0,0", "--seed-vector": "-1,0.2,-0.3,0.4"}
_NUMBER_FLAG_CASES = [(command, flag) for command, flags in _NUMBER_FLAGS.items() for flag in flags]


class TestNegativeFirstValue:
    @pytest.mark.parametrize("command,flag", _NUMBER_FLAG_CASES, ids=[f"{c}{f}" for c, f in _NUMBER_FLAG_CASES])
    def test_space_separated_value_reads_as_the_equals_form(self, tmp_path, capsys, command, flag):
        head = [command] + (["--config", write_config(tmp_path)] if command == "curvature" else [])
        rest = [f"{name}={value}" for name, value in _NUMBER_FLAGS[command].items() if name != flag]
        results = []
        for given in ([flag, _NEGATIVE[flag]], [f"{flag}={_NEGATIVE[flag]}"]):
            code = main(head + given + rest)
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert str(float(_NEGATIVE[flag].split(",")[0])) in out + err  # the value was read


class TestNonFiniteFlagValue:
    @pytest.mark.parametrize("command,flag,bad", _NON_FINITE, ids=[f"{c}{f}={b}" for c, f, b in _NON_FINITE])
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, command, flag, bad):
        argv = [command] + (["--config", write_config(tmp_path)] if command == "curvature" else [])
        for name, value in _NUMBER_FLAGS[command].items():  # TestNegativeFirstValue covers "--flag value"
            argv.append(f"{name}={value if name != flag else bad + value[value.index(','):]}")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {flag} = ") and captured.err.endswith(" is not finite\n")
        assert captured.err.count("\n") == 1 and captured.out == ""


# The flags each subcommand's handler reads (16); the other 19 pairs must be refused.
_READS = {
    "inspect": ("--coeffs", "--out"),
    "qbase": ("--coeffs", "--seed-vector", "--out"),
    "pyramid": ("--coeffs", "--seed-vector", "--out"),
    "curvature": ("--config", "--point", "--seed-vector", "--mode", "--out"),
    "verify": ("--config", "--format", "--out"),
}
_ALL_FLAGS = ("--config", "--coeffs", "--point", "--seed-vector", "--mode", "--format", "--out")
_UNREAD = [(command, flag) for command, reads in _READS.items() for flag in _ALL_FLAGS if flag not in reads]


class TestUnreadFlagsRejected:
    @pytest.mark.parametrize("command,flag", _UNREAD, ids=[f"{c}{f}" for c, f in _UNREAD])
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag):
        values = {
            "--config": write_config(tmp_path), "--coeffs": "3,1,2", "--point": "0,0,0,0",
            "--seed-vector": "1,0,0,0", "--mode": "fd", "--format": "csv", "--out": str(tmp_path / "out"),
        }
        argv = [command]
        for read in _READS[command]:
            if read != "--out":
                argv += [read, values[read]]
        with pytest.raises(SystemExit) as info:
            main(argv + [flag, values[flag]])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", sorted(_READS))
    def test_help_lists_exactly_the_read_flags(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        assert [flag for flag in _ALL_FLAGS if flag in usage] == [f for f in _ALL_FLAGS if f in _READS[command]]


class TestInputValidationExitCode:
    @pytest.mark.parametrize("overrides,field", [
        ({"rng_seed": 1.5}, "rng_seed"),
        ({"rng_seed": True}, "rng_seed"),
        ({"rng_seed": -3}, "rng_seed"),
        ({"points": [[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]}, "'points'"),
        ({"points": [["0", 0.0, 0.0, 0.0]]}, "'points'"),
        ({"seeds": [[1.0, 0.0, 0.0, 0.0], [1.0, 0.0]]}, "'seeds'"),
        ({"seeds": [[1.0, 0.0, None, 0.0]]}, "'seeds'"),
        ({"derivative_mode": "symbolic"}, "config error: derivative_mode"),
    ])
    def test_bad_input_exits_2_before_any_work(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and field in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_curvature_mode_override_changes_the_derivatives(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        residuals = {}
        for mode in ("analytic", "fd"):
            assert main(["curvature", "--config", cfg, "--mode", mode, "--point", "0.1,0.2,0.3,0.4"]) == 0
            residuals[mode] = json.loads(capsys.readouterr().out)["points"][0]["symmetry_residuals"]
        assert residuals["analytic"] != residuals["fd"]

    def test_curvature_mode_accepts_every_config_spelling(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        printed = {}
        for mode in ("fd", "finite_difference"):
            assert main(["curvature", "--config", cfg, "--mode", mode, "--point", "0.1,0.2,0.3,0.4"]) == 0
            printed[mode] = capsys.readouterr().out
        assert printed["finite_difference"] == printed["fd"]


class TestNumberValidationExitCode:
    """Numbers that used to be coerced, or overflowed a float, are a config error with exit 2."""

    @staticmethod
    def check_exits_2(path, capsys, field):
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("overrides,field", [
        ({"family": {"name": "s_wave", "params": ["2.0", 0.1, 3.0, True]}}, "family.params"),
        ({"family": {"name": "s_wave", "params": [2.0, 0.1, 10 ** 400, 1.0]}}, "family.params"),
        ({"points": [[0, 0, 0, 0], [0, 0, 10 ** 400, 0]]}, "points[1]"),
        ({"seeds": [[1, 0, 0, 0], [1, 2, 0, 10 ** 400]]}, "seeds[1]"),
    ])
    def test_bad_number_exits_2(self, tmp_path, capsys, overrides, field):
        self.check_exits_2(write_config(tmp_path, **overrides), capsys, field)

    @pytest.mark.parametrize("grid,field", [
        ({"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2.7, True, 1, 1]}, "grid.count"),
        ({"min": ["0", False, 0, 0], "max": [1, 1, 1, 1], "count": [2, 1, 1, 1]}, "grid.min"),
    ])
    def test_bad_grid_exits_2(self, tmp_path, capsys, grid, field):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
            "grid": grid, "seeds": "random:1", "rng_seed": 7,
        }))
        self.check_exits_2(path, capsys, field)


class TestUndecodableConfigExitCode:
    """A config file that cannot be decoded is a config error naming the file, with exit 2 and no output."""

    @pytest.mark.parametrize("content", [
        ('{"rng_seed": ' + "1" * 5000 + "}").encode(),
        '{"family": {"name": "s_w\xe4ve"}}'.encode("latin-1"),
        b"[" * 100000,
    ], ids=["integer-too-long", "not-utf8", "nested-too-deep"])
    def test_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and str(path) in captured.err
        assert captured.out == ""


class TestSeedBoundsExitCode:
    @pytest.mark.parametrize("overrides", [
        {"seeds": "random:" + "9" * 5000},
        {"seeds": "random:1000001"},
        {"points": [[0.1 * i, 0.0, 0.0, 0.0] for i in range(11)], "seeds": "random:1000000"},
    ], ids=["huge-digit-count", "above-the-seed-cap", "above-the-record-cap"])
    def test_exits_2_before_any_seed_is_drawn(self, tmp_path, capsys, monkeypatch, overrides):
        from circulant4 import reporting

        def sample(rng, n):
            raise AssertionError("a seed was drawn")
        monkeypatch.setattr(reporting, "random_qbase_seeds", sample)
        out = tmp_path / "report.json"
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: seeds")
        assert not out.exists()


class TestOutFile:
    def test_inspect_out_writes_the_printed_bytes(self, tmp_path, capsys):
        assert main(["inspect", "--coeffs", "3,1,2"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "inspect.json"
        assert main(["inspect", "--coeffs", "3,1,2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("command", [["inspect", "--coeffs", "3,1,2"], ["verify"], ["verify", "--format", "csv"]],
                             ids=["inspect", "verify", "verify-csv"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "report.json"
        if command[0] == "verify":
            command = [*command, "--config", write_config(tmp_path)]
        assert main([*command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1

    def test_unwritable_output_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["verify", "--config", write_config(tmp_path, output={"path": str(out)})]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err


class TestEmptyOutputPath:
    """An empty output path is refused before any work, with one line and exit 2: else it reads as no path, and
    the output goes to stdout (or, for verify --out "", to the config's output.path)."""

    @pytest.mark.parametrize("argv", [["inspect", "--coeffs", "3,1,2"], ["qbase", "--coeffs", "3,1,2"],
                                      ["pyramid", "--coeffs", "3,1,2", "--seed-vector", "1,0,0,0"],
                                      ["curvature"], ["verify"], ["verify", "--format", "csv"]],
                             ids=["inspect", "qbase", "pyramid", "curvature", "verify", "verify-csv"])
    def test_empty_out_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        name = argv[0]
        _, *rest = cli._COMMANDS[name]
        monkeypatch.setitem(cli._COMMANDS, name, (mock.Mock(side_effect=AssertionError("the command ran")), *rest))
        if name in ("curvature", "verify"):
            argv = [*argv, "--config", write_config(tmp_path, output={"path": str(tmp_path / "report.json")})]
        assert main([*argv, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --out must be a non-empty file path, got ''\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == ([tmp_path / "run.json"] if name in ("curvature", "verify") else [])

    def test_empty_output_path_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verify", mock.Mock(side_effect=AssertionError("a point was evaluated")))
        assert main(["verify", "--config", write_config(tmp_path, output={"path": ""})]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: output.path must be a non-empty file path string, got ''\n"
        assert captured.out == ""


class TestOutputOpenedBeforeTheRun:
    """The CLI opens its one output before the run; run_verify itself writes nothing."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        def run_verify(config):
            raise AssertionError("a point was evaluated")
        monkeypatch.setattr(cli, "run_verify", run_verify)

    @pytest.mark.parametrize("command", ["verify --out", "verify output.path", "curvature --out"])
    def test_unwritable_output_exits_2_before_the_run(self, tmp_path, capsys, no_run, command):
        out = tmp_path / "missing" / "report.json"
        name, where = command.split()
        overrides = {"output": {"path": str(out)}} if where == "output.path" else {}
        argv = [name, "--config", write_config(tmp_path, **overrides)]
        if where == "--out":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""

    def test_run_verify_writes_no_file(self, tmp_path):
        out = tmp_path / "report.json"
        config = RunConfig.from_file(write_config(tmp_path, output={"path": str(out)}))
        assert cli.run_verify(config)["summary"]["status"] == "pass"
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    def test_curvature_writes_only_out(self, tmp_path, capsys):
        ignored, out = tmp_path / "ignored.json", tmp_path / "curvature.json"
        cfg = write_config(tmp_path, output={"path": str(ignored)})
        assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["family"]["name"] == "s_wave"
        assert not ignored.exists()


class TestNonFiniteTolerance:
    """A tolerance that JSON reads as infinite is a config error: an infinite curvature_tol would pass the
    control family's nabla_q_zero and so judge section criteria that do not apply to it."""

    @pytest.mark.parametrize("text", ["Infinity", "1e400", "NaN"])
    def test_exits_2_with_one_line_naming_the_key(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, family={"name": "control", "params": [3.0, 0.1, 1.0, 2.0]},
                           tolerances={"curvature_tol": "TOL"})
        pathlib.Path(cfg).write_text(pathlib.Path(cfg).read_text().replace('"TOL"', text))
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: tolerance 'tolerances.curvature_tol'")
        assert captured.err.count("\n") == 1 and captured.out == ""


# A seed whose q-section Gram determinant underflows to 0: the config parses, and the run stops with exit 2.
UNDERFLOW = {"family": {"name": "constant", "params": [3e-3, 1e-3, 2e-3]}, "points": [[0.0, 0.0, 0.0, 0.0]],
             "seeds": [[1e-80, 0.0, 0.0, 0.0]]}


class TestFailedRunKeepsTheOutput:
    """The output is opened before the run but written only after it: a run that fails part way leaves an
    existing file as it was and no new file."""

    @staticmethod
    def argv(tmp_path, command, out):
        name, where = command.split()
        cfg = write_config(tmp_path, **UNDERFLOW, **({"output": {"path": str(out)}} if where == "output.path" else {}))
        return [name, "--config", cfg] + (["--out", str(out)] if where == "--out" else [])

    @pytest.mark.parametrize("command", ["verify --out", "verify output.path", "curvature --out"])
    def test_existing_file_keeps_its_bytes(self, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        out.write_bytes(b'{"earlier": "report"}\r\n')
        assert main(self.argv(tmp_path, command, out)) == 2
        assert "q-section Gram determinant is 0.0" in capsys.readouterr().err
        assert out.read_bytes() == b'{"earlier": "report"}\r\n'

    @pytest.mark.parametrize("command", ["verify --out", "verify output.path", "curvature --out"])
    def test_new_path_is_not_left_behind(self, tmp_path, capsys, command):
        out = tmp_path / "report.json"
        assert main(self.argv(tmp_path, command, out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "curvature"])
    def test_run_that_ends_replaces_a_longer_file(self, tmp_path, capsys, command):
        cfg, out = write_config(tmp_path), tmp_path / "report.json"
        assert main([command, "--config", cfg]) in (0, 1)
        printed = capsys.readouterr().out
        out.write_text("x" * (2 * len(printed)))
        assert main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
        assert out.read_bytes() == printed.encode("utf-8")
