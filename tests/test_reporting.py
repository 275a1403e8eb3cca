"""Batch verification runs and report serialization."""

import json
import math

import numpy as np
import pytest

from circulant4 import ConfigError, RunConfig, make_custom_family, run_verify
from circulant4.cli import main
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


def verify_from_file(tmp_path, cfg):
    """``circulant4 verify`` on ``cfg`` written to a config file; returns its exit code."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return main(["verify", "--config", str(path)])


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
        assert verify_from_file(tmp_path, cfg) == 0
        report = run_verify(RunConfig(cfg))
        assert json.loads(out.read_text())["summary"] == json.loads(report_json(report))["summary"]

    def test_csv_flattening(self):
        report = run_verify(RunConfig(base_config()))
        lines = report_to_csv(report).strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + points x seeds
        assert lines[0].startswith("point_index,seed_index")


class TestNaNVerdicts:
    def test_nan_at_a_later_point_fails_its_criterion(self):
        # A NaN Hessian at the second of two points makes its Riemann tensor NaN.
        spec = make_custom_family(
            lambda p: (3.0, 1.0, 2.0),
            lambda p: np.zeros((3, 4)),
            lambda p: np.full((3, 4, 4), np.nan if p[0] > 0.5 else 0.0),
        )
        config = RunConfig(base_config(family={"name": "constant", "params": [3, 1, 2]},
                                       points=[[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
        config.family = spec
        summary = run_verify(config)["summary"]
        assert math.isnan(summary["max_symmetry_residual"])
        assert summary["criteria"]["riemann_symmetries"] == "fail"
        assert summary["status"] == "fail"


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

        # Every chart point that reaches the block jet, through any module's binding of it.
        calls = []
        original = fields.eval_jets

        def counting(spec, points):
            calls.extend(map(tuple, points))
            return original(spec, points)

        for module in (fields, curvature, reporting):
            if hasattr(module, "eval_jets"):
                monkeypatch.setattr(module, "eval_jets", counting)
        config = RunConfig(base_config())
        run_verify(config)
        assert len(calls) == len(config.points) == len(set(calls))


class TestParseTimeValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_point_rejected(self, bad):
        points = [[0.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [0.0, bad, 0.0, 0.0]]
        with pytest.raises(ConfigError, match=r"points\[2\]"):
            RunConfig(base_config(points=points))

    @pytest.mark.parametrize("key", ["min", "max"])
    def test_non_finite_grid_bound_rejected(self, key):
        cfg = base_config()
        del cfg["points"]
        cfg["grid"] = {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 2, 1, 1]}
        cfg["grid"][key][1] = float("inf")
        with pytest.raises(ConfigError, match=rf"grid\.{key}"):
            RunConfig(cfg)

    def test_boolean_tolerance_rejected(self):
        with pytest.raises(ConfigError, match=r"tolerances\.section_tol"):
            RunConfig(base_config(tolerances={"section_tol": True}))

    def test_unknown_tolerance_rejected(self):
        with pytest.raises(ConfigError, match=r"tolerances\.sectoin_tol"):
            RunConfig(base_config(tolerances={"sectoin_tol": 1e-9}))

    def test_unknown_top_level_key_rejected(self):
        cfg = base_config()
        cfg["tolernces"] = {"section_tol": 1e-9}
        with pytest.raises(ConfigError, match="tolernces"):
            RunConfig(cfg)

    def test_every_documented_key_accepted(self):
        cfg = base_config(
            tolerances={"frame_tol": 1e-12, "curvature_tol": 1e-9, "section_tol": 1e-6},
            output={"format": "json"},
        )
        config = RunConfig(cfg)
        assert config.tolerances["section_tol"] == 1e-6

    def test_infinite_grid_count_rejected(self):
        cfg = base_config()
        del cfg["points"]
        cfg["grid"] = {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 2, 1, float("inf")]}
        with pytest.raises(ConfigError, match="grid"):
            RunConfig(cfg)


def _constant(params, seed=(1.0, 0.2, -0.3, 0.4)):
    return {"family": {"name": "constant", "params": params}, "points": [[0.0, 0.0, 0.0, 0.0]], "seeds": [list(seed)]}


class TestFloatScale:
    """A config whose Gram entries or q-section denominators may overflow a float is refused at parse time, naming
    family.params; below the limit the same family verifies."""

    @pytest.mark.parametrize("params,seed", [
        ([1.7e308, 1e307, 5e307], (1.0, 0.2, -0.3, 0.4)),  # 4 (A + 2B + C) overflows
        ([1e200, 1e199, 5e199], (1.0, 0.2, -0.3, 0.4)),  # ((A + 2B + C) |x|^2)^2 overflows
        ([1e150, 1e149, 5e149], (1e3, 0.2, -0.3, 0.4)),  # the same, through the seed's length
    ])
    def test_overflowing_scale_rejected(self, params, seed):
        with pytest.raises(ConfigError, match=r"^family\.params = .* overflows a float \(need both finite\)$"):
            RunConfig(_constant(params, seed))

    def test_upper_corner_of_the_chart_counts(self):
        # s_wave's base is well inside the limit; its chart-wide upper bound of A is not.
        cfg = base_config(family={"name": "s_wave", "params": [3e153, 5e152, 6e153, 1.0]}, seeds=[[1, 0.2, -0.3, 0.4]])
        with pytest.raises(ConfigError, match=r"^family\.params = "):
            RunConfig(cfg)
        cfg["family"]["params"][1] = 1e151
        RunConfig(cfg)

    def test_below_the_limit_verifies(self):
        report = run_verify(RunConfig(_constant([1e150, 1e149, 5e149])))
        assert report["summary"]["status"] == "pass"
        assert all(map(math.isfinite, report["records"][0]["mu"]))


class TestSectionValidation:
    def test_points_and_grid_together_rejected(self):
        grid = {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 1, 1, 1]}
        with pytest.raises(ConfigError, match="both 'points' and 'grid'"):
            RunConfig(base_config(grid=grid))

    @pytest.mark.parametrize("section,key", [("family", "parms"), ("output", "fromat")])
    def test_unknown_section_key_rejected(self, section, key):
        cfg = base_config(output={"format": "json"})
        cfg[section] = {**cfg[section], key: "csv"}
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            RunConfig(cfg)

    @pytest.mark.parametrize("output", ["csv", ["json"], None])
    def test_non_object_output_rejected(self, output):
        with pytest.raises(ConfigError, match="'output' must be an object"):
            RunConfig(base_config(output=output))

    @pytest.mark.parametrize("path", [5, True, ["report.json"]])
    def test_non_string_output_path_rejected(self, path):
        with pytest.raises(ConfigError, match=r"output\.path"):
            RunConfig(base_config(output={"path": path}))


def _without(key, **overrides):
    cfg = base_config(**overrides)
    del cfg[key]
    return cfg


def _grid(**fields):
    return {"min": [0, 0, 0, 0], "max": [1, 1, 1, 1], "count": [2, 1, 1, 1], **fields}


# (config, text the ConfigError must contain): every parse-time rejection names its field.
_REJECTIONS = {
    "root-not-object": ([base_config()], "config root"),
    "tolerances-not-object": (base_config(tolerances=[1e-9]), "'tolerances'"),
    "output-format": (base_config(output={"format": "xml"}), "output.format"),
    "points-shape": (base_config(points=[[0.0, 0.0, 0.0]]), "'points'"),
    "points-flat": (base_config(points=[0.0, 0.0, 0.0, 0.0]), "'points'"),
    "points-empty": (base_config(points=[]), "'points'"),
    "points-ragged": (base_config(points=[[0, 0, 0, 0], [1, 2, 3]]), "'points'"),
    "points-nested-cell": (base_config(points=[[0, 0, 0, [1]]]), "'points'"),
    "points-string": (base_config(points=[["a", 0, 0, 0]]), "'points'"),
    "points-numeric-string": (base_config(points=[["0.5", 0, 0, 0]]), "'points'"),
    "points-bool": (base_config(points=[[True, 0, 0, 0]]), "'points'"),
    "points-null": (base_config(points=[[None, 0, 0, 0]]), "'points'"),
    "grid-entries": (_without("points", grid=_grid(min=[0, 0, 0])), "'grid'"),
    "grid-missing-count": (_without("points", grid={"min": [0, 0, 0, 0], "max": [1, 1, 1, 1]}), "'grid'"),
    "grid-count-zero": (_without("points", grid=_grid(count=[0, 1, 1, 1])), "'grid'"),
    "no-points-or-grid": (_without("points"), "'points' or 'grid'"),
    "seeds-missing": (_without("seeds"), "'seeds'"),
    "seeds-not-random": (base_config(seeds="sobol:3"), "seeds"),
    "seeds-random-bad-count": (base_config(seeds="random:x"), "seeds"),
    "seeds-random-float-count": (base_config(seeds="random:1.5"), "seeds"),
    "seeds-random-no-count": (base_config(seeds="random:"), "seeds"),
    "seeds-shape": (base_config(seeds=[[1.0, 0.0, 0.0]]), "'seeds'"),
    "seeds-ragged": (base_config(seeds=[[1, 0, 0, 0], [1, 0, 0]]), "'seeds'"),
    "seeds-string": (base_config(seeds=[[1, 0, 0, "x"]]), "'seeds'"),
    "seeds-bool": (base_config(seeds=[[True, False, False, False]]), "'seeds'"),
    "derivative-mode": (base_config(derivative_mode="symbolic"), "derivative_mode"),
    "derivative-mode-case": (base_config(derivative_mode="FD"), "derivative_mode"),
    "derivative-mode-list": (base_config(derivative_mode=["fd"]), "derivative_mode"),
    "rng-seed-float": (base_config(rng_seed=1.5), "rng_seed"),
    "rng-seed-integral-float": (base_config(rng_seed=7.0), "rng_seed"),
    "rng-seed-string": (base_config(rng_seed="x"), "rng_seed"),
    "rng-seed-true": (base_config(rng_seed=True), "rng_seed"),
    "rng-seed-false": (base_config(rng_seed=False), "rng_seed"),
    "rng-seed-negative": (base_config(rng_seed=-3), "rng_seed"),
    "rng-seed-with-explicit-seeds": (base_config(rng_seed="x", seeds=[[1, 0, 0, 0]]), "rng_seed"),
}


class TestConfigRejections:
    @pytest.mark.parametrize("raw,field", list(_REJECTIONS.values()), ids=list(_REJECTIONS))
    def test_rejection_names_field(self, raw, field):
        with pytest.raises(ConfigError) as info:
            RunConfig(raw)
        assert field in str(info.value)

    def test_derivative_mode_error_is_not_blamed_on_family(self):
        with pytest.raises(ConfigError, match=r"^derivative_mode must be .*'symbolic'"):
            RunConfig(base_config(derivative_mode="symbolic"))

    @pytest.mark.parametrize("given,mode", [
        ("fd", "finite_difference"), ("finite_difference", "finite_difference"), ("analytic", "analytic"),
    ])
    def test_derivative_mode_accepted(self, given, mode):
        assert RunConfig(base_config(derivative_mode=given)).family.derivative_mode == mode

    @pytest.mark.parametrize("rng_seed", [0, 2**70])
    def test_non_negative_integer_rng_seed_accepted(self, rng_seed):
        assert RunConfig(base_config(rng_seed=rng_seed)).rng_seed == rng_seed

    def test_integer_points_and_seeds_become_floats(self):
        config = RunConfig(base_config(points=[[0, 1, 2, 3]], seeds=[(1, 0, 0, 0)]))
        assert config.points.dtype == config.seeds.dtype == float
        assert config.points.tolist() == [[0.0, 1.0, 2.0, 3.0]]

    def test_csv_report_written_to_path(self, tmp_path):
        out = tmp_path / "report.csv"
        cfg = base_config(output={"format": "csv", "path": str(out)})
        assert verify_from_file(tmp_path, cfg) == 0
        report = run_verify(RunConfig(cfg))
        assert out.read_bytes() == report_to_csv(report).encode("utf-8")


_HUGE = 10 ** 400  # an integer literal too large for a float


# (config, field the ConfigError must name): grid entries and family.params are
# JSON numbers, not coerced with float() / int(), and no integer overflows a float.
_NUMBER_REJECTIONS = {
    "grid-count-float": (_without("points", grid=_grid(count=[2.7, 1, 1, 1])), "grid.count"),
    "grid-count-integral-float": (_without("points", grid=_grid(count=[2.0, 1, 1, 1])), "grid.count"),
    "grid-count-bool": (_without("points", grid=_grid(count=[2, True, 1, 1])), "grid.count"),
    "grid-count-string": (_without("points", grid=_grid(count=["2", 1, 1, 1])), "grid.count"),
    "grid-count-huge": (_without("points", grid=_grid(count=[_HUGE, 1, 1, 1])), "grid.count"),
    "grid-min-string": (_without("points", grid=_grid(min=["0", 0, 0, 0])), "grid.min"),
    "grid-min-bool": (_without("points", grid=_grid(min=[0, False, 0, 0])), "grid.min"),
    "grid-min-null": (_without("points", grid=_grid(min=[0, 0, None, 0])), "grid.min"),
    "grid-max-huge": (_without("points", grid=_grid(max=[1, 1, 1, -_HUGE])), "grid.max"),
    "grid-max-not-list": (_without("points", grid=_grid(max=1)), "grid.max"),
    "grid-unknown-key": (_without("points", grid=_grid(step=[1, 1, 1, 1])), "grid.step"),
    "params-string": (base_config(family={"name": "s_wave", "params": ["2.0", 0.1, 3.0, 1.0]}), "family.params"),
    "params-bool": (base_config(family={"name": "s_wave", "params": [2.0, 0.1, 3.0, True]}), "family.params"),
    "params-null": (base_config(family={"name": "constant", "params": [3.0, None, 2.0]}), "family.params"),
    "params-not-list": (base_config(family={"name": "constant", "params": 3.0}), "family.params"),
    "params-huge": (base_config(family={"name": "s_wave", "params": [2.0, 0.1, _HUGE, 1.0]}), "family.params"),
    "params-infinite": (base_config(family={"name": "s_wave", "params": [2.0, 0.1, float("inf"), 1.0]}),
                        "family.params"),
    "params-nan": (base_config(family={"name": "constant", "params": [3.0, float("nan"), 2.0]}), "family.params"),
    "points-huge": (base_config(points=[[0, 0, 0, 0], [0, _HUGE, 0, 0]]), "points[1]"),
    "seeds-huge": (base_config(seeds=[[1, 0, 0, 0], [1, 2, 0, -_HUGE]]), "seeds[1]"),
}


class TestNumberRejections:
    @pytest.mark.parametrize("raw,field", list(_NUMBER_REJECTIONS.values()), ids=list(_NUMBER_REJECTIONS))
    def test_rejection_names_field(self, raw, field):
        with pytest.raises(ConfigError) as info:
            RunConfig(raw)
        assert field in str(info.value)

    def test_integer_grid_and_params_accepted(self):
        config = RunConfig(_without("points", grid=_grid(min=[0, -1, 0, 0], count=[2, 3, 1, 1]),
                                    family={"name": "constant", "params": [3, 1, 2]}))
        assert config.family.params == (3.0, 1.0, 2.0)
        assert config.points.shape == (6, 4) and config.points[:, 1].tolist() == [-1.0, 0.0, 1.0] * 2


def _config_text(**replace):
    """base_config() as JSON text with the given literal substitutions."""
    text = json.dumps(base_config())
    for old, new in replace.items():
        assert old in text
        text = text.replace(old, new)
    return text


class TestConfigFileDecoding:
    """Every failure to read or decode a config file is a ConfigError naming the file."""

    def check(self, path):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_file(str(path))
        assert str(path) in str(info.value)

    def test_integer_too_long_to_convert(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(_config_text(**{'"rng_seed": 1234': '"rng_seed": ' + "1" * 5000}))
        self.check(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(_config_text(**{"s_wave": "s_w\xe4ve"}).encode("latin-1"))
        self.check(path)

    def test_nested_too_deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        self.check(path)


class TestGridSize:
    def test_grid_above_the_point_limit_rejected(self):
        # 1001 * 1000 points, one more axis step than the limit allows.
        with pytest.raises(ConfigError, match=r"grid\.count"):
            RunConfig(_without("points", grid=_grid(count=[1001, 1000, 1, 1])))

    def test_huge_grid_rejected_before_any_point_is_built(self):
        with pytest.raises(ConfigError, match=r"grid\.count"):
            RunConfig(_without("points", grid=_grid(count=[10**6] * 4)))

    def test_grid_at_the_point_limit_accepted(self, monkeypatch):
        from circulant4 import reporting

        monkeypatch.setattr(reporting, "_MAX_GRID_POINTS", 12)
        assert RunConfig(_without("points", grid=_grid(count=[3, 4, 1, 1]))).points.shape == (12, 4)
        with pytest.raises(ConfigError, match=r"grid\.count"):
            RunConfig(_without("points", grid=_grid(count=[13, 1, 1, 1])))


class TestSeedCount:
    """"random:N" and points x seeds are bounded, and checked before any seed is drawn."""

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        from circulant4 import reporting

        def sample(rng, n):
            raise AssertionError("a seed was drawn")
        monkeypatch.setattr(reporting, "random_qbase_seeds", sample)

    def test_huge_digit_count_rejected(self):
        with pytest.raises(ConfigError, match="seeds") as info:
            RunConfig(base_config(seeds="random:" + "9" * 5000))
        assert len(str(info.value)) < 200

    def test_count_above_the_cap_rejected(self):
        from circulant4 import reporting

        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(base_config(seeds=f"random:{reporting._MAX_RANDOM_SEEDS + 1}"))

    @pytest.mark.parametrize("seeds", ["random:5", [[1.0, 0.0, 0.0, 0.0]] * 5], ids=["random", "list"])
    def test_records_above_the_cap_rejected(self, monkeypatch, seeds):
        from circulant4 import reporting

        monkeypatch.setattr(reporting, "_MAX_RECORDS", 9)  # 2 points x 5 seeds
        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(base_config(seeds=seeds))

    def test_count_at_the_caps_accepted(self, monkeypatch):
        from circulant4 import reporting

        monkeypatch.undo()  # draw the seeds for real
        monkeypatch.setattr(reporting, "_MAX_RANDOM_SEEDS", 3)
        monkeypatch.setattr(reporting, "_MAX_RECORDS", 6)  # 2 points x 3 seeds
        assert RunConfig(base_config(seeds="random:3")).seeds.shape == (3, 4)
        assert RunConfig(base_config(seeds="random:" + "0" * 5000 + "3")).seeds.shape == (3, 4)
        assert len(RunConfig(base_config(seeds=[[1.0, 0.0, 0.0, 0.0]] * 3)).seeds) == 3
        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(base_config(seeds="random:4"))
        monkeypatch.setattr(reporting, "_MAX_RANDOM_SEEDS", 4)
        with pytest.raises(ConfigError, match="seeds"):
            RunConfig(base_config(seeds="random:4"))
