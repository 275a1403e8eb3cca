"""Batch verification runs and report serialization."""

import itertools
import json
import math
import pathlib
import re

import numpy as np
import pytest

from circulant4 import ConfigError, RunConfig, curvature, make_custom_family, reporting, run_verify
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
        # The product of the axes in itertools.product order, the last axis fastest, bit for bit.
        cfg = base_config()
        del cfg["points"]
        lo, hi, count = [-1.0, 0.1, 2.0, -3.0], [1.0, 0.7, 2.5, 3.0], [3, 1, 4, 5]
        cfg["grid"] = {"min": lo, "max": hi, "count": count}
        config = RunConfig(cfg)
        assert config.points.shape == (60, 4)
        axes = [np.linspace(*bounds) for bounds in zip(lo, hi, count)]
        assert config.points.tobytes() == np.array(list(itertools.product(*axes))).tobytes()

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


# The benchmark's seeds_heavy config, and each criterion with the summary maximum and the tolerance it reads.
SEEDS_HEAVY = {"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]}, "seeds": "random:64", "rng_seed": 101,
               "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [2] * 4}}
CRITERIA = [
    ("nabla_q_zero", "max_nabla_q_residual", "curvature_tol"),
    ("spectral_frame", "max_frame_residual", "frame_tol"),
    ("section_equalities", "max_equality_residual", "section_tol"),
    ("section_zeros", "max_zero_residual", "section_tol"),
    ("identity_suite", "max_identity_residual", "section_tol"),
    ("riemann_symmetries", "max_symmetry_residual", "curvature_tol"),
]


class TestVerdictBoundary:
    """A criterion passes at a tolerance equal to its summary maximum and fails at the next float below it."""

    @pytest.mark.parametrize("criterion,maximum,key", CRITERIA, ids=[c[0] for c in CRITERIA])
    def test_tolerance_at_the_maximum_passes_and_just_below_fails(self, criterion, maximum, key):
        largest = run_verify(RunConfig(SEEDS_HEAVY))["summary"][maximum]
        assert largest > 0.0
        for tolerance, verdict in ((largest, "pass"), (float(np.nextafter(largest, 0.0)), "fail")):
            # Other criteria may share the key, so only this one's verdict is read.
            summary = run_verify(RunConfig({**SEEDS_HEAVY, "tolerances": {key: tolerance}}))["summary"]
            assert (summary[maximum], summary["criteria"][criterion]) == (largest, verdict)


class TestNaNVerdicts:
    # With one point per geometry block, the NaN point sits in the second block.
    @pytest.mark.parametrize("block_points", [256, 1])
    def test_nan_at_a_later_point_fails_its_criterion(self, monkeypatch, block_points):
        # A NaN Hessian at the second of two points makes its Riemann tensor NaN.
        monkeypatch.setattr(reporting, "_BLOCK_POINTS", block_points)
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

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e40])
    def test_nearly_degenerate_seed_rejected_at_every_scale(self, scale):
        # P(x) = -4.0e-30 against (x.x)^2 = 16 at scale 1; both are of degree 4, so their ratio keeps at any scale.
        seed = [scale, scale, scale, scale * 1.0000000001]
        with pytest.raises(ConfigError, match=r"^seeds\[1\] = \[.*\] is nearly degenerate: .*\(need \|P\(x\)\| >= "
                                              r"1e-12 \(x\.x\)\^2 = [^)]*\)$"):
            RunConfig(base_config(seeds=[[1.0, 0.2, -0.3, 0.4], seed]))

    @pytest.mark.parametrize("seed", [[1e-80, 0.0, 0.0, 0.0], [1001.0, 1000.0, 1.0, 1.0]])
    def test_short_and_least_conditioned_documented_seeds_accepted(self, seed):
        # 1e-80 e1: P(x) = 1e-320 is subnormal, yet its ratio to (x.x)^2 is e1's, 1; an absolute floor on P
        # would refuse it.  [1001, 1000, 1, 1] has the smallest ratio of the documented seeds, 9.98e-4.
        assert RunConfig(base_config(seeds=[seed])).seeds.tolist() == [seed]

    def test_underflowing_polynomial_still_refused_as_no_qbase(self):
        with pytest.raises(ConfigError, match=r"seeds\[0\] = \[1e-100, 0.0, 0.0, 0.0\] does not generate a q-base"):
            RunConfig(base_config(seeds=[[1e-100, 0.0, 0.0, 0.0]]))


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

    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400, 0, -1e-9],
                             ids=["inf", "nan", "10**400", "0", "negative"])
    def test_tolerance_must_be_positive_and_finite(self, value):
        with pytest.raises(ConfigError, match=r"tolerances\.curvature_tol' must be a positive finite number"):
            RunConfig(base_config(tolerances={"curvature_tol": value}))

    def test_largest_finite_tolerance_accepted(self):
        config = RunConfig(base_config(tolerances={"curvature_tol": 1.7976931348623157e308, "section_tol": 10**300}))
        assert config.tolerances["curvature_tol"] == 1.7976931348623157e308

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
        ([1.7e308, 1e307, 5e307], (1.0, 0.2, -0.3, 0.4)),  # A + C, and so A + 2B + C, overflows
        ([1e200, 1e199, 5e199], (1.0, 0.2, -0.3, 0.4)),  # ((A + 2B + C) |x|^2)^2 overflows
        ([1e150, 1e149, 5e149], (1e3, 0.2, -0.3, 0.4)),  # the same, through the seed's length
    ])
    def test_overflowing_scale_rejected(self, params, seed):
        with pytest.raises(ConfigError, match=r"^family\.params = .* overflows a float \(need it finite\)$"):
            RunConfig(_constant(params, seed))

    def test_upper_corner_of_the_chart_counts(self):
        # s_wave's base is well inside the limit; its chart-wide upper bound of A is not.
        cfg = base_config(family={"name": "s_wave", "params": [3e153, 5e152, 6e153, 1.0]}, seeds=[[1, 0.2, -0.3, 0.4]])
        with pytest.raises(ConfigError, match=r"^family\.params = "):
            RunConfig(cfg)
        cfg["family"]["params"][1] = 1e151
        RunConfig(cfg)

    def test_overflowing_stencil_rejected_in_fd_mode(self):
        # The finite-difference stencil forms 2 A = 2e308, which would give A a -inf Hessian and R = inf - inf.
        cfg = {**_constant([1e308, 1e307, 5e307], (3e-78, 6e-79, -9e-79, 1.2e-78)), "derivative_mode": "fd"}
        message = "family: constant: A reaches 1e+308, so the finite-difference stencil's 2 A overflows a float"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(cfg)

    def test_below_the_limit_verifies(self):
        self._assert_verifies(_constant([1e150, 1e149, 5e149]))

    @pytest.mark.parametrize("params,mode", [
        ([1e308, 1e307, 5e307], "analytic"),  # A + 2B + C = 1.7e308; 4 (A + 2B + C) overflows
        ([8.9e307, 1e307, 5e307], "fd"),  # the stencil's 2 A = 1.78e308 is finite
    ])
    def test_near_the_float_limit_verifies(self, params, mode):
        self._assert_verifies({**_constant(params, (3e-78, 6e-79, -9e-79, 1.2e-78)), "derivative_mode": mode})

    @staticmethod
    def _assert_verifies(cfg):
        report = run_verify(RunConfig(cfg))
        assert report["summary"]["status"] == "pass"
        assert all(map(math.isfinite, report["records"][0]["mu"]))
        # spectral_frame passes when the largest Gram residual is at most frame_tol, 1e-12 by default; the
        # residual is dimensionless, so it is held to that bound at any scale of A.
        assert report["records"][0]["frame_residual"] <= 1e-12


class TestScaleInvariance:
    """The Gram and nabla q residuals are dimensionless: scaling a family's params by a power of 4 scales A, B, C
    and their derivatives exactly, leaves every record's residuals equal bit for bit, and leaves the verdicts that
    read them as they were."""

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("name,params", [
        ("constant", [1.0, 0.3, 0.999999]),  # its frame residual, 1.6e-11, fails frame_tol 1e-12 at every scale
        ("s_wave", [2.0, 0.1, 3.0, 1.0]),
        ("control", [4.0, 0.5, 1.0, 2.0]),
    ])
    def test_residuals_and_verdicts_ignore_the_scale(self, name, params, mode):
        def outcome(k):
            report = run_verify(RunConfig({
                "family": {"name": name, "params": [p * 4.0**k for p in params]},
                "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [2] * 4},
                "seeds": "random:4", "rng_seed": 7, "derivative_mode": mode,
            }))
            residuals = [(r["frame_residual"].hex(), r["nabla_q_residual"].hex()) for r in report["records"]]
            criteria = report["summary"]["criteria"]
            return residuals, criteria["spectral_frame"], criteria["nabla_q_zero"]

        base = outcome(0)
        for k in (-3, 2, 5, 10):
            assert outcome(k) == base, f"params x 4^{k}"


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

    def test_empty_output_path_rejected(self):
        # An empty path would read as none, and the report go to stdout.
        with pytest.raises(ConfigError, match=r"output\.path must be a non-empty file path string, got ''"):
            RunConfig(base_config(output={"path": ""}))


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


def _documented_record_fields():
    """The rows of the "Record fields" table in docs/config_schema.md, each a list of its stripped cells."""
    text = (pathlib.Path(__file__).resolve().parent.parent / "docs" / "config_schema.md").read_text(encoding="utf-8")
    section = text.split("\n### Record fields\n", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def _layout_row(field):
    """A _LAYOUT entry as the docs' "Record fields" table spells it."""
    quoted = ", ".join(f"`{name}`" for name in field.csv)
    if field.leaves in ("index", "float"):
        layout = {"index": "int", "float": "float"}[field.leaves]
    elif isinstance(field.leaves, int):
        layout = f"list of {field.leaves} floats"
    else:
        named = [name for name in ("IDENTITY_NAMES", "SYMMETRY_NAMES")
                 if list(field.leaves) == getattr(curvature, name)]
        layout = (f"dict of the {len(field.leaves)} floats named in `curvature.{named[0]}`" if named
                  else "dict of floats " + ", ".join(f"`{name}`" for name in field.leaves))
    criterion = ""
    if field.criterion:
        name, tolerance, needs_parallel = field.criterion
        criterion = f"`{name}` by `{tolerance}`" + (", needs ∇q = 0" if needs_parallel else "")
    return [f"`{field.name}`", field.level, layout, quoted, f"`{field.summary}`" if field.summary else "", criterion]


class TestRecordFieldsDoc:
    def test_docs_table_matches_the_layout_table(self):
        assert _documented_record_fields() == [_layout_row(field) for field in reporting._LAYOUT]
