"""The command-line and library contracts, over drawn inputs, and the installed ``circulant4`` entry point.

Every run of every subcommand ends one of two ways:

* exit 0 or 1: nothing on stderr, and the output is strict JSON (no NaN or Infinity) or a CSV report with the
  documented header;
* exit 2: exactly one line on stderr, and an existing ``--out`` file keeps its bytes.

Every call of a public library function returns or raises ValueError.  No numpy warning is printed on the way:
the runs and the calls are made with warnings as errors.
"""

import collections
import csv
import io
import json
import math
import os
import shutil
import subprocess
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from circulant4 import (
    apply_q,
    christoffel,
    closed_form_frame,
    coeffs_at,
    det_qorbit,
    eval_jet,
    identity_suite,
    inner,
    is_admissible,
    make_family,
    metric_det_closed,
    metric_eigenvalues,
    metric_matrix,
    nabla_q_residual,
    parallel_residual,
    pyramid_report,
    q_invariance_residual,
    q_section_curvatures,
    qbase_polynomial,
    qbase_predicate,
    riemann,
    sectional,
    spectral_frame,
    verify_frame,
)
from circulant4.cli import main
from circulant4.curvature import symmetry_residuals
from test_serialise import csv_oracle

CSV_HEADER = csv_oracle({"records": []})
EARLIER = b'{"earlier": "report"}\r\n'
# The documented example params of each built-in family.
DEFAULTS = {"constant": (3.0, 1.0, 2.0), "s_wave": (2.0, 0.1, 3.0, 1.0), "control": (3.0, 0.1, 1.0, 2.0)}
# q-bases on every metric, with |P(x)| at least 0.1 (x.x)^2.
SEEDS = [(1.0, 0.0, 0.0, 0.0), (1.0, 0.2, -0.3, 0.4), (0.3, -1.0, 2.0, 0.5), (2.0, 1.0, 0.0, -1.0)]

# A config that parses and whose run fails after --out is opened: on this metric the q-section Gram determinants
# of a seed of length 1e-80 underflow to 0.
UNDERFLOW = {"family": {"name": "constant", "params": [3e-3, 1e-3, 2e-3]}, "points": [[0.0, 0.0, 0.0, 0.0]],
             "seeds": [[1e-80, 0.0, 0.0, 0.0]]}
# A family named by a list, not a string, and a pyramid whose squared edges overflow though g(x, x) is finite.
LIST_NAME = {"family": {"name": ["s_wave"], "params": [2.0, 0.1, 3.0, 1.0]}, "points": [[0, 0, 0, 0]],
             "seeds": [[1, 0.2, -0.3, 0.4]]}
EDGE_OVERFLOW = ["pyramid", "--coeffs", "1e308,1e307,5e307", "--seed-vector", "1,0,0,0"]
# A finite-difference config at x1 = 1e13, where x1 +- FD_STEP rounds to x1; its stencil shifts the wave's phase, not
# x1, so the control is found non-parallel.  Then two configs that parse to points no run can evaluate: a grid whose
# span max - min overflows, and a wave phase x1 - x3 that overflows.
FD_STEP_LOST = {"family": {"name": "control", "params": [4.0, 0.5, 1.0, 2.0]}, "points": [[1e13, 0.2, 0.1, 0.4]],
                "seeds": "random:8", "rng_seed": 7, "derivative_mode": "fd"}
GRID_SPAN = {"family": {"name": "constant", "params": [3.0, 1.0, 2.0]},
             "grid": {"min": [-1e308, 0, 0, 0], "max": [1e308, 0, 0, 0], "count": [3, 1, 1, 1]},
             "seeds": [[1, 0.2, -0.3, 0.4]]}
PHASE_OVERFLOW = {"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]}, "points": [[1e308, 0, -1e308, 0]],
                  "seeds": [[1, 0.2, -0.3, 0.4]]}
# An admissible family whose A - C is subnormal, so that 4 / (A - C), a bound of the inverse metric, overflows.
SUBNORMAL = {"family": {"name": "constant", "params": [3e-320, 1e-320, 2e-320]}, "points": [[0, 0, 0, 0]],
             "seeds": [[1, 0.2, -0.3, 0.4]]}

magnitude = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                      st.sampled_from([-1.0, 1.0]), st.floats(-320.0, 308.0))
power = st.integers(-330, 330)


def params_for(defaults):
    """Random magnitudes of both signs from 1e-320 to 1e308, or the defaults times 2^k: (params, k or None)."""
    return st.one_of(st.tuples(st.tuples(*[magnitude] * len(defaults)), st.none()),
                     power.map(lambda k: (tuple(p * 2.0 ** k for p in defaults), k)))


def vector(values):
    return ",".join(map(repr, values))


@st.composite
def runs(draw):
    """(argv, config or None, the exit code it must give or None): one run of one of the five subcommands."""
    command = draw(st.sampled_from(["verify", "curvature", "inspect", "qbase", "pyramid"]))
    if command in ("verify", "curvature"):
        family = draw(st.sampled_from(sorted(DEFAULTS)))
        params, k = draw(params_for(DEFAULTS[family]))
        points = draw(st.lists(st.tuples(*[st.one_of(st.floats(-4.0, 4.0), magnitude)] * 4), min_size=1, max_size=3))
        # Some runs take a grid instead: per-axis min and max of random magnitudes or +-1e308, so that some spans
        # max - min overflow, and 1 to 3 points an axis.
        end = st.one_of(magnitude, st.sampled_from([-1e308, 1e308]))
        grid = draw(st.one_of(st.none(), st.tuples(*[st.tuples(end, end, st.integers(1, 3))] * 4)))
        # Explicit seeds are q-bases times 2^j or vectors of random magnitudes (j None).
        seeds = draw(st.one_of(st.just("random:3"), st.lists(st.one_of(
            st.tuples(st.sampled_from(SEEDS), st.one_of(st.just(0), power)),
            st.tuples(st.tuples(*[magnitude] * 4), st.none())), min_size=1, max_size=3)))
        mode = draw(st.sampled_from(["analytic", "finite_difference"]))
        config = {"family": {"name": family, "params": list(params)}, "points": [list(p) for p in points],
                  "seeds": seeds if seeds == "random:3" else [[v * 2.0 ** (j or 0) for v in s] for s, j in seeds],
                  "rng_seed": 7}
        if grid is not None:
            del config["points"]
            config["grid"] = dict(zip(("min", "max", "count"), map(list, zip(*grid))))
        if command == "verify":
            argv = ["verify", "--format", draw(st.sampled_from(["json", "csv"]))]
            config["derivative_mode"] = mode
        else:
            argv = ["curvature", "--mode", mode]
        # A flat metric at any power of 2 of its defaults verifies, in both modes, with seeds of unit scale, on
        # points or on a grid whose every span max - min is a finite float.
        unit = seeds == "random:3" or all(j == 0 for _, j in seeds)
        spans = grid is None or all(math.isfinite(hi - lo) for lo, hi, _ in grid)
        return argv, config, 0 if family == "constant" and k is not None and unit and spans else None
    coeffs, _ = draw(params_for(DEFAULTS["constant"]))
    argv = [command, "--coeffs", vector(coeffs)]
    if command == "pyramid" or (command == "qbase" and draw(st.booleans())):
        seed_vector = draw(st.one_of(st.sampled_from(SEEDS), st.tuples(*[magnitude] * 4)))
        argv += ["--seed-vector", vector(seed_vector)]
    return argv, None, None


def strict_json(text):
    """``text`` parsed as JSON, refusing the NaN, Infinity and -Infinity that Python's json module accepts."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_run_exits_0_or_1_with_its_output_or_2_with_one_line():
    codes = collections.Counter()

    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(run=runs())
    @example(run=(["verify", "--format", "json"], UNDERFLOW, 2))
    @example(run=(["curvature", "--mode", "analytic"], UNDERFLOW, 2))
    @example(run=(["verify", "--format", "json"], LIST_NAME, 2))
    @example(run=(EDGE_OVERFLOW, None, 2))
    @example(run=(["verify", "--format", "json"], FD_STEP_LOST, 1))
    @example(run=(["verify", "--format", "csv"], GRID_SPAN, 2))
    @example(run=(["curvature", "--mode", "finite_difference"], PHASE_OVERFLOW, 2))
    @example(run=(["verify", "--format", "json"], SUBNORMAL, 2))
    def check(run):
        argv, config, expected = run
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            with open(out, "wb") as fh:
                fh.write(EARLIER)
            if config is not None:
                with open(os.path.join(tmp, "run.json"), "w") as fh:
                    json.dump(config, fh)
                argv = [*argv, "--config", os.path.join(tmp, "run.json")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([*argv, "--out", out])
            with open(out, "rb") as fh:
                written = fh.read()
        codes[code] += 1
        assert stdout.getvalue() == ""
        assert code == expected or expected is None
        if code == 2:
            assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n")
            assert written == EARLIER
            return
        assert code in (0, 1) and stderr.getvalue() == ""
        text = written.decode("utf-8")
        if "csv" in argv:
            assert text.startswith(CSV_HEADER)
            return
        payload = strict_json(text)
        if argv[0] == "verify":
            assert code == (0 if payload["summary"]["status"] == "pass" else 1)

    check()
    assert codes[0] + codes[1] >= 50 and codes[2] >= 50, codes


# The public library functions, each called on drawn generators c, make_family arguments spec, a chart point p and
# drawn vectors x, y, z, u.
LIBRARY = {
    "inner": lambda c, spec, p, x, y, z, u: inner(c, x, y),
    "apply_q": lambda c, spec, p, x, y, z, u: apply_q(x, 3),
    "metric_matrix": lambda c, spec, p, x, y, z, u: metric_matrix(c),
    "metric_eigenvalues": lambda c, spec, p, x, y, z, u: metric_eigenvalues(c),
    "metric_det_closed": lambda c, spec, p, x, y, z, u: metric_det_closed(c),
    "is_admissible": lambda c, spec, p, x, y, z, u: is_admissible(c),
    "qbase_polynomial": lambda c, spec, p, x, y, z, u: qbase_polynomial(x),
    "qbase_predicate": lambda c, spec, p, x, y, z, u: qbase_predicate(x),
    "det_qorbit": lambda c, spec, p, x, y, z, u: det_qorbit(x),
    "spectral_frame": lambda c, spec, p, x, y, z, u: spectral_frame(c),
    "closed_form_frame": lambda c, spec, p, x, y, z, u: closed_form_frame(c),
    "verify_frame": lambda c, spec, p, x, y, z, u: verify_frame(c, x),
    "pyramid_report": lambda c, spec, p, x, y, z, u: pyramid_report(c, x),
    "make_family": lambda c, spec, p, x, y, z, u: make_family(*spec),
    "coeffs_at": lambda c, spec, p, x, y, z, u: coeffs_at(make_family(*spec), p),
    "eval_jet": lambda c, spec, p, x, y, z, u: eval_jet(make_family(*spec), p),
    "parallel_residual": lambda c, spec, p, x, y, z, u: parallel_residual(make_family(*spec), p),
    "christoffel": lambda c, spec, p, x, y, z, u: christoffel(make_family(*spec), p),
    "riemann": lambda c, spec, p, x, y, z, u: riemann(make_family(*spec), p),
    "nabla_q_residual": lambda c, spec, p, x, y, z, u: nabla_q_residual(make_family(*spec), p),
    "sectional": lambda c, spec, p, x, y, z, u: sectional(make_family(*spec), p, x, y),
    "symmetry_residuals": lambda c, spec, p, x, y, z, u: symmetry_residuals(riemann(make_family(*spec), p)),
    "q_invariance_residual": lambda c, spec, p, x, y, z, u: q_invariance_residual(make_family(*spec), p, [x, y, z, u]),
    "q_section_curvatures": lambda c, spec, p, x, y, z, u: q_section_curvatures(make_family(*spec), p, x),
    "identity_suite": lambda c, spec, p, x, y, z, u: identity_suite(make_family(*spec), p, x),
}
# s_wave x 2^622, a metric near the float limits, and a seed x on which seed_checks' projection of R onto x's
# q-orbit overflows.
PROJECTION_OVERFLOW = ("q_section_curvatures", (
    DEFAULTS["constant"], ("s_wave", tuple(p * 2.0**622 for p in DEFAULTS["s_wave"]), "analytic"),
    (1.469, 1.679, -3.239, 0.362), (4.107453199822084e-232, 1.0540699340434818, 1.0948433917352924e-255,
                                    -2.287328692957867e+50), *SEEDS[:3]))


def scaled(defaults):
    """Random magnitudes of both signs from 1e-320 to 1e308, or the defaults times 2^k for any k that leaves
    2^k a finite float."""
    return st.one_of(st.tuples(*[magnitude] * len(defaults)),
                     st.integers(-1074, 1023).map(lambda k: tuple(p * 2.0 ** k for p in defaults)))


@st.composite
def library_calls(draw):
    """(name, arguments): one call of a LIBRARY function.  Vectors and points are of unit scale or of random
    magnitudes, some at +-1e308; the family spec is make_family's arguments, so that its refusals count."""
    family = draw(st.sampled_from(sorted(DEFAULTS)))
    params = draw(scaled(DEFAULTS[family]))
    mode = draw(st.sampled_from(["analytic", "finite_difference"]))
    component = st.one_of(magnitude, st.sampled_from([-1e308, 1e308]))
    vectors = st.one_of(st.sampled_from(SEEDS), st.tuples(*[st.floats(-4.0, 4.0)] * 4), st.tuples(*[component] * 4))
    c, p, x, y, z, u = draw(scaled(DEFAULTS["constant"])), *(draw(vectors) for _ in range(5))
    return draw(st.sampled_from(sorted(LIBRARY))), (c, (family, params, mode), p, x, y, z, u)


def test_every_library_call_returns_or_raises_value_error():
    outcomes = collections.Counter()

    @seed(20261021)
    @settings(max_examples=300, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(call=library_calls())
    @example(call=PROJECTION_OVERFLOW)
    def check(call):
        name, arguments = call
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                LIBRARY[name](*arguments)
            except ValueError:
                outcomes["ValueError"] += 1
            else:
                outcomes["returned"] += 1

    check()
    assert outcomes["returned"] >= 50 and outcomes["ValueError"] >= 50, outcomes


@pytest.mark.skipif(shutil.which("circulant4") is None, reason="the circulant4 console script is not installed")
class TestEntryPoint:
    """The installed console script, with the orjson that the installer resolved, writes the bytes of the stdlib
    encoders."""

    CONFIG = {"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
              "points": [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1]], "seeds": "random:2", "rng_seed": 7}

    def report(self, tmp_path, fmt, **overrides):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**self.CONFIG, **overrides}))
        out = tmp_path / f"report.{fmt}"
        result = subprocess.run(["circulant4", "verify", "--config", str(path), "--format", fmt, "--out", str(out)],
                                capture_output=True, text=True, check=False)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        with open(out, encoding="utf-8", newline="") as fh:
            return fh.read()

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_json_report_is_the_stdlib_encoding(self, tmp_path, mode):
        text = self.report(tmp_path, "json", derivative_mode=mode)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert not any("frame_tolerance" in record for record in json.loads(text)["records"])
        if mode == "finite_difference":  # a residual that orjson spells otherwise, so the writer respells it
            assert any(f"e-0{digit}" in text for digit in range(5, 10))

    def test_csv_report_is_csv_writer_over_the_json_records(self, tmp_path):
        records = json.loads(self.report(tmp_path, "json"))["records"]
        buffer = io.StringIO()
        csv.writer(buffer).writerows(
            [r["point_index"], r["seed_index"], *r["point"], *r["seed"], *(r["coeffs"][k] for k in "ABC"),
             r["parallel_residual"], r["nabla_q_residual"], r["frame_residual"], *r["mu"], r["equality_residual"],
             r["zero_residual"], max(r["identity_residuals"].values()), max(r["symmetry_residuals"].values())]
            for r in records)
        assert self.report(tmp_path, "csv") == CSV_HEADER + buffer.getvalue()
