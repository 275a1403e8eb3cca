"""Report text: the writers emit exactly the bytes of the stdlib encoders they replace."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant4 import RunConfig, run_verify
from circulant4.reporting import report_json, report_to_csv


def json_oracle(report):
    """The canonical JSON text as the stdlib's encoder writes it."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def csv_oracle(report):
    """The CSV text as csv.writer writes it, row by row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["point_index", "seed_index"]
        + [f"point_{i}" for i in range(1, 5)]
        + [f"seed_{i}" for i in range(1, 5)]
        + ["A", "B", "C", "parallel_residual", "nabla_q_residual", "frame_residual"]
        + [f"mu_{i}" for i in range(1, 7)]
        + ["equality_residual", "zero_residual", "max_identity_residual", "max_symmetry_residual"]
    )
    for r in report["records"]:
        writer.writerow(
            [r["point_index"], r["seed_index"]]
            + list(r["point"]) + list(r["seed"])
            + [r["coeffs"]["A"], r["coeffs"]["B"], r["coeffs"]["C"],
               r["parallel_residual"], r["nabla_q_residual"], r["frame_residual"]]
            + list(r["mu"])
            + [r["equality_residual"], r["zero_residual"],
               max(r["identity_residuals"].values()),
               max(r["symmetry_residuals"].values())]
        )
    return buf.getvalue()


# Floats whose spelling is special: non-finite, signed zeros, the smallest
# subnormal, and both sides of repr's switch between fixed and exponent
# notation (1e-05 vs 0.0001, 1e+16 vs 1e+17).
_EDGE = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
         1e-5, 1e-4, 1e16, 1e17, 9999999999999998.0, 1.0000000000000002e16]
_EDGE += [math.nextafter(x, y) for x in (1e-5, 1e-4, 1e16, 1e17) for y in (0.0, math.inf)]
floats = st.one_of(st.sampled_from(_EDGE), st.floats(allow_nan=True, allow_infinity=True))
numbers = st.one_of(floats, floats.map(np.float64), st.integers(), st.integers(-3, 3))
leaves = st.one_of(numbers, st.booleans(), st.none())
# Keys that touch the template's own syntax: the format character, the
# slot character, quotes and backslashes.
keys = st.one_of(st.sampled_from(["a", "mu", "%s", "%", "\x00", 'x"\x00', "\\u0000", "records"]),
                 st.text(max_size=6))
values = st.recursive(leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
                      max_leaves=16)
records_of_one_shape = st.tuples(values, st.integers(1, 4))
config_values = st.one_of(st.text(max_size=8), st.booleans(), st.none(), floats, st.integers(),
                          st.lists(st.text(max_size=4), max_size=3))


def refill(value, draw):
    """The same key shape with fresh leaves."""
    if isinstance(value, dict):
        return {k: refill(v, draw) for k, v in value.items()}
    if isinstance(value, list):
        return [refill(v, draw) for v in value]
    return draw(leaves)


@st.composite
def reports(draw):
    records = []
    for base, copies in draw(st.lists(records_of_one_shape, max_size=4)):
        records += [base] + [refill(base, draw) for _ in range(copies - 1)]
    draw(st.randoms()).shuffle(records)
    report = {"records": records, "config": draw(st.dictionaries(st.text(max_size=6), config_values, max_size=4))}
    report.update(draw(st.dictionaries(st.sampled_from(["tool", "summary", "rng_seed", "zeta"]), values, max_size=3)))
    return report


_cell = st.one_of(floats, floats.map(np.float64), st.integers())
_csv_record = st.fixed_dictionaries({
    **{name: _cell for name in ["parallel_residual", "nabla_q_residual", "frame_residual",
                                "equality_residual", "zero_residual"]},
    "point_index": st.integers(0, 10**6),
    "seed_index": st.integers(0, 10**6),
    "point": st.lists(_cell, min_size=4, max_size=4),
    "seed": st.lists(_cell, min_size=4, max_size=4),
    "coeffs": st.fixed_dictionaries({"A": _cell, "B": _cell, "C": _cell}),
    "mu": st.lists(_cell, min_size=6, max_size=6),
    "identity_residuals": st.dictionaries(st.text(max_size=3), _cell, min_size=1, max_size=3),
    "symmetry_residuals": st.dictionaries(st.text(max_size=3), _cell, min_size=1, max_size=3),
})
csv_reports = st.fixed_dictionaries({"records": st.lists(_csv_record, max_size=4)})


class TestJsonBytes:
    @settings(max_examples=150, deadline=None)
    @given(report=reports())
    def test_matches_stdlib_encoder(self, report):
        assert report_json(report) == json_oracle(report)

    @pytest.mark.parametrize("records", [
        [],
        [{1: 0.5}, {1.0: 0.5}, {True: 0.5}],  # equal keys that json.dumps spells apart
        [{'x"\x00': 1.0, "y": 2.0}, {'x"\x00': 3.0, "y": 4.0}],  # a key holding the slot's text
        [{"a%sb": [1.0, "text", None]}, {"a%sb": [2.0, 3.0, True]}],  # a string leaf, then a number
        [{"b": 1.5, "a": [math.nan, -math.inf]}, {"b": np.float64(-0.0), "a": [math.inf, 1e16]}],
        [0.25, [], {}, [[]], {"": {}}],
    ])
    def test_edge_records(self, records):
        report = {"records": records, "config": {"name": "x", "flag": False, "path": None}}
        assert report_json(report) == json_oracle(report)

    def test_non_json_leaf_still_rejected(self):
        with pytest.raises(TypeError):
            report_json({"records": [{"a": np.float32(1.0)}]})


class TestCsvBytes:
    @settings(max_examples=100, deadline=None)
    @given(report=csv_reports)
    def test_matches_csv_writer(self, report):
        assert report_to_csv(report) == csv_oracle(report)


def _workload(family, params, count, seeds, fmt):
    return {
        "family": {"name": family, "params": params},
        "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [count] * 4},
        "seeds": f"random:{seeds}",
        "rng_seed": 7,
        "output": {"format": fmt},
    }


class TestRealReports:
    """The benchmark's three workloads, shrunk, in both derivative modes."""

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("raw", [
        _workload("s_wave", [2.0, 0.1, 3.0, 1.0], 2, 4, "json"),
        _workload("s_wave", [2.0, 0.1, 3.0, 1.0], 3, 1, "json"),
        _workload("control", [3.0, 0.1, 1.0, 2.0], 2, 2, "csv"),
    ], ids=["seeds_heavy", "points_fd", "control_csv"])
    def test_run_verify_report(self, raw, mode):
        report = run_verify(RunConfig({**raw, "derivative_mode": mode}))
        assert report_json(report) == json_oracle(report)
        assert report_to_csv(report) == csv_oracle(report)
