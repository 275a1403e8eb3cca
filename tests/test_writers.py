"""Report writers: a point's and a seed's text is reused only for the very same objects.

Every case is checked against the stdlib oracles of tests/test_serialise.py.
Records laid out as run_verify makes them must take the writer's own path,
so those cases also run with the json.dumps fallback made to raise.
"""

import collections
import copy
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_serialise import csv_oracle, floats, json_oracle

from circulant4 import RunConfig, reporting, run_verify
from circulant4.curvature import IDENTITY_NAMES, SYMMETRY_NAMES
from circulant4.reporting import report_json, report_to_csv

POINT_FIELDS = ["coeffs", "frame_residual", "nabla_q_residual", "parallel_residual", "point", "point_index",
                "symmetry_residuals"]


S_WAVE, CONTROL = ("s_wave", [2.0, 0.1, 3.0, 1.0]), ("control", [3.0, 0.1, 1.0, 2.0])


def real_report(mode="analytic", seeds="random:3", family=S_WAVE):
    return run_verify(RunConfig({
        "family": {"name": family[0], "params": family[1]},
        "points": [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1], [-0.4, 0.2, 0.1, 0.7]],
        "seeds": seeds,
        "rng_seed": 5,
        "derivative_mode": mode,
    }))


@pytest.fixture
def no_fallback(monkeypatch):
    """Make the whole-report json.dumps fallback raise."""
    def fallback(report):
        raise AssertionError("report_json fell back to json.dumps")
    monkeypatch.setattr(reporting, "_dumps", fallback)


def assert_bytes(report):
    assert report_json(report) == json_oracle(report)
    assert report_to_csv(report) == csv_oracle(report)


def assert_csv_or_type_error(report):
    """The CSV text is csv_oracle's; where the oracle raises TypeError (None under max), so does the writer."""
    try:
        expected = csv_oracle(report)
    except TypeError:
        with pytest.raises(TypeError):
            report_to_csv(report)
    else:
        assert report_to_csv(report) == expected


def changed(value):
    """An equal-shaped value that is a new object with other contents."""
    if isinstance(value, dict):
        return {key: v * 3.0 + 1.0 for key, v in value.items()}
    if isinstance(value, list):
        return [v * 3.0 + 1.0 for v in value]
    if isinstance(value, int):
        return value + 7
    return value * 3.0 + 1.0


def set_leaf(record, path, value):
    """A copy of the record with one leaf replaced; the other fields stay the same objects."""
    field, *rest = path
    record = dict(record)
    if rest:
        container = record[field] = copy.copy(record[field])
        container[rest[0]] = value
    else:
        record[field] = value
    return record


class TestRealReports:
    @pytest.mark.parametrize("family", [S_WAVE, CONTROL], ids=["s_wave", "control"])
    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("seeds", ["random:1", "random:3", [[1.0, 0.0, 0.0, 0.0], [0.9, 0.1, -0.4, 0.3]]])
    def test_run_verify_report_takes_the_record_path(self, no_fallback, mode, seeds, family):
        assert_bytes(real_report(mode, seeds, family))

    def test_report_shares_point_and_seed_objects(self):
        records = real_report()["records"]
        assert all(records[0][field] is records[2][field] for field in POINT_FIELDS)
        assert records[0]["seed"] is records[3]["seed"] is records[6]["seed"]


class TestPointReuse:
    @pytest.mark.parametrize("field", POINT_FIELDS)
    def test_each_point_field_alone_breaks_reuse(self, no_fallback, field):
        # Records 1 and 2 share every point-level object with record 0 but this one.
        records = real_report()["records"][:3]
        records[1] = {**records[1], field: changed(records[1][field])}
        records[2] = {**records[2], field: records[1][field]}
        assert_bytes({"records": records})

    @pytest.mark.parametrize("field", POINT_FIELDS)
    def test_equal_copies_give_equal_text(self, no_fallback, field):
        records = real_report()["records"]
        records[1] = {**records[1], field: copy.copy(records[1][field])}
        assert_bytes({"records": records})

    def test_a_point_seen_again_after_another(self, no_fallback):
        records = real_report()["records"]
        assert_bytes({"records": records[:3] + records[3:6] + records[:3]})


class TestSeedReuse:
    def test_one_seed_list_shared_across_points(self, no_fallback):
        report = real_report()
        shared = report["records"][0]["seed"]
        assert_bytes({"records": [{**r, "seed": shared} for r in report["records"]]})

    def test_equal_and_unequal_seed_objects(self, no_fallback):
        records = real_report()["records"]
        records[1] = {**records[1], "seed": list(records[0]["seed"])}
        records[2] = {**records[2], "seed": changed(records[0]["seed"])}
        assert_bytes({"records": records})


SLOTS = [("coeffs", "B"), ("frame_residual",), ("point", 2),
         ("symmetry_residuals", "pair_symmetry"), ("seed", 1), ("equality_residual",), ("mu", 3),
         ("identity_residuals", "e_zero"), ("zero_residual",)]


class TestLeaves:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-math.inf)],
                             ids=["nan", "inf", "-inf", "np.float64", "np.float64-inf"])
    @pytest.mark.parametrize("path", SLOTS, ids=lambda path: ".".join(map(str, path)))
    def test_special_float_in_every_slot(self, no_fallback, path, value):
        records = real_report()["records"]
        records[1] = set_leaf(records[1], path, value)
        assert_bytes({"records": records})

    @pytest.mark.parametrize("field", ["point", "seed", "mu"])
    def test_tuples(self, no_fallback, field):
        records = [{**r, field: tuple(r[field])} for r in real_report()["records"]]
        assert_bytes({"records": records})

    @pytest.mark.parametrize("value", [1, True, None], ids=repr)
    @pytest.mark.parametrize("path", SLOTS, ids=lambda path: ".".join(map(str, path)))
    def test_non_float_in_a_float_slot_falls_back(self, monkeypatch, path, value):
        records = real_report()["records"]
        records[2] = set_leaf(records[2], path, value)
        report = {"records": records}
        assert report_json(report) == json_oracle(report)
        assert_csv_or_type_error(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"

    @pytest.mark.parametrize("field", ["point_index", "seed_index"])
    @pytest.mark.parametrize("value", [True, False, 1.0], ids=repr)
    def test_index_that_is_not_an_int_falls_back(self, monkeypatch, field, value):
        records = real_report()["records"]
        records[1] = {**records[1], field: value}
        report = {"records": records}
        assert report_json(report) == json_oracle(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"


class TestOtherLayouts:
    @pytest.mark.parametrize("field,change", [
        ("identity_residuals", lambda d: {**d, "z_extra": 0.5}),
        ("identity_residuals", lambda d: {k: v for k, v in d.items() if k != "e_zero"}),
        ("symmetry_residuals", lambda d: {**d, "z_extra": 0.5}),
        ("symmetry_residuals", lambda d: {k: v for k, v in d.items() if k != "first_bianchi"}),
        ("coeffs", lambda d: {**d, "D": 0.5}),
        ("point", lambda v: v[:3]),
        ("seed", lambda v: v + [0.5]),
        ("mu", lambda v: v[:5]),
    ], ids=["identity-extra", "identity-missing", "symmetry-extra", "symmetry-missing", "coeffs-extra",
            "point-short", "seed-long", "mu-short"])
    def test_extra_or_missing_entries_fall_back(self, monkeypatch, field, change):
        records = real_report()["records"]
        records[1] = {**records[1], field: change(records[1][field])}
        report = {"records": records}
        assert report_json(report) == json_oracle(report)
        assert report_to_csv(report) == csv_oracle(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"

    @pytest.mark.parametrize("change", [lambda r: {**r, "extra": 1.0},
                                        lambda r: {k: v for k, v in r.items() if k != "zero_residual"}],
                             ids=["extra-key", "missing-key"])
    def test_other_record_keys_fall_back(self, monkeypatch, change):
        records = real_report()["records"]
        records[-1] = change(records[-1])
        report = {"records": records}
        assert report_json(report) == json_oracle(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"

    @pytest.mark.parametrize("field,old,new", [
        (None, "zero_residual", "zero_residuals"),
        ("identity_residuals", "e_zero", "e_zer0"),
        ("symmetry_residuals", "first_bianchi", "a_first_bianchi"),
        ("coeffs", "B", "D"),
    ], ids=["record", "identity", "symmetry", "coeffs"])
    def test_a_key_renamed_with_the_same_key_count_falls_back(self, monkeypatch, field, old, new):
        records = real_report()["records"]
        rename = lambda d: {new if key == old else key: value for key, value in d.items()}  # noqa: E731
        records[1] = rename(records[1]) if field is None else {**records[1], field: rename(records[1][field])}
        report = {"records": records}
        assert report_json(report) == json_oracle(report)
        try:
            expected = csv_oracle(report)
        except KeyError:  # a CSV column's key is gone, and the writer's getter misses it too
            with pytest.raises(KeyError):
                report_to_csv(report)
        else:
            assert report_to_csv(report) == expected
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"

    def test_array_is_not_json(self):
        records = real_report()["records"]
        records[1] = {**records[1], "mu": np.array(records[1]["mu"])}
        report = {"records": records}
        with pytest.raises(TypeError):
            json_oracle(report)
        with pytest.raises(TypeError):
            report_json(report)
        assert report_to_csv(report) == csv_oracle(report)


class GetsOtherwise(dict):
    """A dict whose getter reads one key as another value than its items hold."""

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        return changed(value) if key == "zero_residual" else value


class ItemsOtherwise(dict):
    """A dict whose items() hold other values than its getter reads, as json.dumps reads a dict subclass."""

    def items(self):
        return [(key, value * 3.0 + 1.0) for key, value in dict.items(self)]


class ValuesOtherwise(dict):
    """A dict whose values() hold other values than its getter reads, as the CSV oracle reads a max column."""

    def values(self):
        return [value * 3.0 + 1.0 for value in dict.values(self)]


def one_point_report():
    return run_verify(RunConfig({"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
                                 "points": [[0.3, -0.2, 0.5, 0.1]], "seeds": "random:2", "rng_seed": 5}))


class TestExactTypes:
    """The record path takes records, dict fields and vectors of exact type only: a subclass may read its items
    otherwise than the writers' getters do, so it goes whole to json.dumps or csv.writer."""

    @pytest.mark.parametrize("wrap", [
        lambda r: GetsOtherwise(r),
        lambda r: {**r, "coeffs": ItemsOtherwise(r["coeffs"])},
        lambda r: {**r, "identity_residuals": ValuesOtherwise(r["identity_residuals"])},
        lambda r: collections.OrderedDict(r),
        lambda r: {**r, "coeffs": collections.OrderedDict(r["coeffs"])},
    ], ids=["record-getter", "coeffs-items", "identity-values", "ordered-record", "ordered-coeffs"])
    def test_dict_subclasses_give_the_oracles_bytes(self, wrap):
        records = one_point_report()["records"]
        records[-1] = wrap(records[-1])
        assert_bytes({"records": records})

    @pytest.mark.parametrize("field", ["point", "seed", "mu"])
    def test_a_list_subclass_falls_back(self, monkeypatch, field):
        records = one_point_report()["records"]
        records[0] = {**records[0], field: type("Vector", (list,), {})(records[0][field])}
        report = {"records": records}
        assert_bytes(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"


def pair_slots(record):
    """The paths of a record's pair floats: the equality residual, the identity residuals, mu, the zero residual."""
    return ([("equality_residual",)] + [("identity_residuals", name) for name in sorted(record["identity_residuals"])]
            + [("mu", i) for i in range(6)] + [("zero_residual",)])


def nan_with_payload(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class LoudFloat(float):
    def __repr__(self):
        return "loud"


class TestDistinctSpelling:
    """Pair floats that one value spells two ways (signed zeros, NaN payloads), equal floats of two types, and
    leaves of other types: the bytes stay the stdlib's."""

    def test_signed_zeros(self, no_fallback):
        records = real_report()["records"]
        paths = pair_slots(records[0])
        for i, record in enumerate(records):
            record = set_leaf(record, paths[i], 0.0)
            records[i] = set_leaf(record, paths[-1 - i], -0.0)
        assert_bytes({"records": records})
        text = report_json({"records": records})
        assert ": 0.0" in text and ": -0.0" in text

    def test_nan_payloads_and_infinities(self, no_fallback):
        specials = [nan_with_payload(0x7FF8000000000000), nan_with_payload(0x7FF8000000000001),
                    nan_with_payload(0xFFF8000000000000), nan_with_payload(0x7FF0000000000001), math.inf, -math.inf]
        assert len({struct.pack("<d", x) for x in specials}) == len(specials)
        records = real_report()["records"]
        paths = pair_slots(records[0])
        for i, value in enumerate(specials):
            records[i] = set_leaf(records[i], paths[3 * i], value)
            records[-1] = set_leaf(records[-1], paths[i], value)
        assert_bytes({"records": records})

    @pytest.mark.parametrize("path", [("mu", 0), ("identity_residuals", "e_zero"), ("zero_residual",)],
                             ids=lambda path: ".".join(map(str, path)))
    def test_np_float64_and_float_in_one_slot(self, no_fallback, path):
        records = real_report()["records"]
        value = 0.1 + 0.2
        for i, record in enumerate(records):
            records[i] = set_leaf(record, path, np.float64(value) if i % 2 else value)
        assert_bytes({"records": records})

    @pytest.mark.parametrize("path", [("equality_residual",), ("mu", 5), ("identity_residuals", "e_zero"),
                                      ("zero_residual",), ("coeffs", "A"), ("seed", 0)],
                             ids=lambda path: ".".join(map(str, path)))
    def test_float_subclass_falls_back(self, monkeypatch, path):
        records = real_report()["records"]
        records[1] = set_leaf(records[1], path, LoudFloat(0.25))
        report = {"records": records}
        assert_bytes(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"

    @pytest.mark.parametrize("value", [1, True, None], ids=repr)
    @pytest.mark.parametrize("path", [("equality_residual",), ("mu", 2), ("identity_residuals", "e_zero"),
                                      ("zero_residual",)], ids=lambda path: ".".join(map(str, path)))
    def test_non_float_in_the_last_record_falls_back(self, monkeypatch, path, value):
        records = real_report()["records"]
        records[-1] = set_leaf(records[-1], path, value)
        report = {"records": records}
        assert report_json(report) == json_oracle(report)
        assert_csv_or_type_error(report)
        monkeypatch.setattr(reporting, "_dumps", lambda report: "fallback")
        assert report_json(report) == "fallback"

    def test_every_pair_float_equal(self, no_fallback):
        records = real_report()["records"]
        for i, record in enumerate(records):
            for path in pair_slots(record):
                record = set_leaf(record, path, 0.1)
            records[i] = record
        assert_bytes({"records": records})

    @pytest.mark.parametrize("family", [S_WAVE, CONTROL], ids=["s_wave", "control"])
    def test_single_record(self, no_fallback, family):
        assert_bytes({"records": real_report(seeds="random:1", family=family)["records"][:1]})


def decade_sweep():
    """Every power of ten 10^d, d in [-324, 308], with its two float neighbours and four random mantissas in
    [1, 10), both signs, in one float64 array."""
    rng = np.random.default_rng(27)
    values = []
    for d in range(-324, 309):
        edge = float(f"1e{d}")  # 0.0 for d = -324, whose neighbour is the least subnormal
        values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        values += [float(f"{m!r}e{d}") for m in rng.uniform(1.0, 10.0, 4).tolist()]  # inf past the float limit
    return np.array(values + [-value for value in values])


class TestReprs:
    """reporting._reprs spells each float64 as float.__repr__ does, inside the bands it respells (NaN, inf,
    1e-9 <= |x| < 1e-4 and |x| >= 1e16) and outside them, and NaN and inf by the spellings it is given."""

    @staticmethod
    def assert_reprs(values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        for non_finite in ({}, reporting._NON_FINITE):
            texts = map(float.__repr__, values.tolist())
            assert reporting._reprs(values, non_finite) == [non_finite.get(text, text) for text in texts]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_bit_patterns(self, bits):
        self.assert_reprs(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(floats, max_size=40))
    def test_floats(self, values):
        self.assert_reprs(values)

    def test_every_decade(self):
        values = decade_sweep()
        assert np.isinf(values).any() and (values == 0.0).any() and (values == 5e-324).any()
        self.assert_reprs(values)

    @pytest.mark.parametrize("edge", [1e-9, 1e-4, 1e16])
    def test_band_edges(self, edge):
        neighbours = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
        self.assert_reprs(neighbours + [-value for value in neighbours])

    def test_specials_and_empty(self):
        self.assert_reprs([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                           5e-324, -5e-324, 2.2250738585072014e-308])
        assert reporting._reprs(np.array([]), {}) == []


# The benchmark's three workload configs: many seeds at few points, finite-difference jets at many points, and
# the non-parallel control family.
WORKLOADS = {
    "seeds_heavy": {"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]}, "count": 2, "seeds": "random:64"},
    "points_fd": {"family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]}, "count": 4, "seeds": "random:1",
                  "derivative_mode": "finite_difference"},
    "control": {"family": {"name": "control", "params": [4.0, 0.5, 1.0, 2.0]}, "count": 4, "seeds": "random:8"},
}


def workload_report(name, rng_seed=7, mode=None):
    """The report of a workload config at ``rng_seed``, in its own derivative mode or in ``mode``."""
    config = dict(WORKLOADS[name])
    count = config.pop("count")
    config["grid"] = {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [count] * 4}
    if mode is not None:
        config["derivative_mode"] = mode
    return run_verify(RunConfig({**config, "rng_seed": rng_seed}))


def bit_pattern(value):
    return struct.pack("<d", value)


def float_leaves(value):
    """Every float leaf of a nested record value."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in float_leaves(v)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in float_leaves(v)]
    return [value] if isinstance(value, float) else []


# The float CSV cells of each field's object: every cell but the two indices (the CSV has no tolerance column).
CSV_FLOAT_CELLS = {
    "point": list, "seed": list, "coeffs": lambda d: [d[k] for k in "ABC"], "mu": list,
    **dict.fromkeys(["parallel_residual", "nabla_q_residual", "frame_residual", "equality_residual",
                     "zero_residual"], lambda v: [v]),
    **dict.fromkeys(["identity_residuals", "symmetry_residuals"], lambda d: [max(d.values())]),
}


class TestOneSpellingPass:
    """Each writer spells the float leaves (report_json) or float cells (report_to_csv) of each field's distinct
    objects, told apart by identity, in one _reprs call: an object that many records share is spelled once."""

    @staticmethod
    def leaves(records, cells, shared):
        """The sorted bit patterns of the float leaves, or given ``cells`` the float CSV cells, of each field's
        objects: once per distinct object if ``shared``, else once per record."""
        found = []
        for field in records[0]:
            if cells is None or field in cells:
                objects = [record[field] for record in records]
                if shared:
                    objects = list({id(value): value for value in objects}.values())
                found += [leaf for value in objects
                          for leaf in (float_leaves(value) if cells is None else cells[field](value))]
        return sorted(map(bit_pattern, found))

    @classmethod
    def assert_one_call(cls, monkeypatch, report, write=report_json, oracle=json_oracle, cells=None):
        """Check that the writer writes the oracle's bytes with one _reprs call, whose values are the leaves of
        each field's distinct objects."""
        records, calls = report["records"], []
        expected = cls.leaves(records, cells, shared=True)
        assert len(expected) < len(cls.leaves(records, cells, shared=False))  # else the records share no leaf

        def reprs(values, non_finite):
            values = list(values)
            calls.append(sorted(map(bit_pattern, values)))
            return [non_finite.get(text, text) for text in map(float.__repr__, values)]

        monkeypatch.setattr(reporting, "_reprs", reprs)
        assert write(report) == oracle(report)
        assert calls == [expected]

    def test_real_report(self, monkeypatch, no_fallback):
        # A point's objects are shared by the records of its seeds, and a seed's by those of its points.
        self.assert_one_call(monkeypatch, real_report())

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload_is_spelled_in_one_call(self, monkeypatch, no_fallback, name):
        self.assert_one_call(monkeypatch, workload_report(name))

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_csv_workload_is_spelled_in_one_call(self, monkeypatch, name):
        self.assert_one_call(monkeypatch, workload_report(name), report_to_csv, csv_oracle, CSV_FLOAT_CELLS)

    def test_signed_zero_coordinates(self, monkeypatch, no_fallback):
        report = run_verify(RunConfig({
            "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
            "points": [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            "seeds": "random:2", "rng_seed": 5,
        }))
        signs = [[math.copysign(1.0, x) for x in r["point"]] for r in report["records"][::2]]
        assert signs == [[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0], [1.0] * 4]
        self.assert_one_call(monkeypatch, report)

    @pytest.mark.parametrize("field", ["parallel_residual", "nabla_q_residual", "frame_residual"])
    def test_nan_point_residual(self, monkeypatch, no_fallback, field):
        records = real_report()["records"]
        # The three records of the second point keep sharing their point objects, with one residual NaN.
        nan_point = {**records[3], field: math.nan}
        records[3:6] = [{**r, **{k: nan_point[k] for k in POINT_FIELDS}} for r in records[3:6]]
        report = {"records": records}
        assert "NaN" in report_json(report)
        self.assert_one_call(monkeypatch, report)


PAIR_FIELDS = ["equality_residual", "identity_residuals", "mu", "zero_residual"]


class TestPairGroupReuse:
    @pytest.mark.parametrize("field", PAIR_FIELDS)
    def test_each_pair_field_alone_breaks_a_group(self, no_fallback, field):
        # Record 1 shares every pair-level object with record 0 but this one.
        records = real_report()["records"]
        records[1] = {**records[1], **{f: records[0][f] for f in PAIR_FIELDS if f != field}}
        assert_bytes({"records": records})


JSON_FIELDS = ["coeffs", "equality_residual", "frame_residual", "identity_residuals", "mu", "nabla_q_residual",
               "parallel_residual", "point", "point_index", "seed", "seed_index", "symmetry_residuals", "zero_residual"]


class TestOneFieldPass:
    """Each writer makes one pass over the records' fields, in reporting._columns, and finds there the distinct
    objects of each field by identity."""

    @staticmethod
    def one_pass(monkeypatch, report):
        """The count of distinct objects per field that report_json's one _columns call finds, after checking
        that each writer makes one such call, finds the counts made here by identity, and writes the oracles'
        bytes."""
        columns, calls, records = reporting._columns, [], report["records"]

        def hooked(records, fields):
            distinct, numbers = columns(records, fields)
            calls[-1].append(dict(zip(fields, map(len, distinct))))
            return distinct, numbers

        monkeypatch.setattr(reporting, "_columns", hooked)
        for write, oracle in ((report_json, json_oracle), (report_to_csv, csv_oracle)):
            calls.append([])
            assert write(report) == oracle(report)
            assert calls[-1] == [{field: len({id(r[field]) for r in records}) for field in JSON_FIELDS}]
        return calls[0][0]

    # Every workload at three RNG seeds in both derivative modes, so both writers' bytes are checked at full size.
    @pytest.mark.parametrize("name,rng_seed,mode", [
        (name, rng_seed, mode) for name in WORKLOADS for rng_seed in (7, 101, 2001)
        for mode in ("analytic", "finite_difference")])
    def test_each_writer_makes_one_pass(self, monkeypatch, no_fallback, name, rng_seed, mode):
        report = workload_report(name, rng_seed, mode)
        found, records = self.one_pass(monkeypatch, report), report["records"]
        # One point object per chart point and one seed object per seed vector.
        indices = [{r[index] for r in records} for index in ("point_index", "seed_index")]
        assert (found["point"], found["seed"]) == tuple(map(len, indices))

    def test_seed_indices_past_the_small_int_cache_are_shared(self, monkeypatch, no_fallback):
        # CPython caches ints up to 256 only; run_verify still gives each seed's records one index object.
        found = self.one_pass(monkeypatch, real_report(seeds="random:300"))
        assert [found[field] for field in ("point", "seed", "seed_index", "mu")] == [3, 300, 300, 900]

    def test_one_list_as_point_and_seed(self, monkeypatch, no_fallback):
        # Each point's coordinate list is also its records' seed; each field still finds it on its own.
        found = self.one_pass(monkeypatch, {"records": [{**r, "seed": r["point"]} for r in real_report()["records"]]})
        assert (found["point"], found["seed"]) == (3, 3)


# The fields that each writer passes to _columns: JSON's in sorted key order, the CSV's in column order.
COLUMN_FIELDS = {"json": reporting._NAMES, "csv": tuple(field.name for field in reporting._CSV)}


def columns_by_id(records, fields):
    """_columns' reference, built with id(): each field's distinct objects in ascending id order, and a (record,
    field) array of each record's number among them."""
    distinct, numbers = [], []
    for field in fields:
        by_id = {id(record[field]): record[field] for record in records}
        order = sorted(by_id)
        rank = {key: n for n, key in enumerate(order)}
        distinct.append([by_id[key] for key in order])
        numbers.append([rank[id(record[field])] for record in records])
    return distinct, np.array(numbers, dtype=np.intp).T


def assert_columns_by_id(records):
    """For each writer's fields, _columns gives the reference's numbers and the very same distinct objects."""
    for fields in COLUMN_FIELDS.values():
        distinct, numbers = reporting._columns(records, fields)
        expected, expected_numbers = columns_by_id(records, fields)
        assert numbers.tolist() == expected_numbers.tolist()
        assert list(map(len, distinct)) == list(map(len, expected))
        assert all(got is want for objects, wanted in zip(distinct, expected) for got, want in zip(objects, wanted))


class TestColumnsById:
    """_columns, which reads each identity from an object array, numbers the records' objects as id() does."""

    # layout_reports is defined further down, beside the rule it draws records for.
    @settings(max_examples=100, deadline=None)
    @given(report=st.deferred(lambda: layout_reports()))
    def test_drawn_records(self, report):
        assert_columns_by_id(report["records"])

    @pytest.mark.parametrize("name", list(WORKLOADS))
    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_workloads(self, name, mode):
        assert_columns_by_id(workload_report(name, mode=mode)["records"])

    def test_one_list_as_point_and_seed(self):
        records = [{**r, "seed": r["point"]} for r in real_report()["records"]]
        assert_columns_by_id(records)
        assert len(reporting._columns(records, ("point", "seed"))[0][1]) == 3

    def test_np_float64_and_small_int_leaves(self):
        # Small ints are cached, so equal indices made apart are one object; np.float64 scalars made apart are not.
        records = [{**r, "point_index": int(str(r["point_index"])), "seed_index": r["seed_index"] % 2,
                    **{field: np.float64(r[field]) for field in ("parallel_residual", "zero_residual")}}
                   for r in real_report()["records"]]
        assert_columns_by_id(records)
        distinct, _ = reporting._columns(records, ("point_index", "seed_index", "parallel_residual"))
        assert list(map(len, distinct)) == [3, 2, len(records)]

    @pytest.mark.parametrize("writer", list(COLUMN_FIELDS))
    def test_a_missing_field_raises_key_error(self, writer):
        # The writers' fallback trigger: a record without one of the fields.
        records = real_report()["records"]
        records[4] = {key: value for key, value in records[4].items() if key != "mu"}
        with pytest.raises(KeyError):
            reporting._columns(records, COLUMN_FIELDS[writer])


ROW_FIELDS = ["coeffs", "frame_residual", "nabla_q_residual", "parallel_residual", "symmetry_residuals"]


def with_row(records, point_index, row):
    """The records, with those of the point at ``point_index`` holding the ``row`` objects."""
    return [{**r, **row} if r["point_index"] == point_index else r for r in records]


class TestRowReuse:
    """Points share a row's text only when they share every one of its objects (run_verify's points with
    equal jets); their coordinates and index are spelled apart."""

    def test_points_with_other_coordinates_share_a_row(self, no_fallback):
        records = real_report()["records"]
        row = {field: records[0][field] for field in ROW_FIELDS}
        # Points 0 and 2 hold one row, with point 1's own row between them.
        records = with_row(records, 2, row)
        assert records[0]["point"] != records[6]["point"]
        assert_bytes({"records": records})

    @pytest.mark.parametrize("field", ROW_FIELDS)
    def test_each_row_field_alone_breaks_a_row(self, no_fallback, field):
        # Point 1 shares every row object with point 0 but this one, which holds another value.
        records = real_report()["records"]
        row = {f: records[0][f] if f != field else changed(records[0][f]) for f in ROW_FIELDS}
        assert_bytes({"records": with_row(records, 1, row)})

    def test_run_verify_shares_a_row_per_distinct_jet(self):
        # The control workload's 256 points hold 4 distinct jets; each (row, seed) shares its seed and pair objects.
        records = workload_report("control")["records"]
        rows = {tuple(id(r[f]) for f in ROW_FIELDS) for r in records}
        groups = {tuple(id(r[f]) for f in ["seed", "seed_index", *PAIR_FIELDS]) for r in records}
        assert (len(rows), len(groups)) == (4, 4 * 8)


float_cells = st.one_of(floats, floats.map(np.float64))
# run_verify's fields, with float or np.float64 leaves, which the record path takes.
layout_fields = {
    **{name: float_cells for name in ["parallel_residual", "nabla_q_residual", "frame_residual", "equality_residual",
                                      "zero_residual"]},
    "point_index": st.integers(0, 10**6), "seed_index": st.integers(0, 10**6),
    "point": st.lists(float_cells, min_size=4, max_size=4), "seed": st.lists(float_cells, min_size=4, max_size=4),
    "coeffs": st.fixed_dictionaries({"A": float_cells, "B": float_cells, "C": float_cells}),
    "mu": st.lists(float_cells, min_size=6, max_size=6),
    "identity_residuals": st.fixed_dictionaries(dict.fromkeys(IDENTITY_NAMES, float_cells)),
    "symmetry_residuals": st.fixed_dictionaries(dict.fromkeys(SYMMETRY_NAMES, float_cells)),
}


@st.composite
def layout_reports(draw):
    """1-4 records whose every field holds an object of a pool of 1-3 that the records share, or a copy of it,
    so that records share the same objects, equal copies or other values in every pattern."""
    pools = {name: draw(st.lists(field, min_size=1, max_size=3)) for name, field in layout_fields.items()}

    def pick(pool):
        value = draw(st.sampled_from(pool))
        return copy.copy(value) if draw(st.booleans()) else value

    return {"records": [{name: pick(pool) for name, pool in pools.items()} for _ in range(draw(st.integers(1, 4)))]}


class TestOneRule:
    """Both writers take the record path by one rule, int indices and float leaves of a type in _FLOATS, and
    hand every other report whole to json.dumps or csv.writer."""

    @settings(max_examples=100, deadline=None)
    @given(report=layout_reports())
    def test_both_writers_take_the_record_path(self, report):
        expected = json_oracle(report), csv_oracle(report)  # before csv.writer is made to raise
        with mock.patch.object(reporting, "_dumps", side_effect=AssertionError("report_json fell back")), \
                mock.patch.object(reporting.csv, "writer", side_effect=AssertionError("report_to_csv fell back")):
            assert (report_json(report), report_to_csv(report)) == expected

    @pytest.mark.parametrize("text", ["a,b", 'a"b', "x\ny"], ids=["comma", "quote", "newline"])
    @pytest.mark.parametrize("path", [("mu", 0), ("zero_residual",), ("coeffs", "A"), ("seed", 3), ("point_index",)],
                             ids=lambda path: ".".join(map(str, path)))
    def test_string_cells_are_written_as_csv_writer_does(self, path, text):
        records = real_report()["records"]
        records[1] = set_leaf(records[1], path, text)
        assert_bytes({"records": records})

    def test_np_float64_cells_take_the_record_path(self, monkeypatch):
        records = [{**r, **{field: np.float64(r[field]) for field in ("parallel_residual", "zero_residual")},
                    **{field: list(map(np.float64, r[field])) for field in ("point", "seed", "mu")}}
                   for r in workload_report("control")["records"]]
        report = {"records": records}
        assert {type(cell) for r in records for field, cells in CSV_FLOAT_CELLS.items()
                for cell in cells(r[field])} == {float, np.float64}
        TestOneSpellingPass.assert_one_call(monkeypatch, report, report_to_csv, csv_oracle, CSV_FLOAT_CELLS)

    @pytest.mark.parametrize("records", [[], ()], ids=["list", "tuple"])
    def test_empty_reports_go_whole(self, no_fallback, records):
        report = {"records": records, "config": {}}
        with pytest.raises(AssertionError, match="fell back"):
            report_json(report)
        assert report_to_csv(report) == csv_oracle(report)
