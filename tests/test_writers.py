"""Report writers: a point's and a seed's text is reused only for the very same objects.

Every case is checked against the stdlib oracles of tests/test_serialise.py.
Records laid out as run_verify makes them must take the writer's own path,
so those cases also run with the json.dumps fallback made to raise.
"""

import copy
import math
import struct

import numpy as np
import pytest
from test_serialise import csv_oracle, json_oracle

from circulant4 import RunConfig, reporting, run_verify
from circulant4.reporting import report_json, report_to_csv

POINT_FIELDS = ["coeffs", "frame_residual", "frame_tolerance", "nabla_q_residual",
                "parallel_residual", "point", "point_index", "symmetry_residuals"]


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


SLOTS = [("coeffs", "B"), ("frame_residual",), ("frame_tolerance",), ("point", 2),
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

    def test_array_is_not_json(self):
        records = real_report()["records"]
        records[1] = {**records[1], "mu": np.array(records[1]["mu"])}
        report = {"records": records}
        with pytest.raises(TypeError):
            json_oracle(report)
        with pytest.raises(TypeError):
            report_json(report)
        assert report_to_csv(report) == csv_oracle(report)


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
    """Pair floats are spelled once per distinct bit pattern; the bytes stay the stdlib's."""

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


class TestSpelledOnce:
    """Each distinct bit pattern among the pair floats is spelled once per report."""

    def spelled(self, monkeypatch, write, report):
        count = [0]

        def reprs(values):
            values = list(values)
            count[0] += len(values)
            return list(map(float.__repr__, values))

        monkeypatch.setattr(reporting, "_reprs", reprs)
        write(report)
        return count[0]

    @staticmethod
    def distinct(values):
        return len({struct.pack("<d", value) for value in values})

    def test_json(self, monkeypatch, no_fallback):
        records = real_report()["records"]
        pairs = [value for record in records for value in (
            record["equality_residual"], *(record["identity_residuals"][k] for k in sorted(record["identity_residuals"])),
            *record["mu"], record["zero_residual"])]
        assert self.distinct(pairs) < len(pairs)  # else this report cannot tell
        # A point's leaves once per run of records holding its objects, a seed's once per (seed, index).
        runs = 1 + sum(a["coeffs"] is not b["coeffs"] for a, b in zip(records, records[1:]))
        point_leaves = 11 + len(records[0]["symmetry_residuals"])
        seed_leaves = 4 * len({(id(r["seed"]), r["seed_index"]) for r in records})
        spelled = self.spelled(monkeypatch, report_json, {"records": records})
        assert spelled <= self.distinct(pairs) + runs * point_leaves + seed_leaves


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


def csv_float_cells(record):
    """A record's CSV cells that hold floats: every cell but the two indices."""
    return [*record["point"], *record["seed"], *(record["coeffs"][k] for k in "ABC"), record["parallel_residual"],
            record["nabla_q_residual"], record["frame_residual"], *record["mu"], record["equality_residual"],
            record["zero_residual"], max(record["identity_residuals"].values()),
            max(record["symmetry_residuals"].values())]


def float_leaves(value):
    """Every float leaf of a nested record value."""
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in float_leaves(v)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in float_leaves(v)]
    return [value] if isinstance(value, float) else []


class TestOneSpellingPass:
    """Each writer spells all float leaves (report_json) or float cells (report_to_csv) of the records in
    one call, with exactly their distinct bit patterns."""

    @staticmethod
    def spell_calls(monkeypatch, report, write=report_json, oracle=json_oracle):
        """The sorted bit patterns of the values of each _reprs call the writer makes."""
        calls = []

        def reprs(values):
            values = list(values)
            calls.append(sorted(map(bit_pattern, values)))
            return list(map(float.__repr__, values))

        monkeypatch.setattr(reporting, "_reprs", reprs)
        assert write(report) == oracle(report)
        return calls

    @staticmethod
    def distinct(records, floats=float_leaves):
        """The sorted distinct bit patterns of the records' floats."""
        return sorted({bit_pattern(value) for record in records for value in floats(record)})

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_workload_is_spelled_in_one_call(self, monkeypatch, no_fallback, name):
        report = workload_report(name)
        records = report["records"]
        assert len(self.distinct(records)) < sum(len(float_leaves(r)) for r in records)  # else this cannot tell
        assert self.spell_calls(monkeypatch, report) == [self.distinct(records)]

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_csv_workload_is_spelled_in_one_call(self, monkeypatch, name):
        report = workload_report(name)
        records = report["records"]
        distinct = self.distinct(records, csv_float_cells)
        assert len(distinct) < sum(len(csv_float_cells(r)) for r in records)  # else this cannot tell
        assert self.spell_calls(monkeypatch, report, report_to_csv, csv_oracle) == [distinct]

    def test_signed_zero_coordinates(self, monkeypatch, no_fallback):
        report = run_verify(RunConfig({
            "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
            "points": [[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            "seeds": "random:2", "rng_seed": 5,
        }))
        signs = [[math.copysign(1.0, x) for x in r["point"]] for r in report["records"][::2]]
        assert signs == [[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0], [1.0] * 4]
        assert self.spell_calls(monkeypatch, report) == [self.distinct(report["records"])]

    @pytest.mark.parametrize("field", ["parallel_residual", "nabla_q_residual", "frame_residual"])
    def test_nan_point_residual(self, monkeypatch, no_fallback, field):
        records = real_report()["records"]
        # The three records of the second point keep sharing their point objects, with one residual NaN.
        nan_point = {**records[3], field: math.nan}
        records[3:6] = [{**r, **{k: nan_point[k] for k in POINT_FIELDS}} for r in records[3:6]]
        report = {"records": records}
        assert "NaN" in report_json(report)
        assert self.spell_calls(monkeypatch, report) == [self.distinct(records)]


PAIR_FIELDS = ["equality_residual", "identity_residuals", "mu", "zero_residual"]


class TestPairGroupReuse:
    @pytest.mark.parametrize("field", PAIR_FIELDS)
    def test_each_pair_field_alone_breaks_a_group(self, no_fallback, field):
        # Record 1 shares every pair-level object with record 0 but this one.
        records = real_report()["records"]
        records[1] = {**records[1], **{f: records[0][f] for f in PAIR_FIELDS if f != field}}
        assert_bytes({"records": records})


JSON_FIELDS = ["coeffs", "equality_residual", "frame_residual", "frame_tolerance", "identity_residuals", "mu",
               "nabla_q_residual", "parallel_residual", "point", "point_index", "seed", "seed_index",
               "symmetry_residuals", "zero_residual"]
CSV_FIELDS = [field for field in JSON_FIELDS if field != "frame_tolerance"]  # the CSV has no tolerance column


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
        for write, oracle, fields in ((report_json, json_oracle, JSON_FIELDS), (report_to_csv, csv_oracle, CSV_FIELDS)):
            calls.append([])
            assert write(report) == oracle(report)
            assert calls[-1] == [{field: len({id(r[field]) for r in records}) for field in fields}]
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


ROW_FIELDS = ["coeffs", "frame_residual", "frame_tolerance", "nabla_q_residual", "parallel_residual",
              "symmetry_residuals"]


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
