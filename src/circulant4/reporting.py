"""Batch verification runs: config parsing, orchestration, report assembly.

A run evaluates one coefficient family over a set of chart points and a
set of q-base seed vectors and makes one record per (point, seed).  One
table, ``_LAYOUT``, lays a record out: each field's level (point, seed,
row of equal jets, or (row, seed) pair), its leaves, its CSV columns, and
the summary maximum and criterion it feeds.  ``run_verify`` builds the
records, the summary and the criteria from it, and the writers their text.

Reports are plain dicts; this module writes no file.  ``WRITERS`` maps each
output format to its writer: canonical JSON (sorted keys, fixed indentation,
so identical configs with identical RNG seeds give byte-identical text) or
CSV.  Both take the records by one rule, in ``_record_texts``, which finds
each field's distinct objects by identity and makes one text for each;
``_fill`` then writes the report with one ``str.join`` of those texts.  Any
other report goes whole to ``json.dumps`` or ``csv.writer``.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import json
import math
import operator
import re
import reprlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import orjson

from . import __version__
from .algebra import _first_degenerate, metric_eigenvalues
from .curvature import _BLOCK_PAIRS, IDENTITY_NAMES, SYMMETRY_NAMES, PointGeometry, random_qbase_seeds
from .fields import FieldFamilySpec, _chart_bounds, _phases, gradient_residual, make_family
from .frames import spectral_frame_residuals

__all__ = ["ConfigError", "RunConfig", "run_verify", "report_to_csv", "report_json"]

DEFAULT_TOLERANCES = {"frame_tol": 1e-12, "curvature_tol": 1e-9, "section_tol": 1e-6}
# Most chart points a grid may expand to; the product of grid.count is checked before any point is built.
_MAX_GRID_POINTS = 10**6
# Most seeds "random:N" may draw, and most (point, seed) records a run may make; both are checked before any
# seed is drawn.
_MAX_RANDOM_SEEDS, _MAX_RECORDS = 10**6, 10**7
# Each spelling of derivative_mode (in the config and in `curvature --mode`) and the mode it names.
_DERIVATIVE_MODES = {"analytic": "analytic", "finite_difference": "finite_difference", "fd": "finite_difference"}
_CONFIG_KEYS = ("family", "points", "grid", "seeds", "rng_seed", "tolerances", "derivative_mode", "output")


class ConfigError(ValueError):
    """Invalid run configuration; maps to CLI exit code 2."""


class RunConfig:
    """Validated batch-run configuration.

    JSON schema (see docs/config_schema.md): family {name, params},
    points (list of 4-coordinate lists) or grid {min, max, count}, seeds
    (list of 4-vectors or "random:N" with rng_seed), tolerances,
    derivative_mode, output {format, path}.
    """

    def __init__(self, raw: Dict[str, Any]):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(raw, _CONFIG_KEYS)
        self.raw = raw
        fam = raw.get("family")
        if not isinstance(fam, dict) or "name" not in fam or "params" not in fam:
            raise ConfigError("config field 'family' must be {\"name\": ..., \"params\": [...]}")
        _check_keys(fam, ("name", "params"), "family.")
        given_mode = raw.get("derivative_mode", "analytic")
        mode = _DERIVATIVE_MODES.get(given_mode) if isinstance(given_mode, str) else None
        if mode is None:
            raise ConfigError(f"derivative_mode must be 'analytic', 'finite_difference' or 'fd', got {given_mode!r}")
        params = _floats(fam["params"], "family.params")
        try:
            self.family: FieldFamilySpec = make_family(fam["name"], params, derivative_mode=mode)
        except ValueError as exc:
            raise ConfigError(f"family: {exc}") from exc

        self.points = self._parse_points(raw)
        _phases(self.family, self.points, ConfigError)
        self.rng_seed: Optional[int] = raw.get("rng_seed")
        # bool is an int subclass; np.random.default_rng takes neither floats nor negatives.
        if self.rng_seed is not None and not (type(self.rng_seed) is int and self.rng_seed >= 0):
            raise ConfigError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        self.seeds = self._parse_seeds(raw)
        # g(x, x) <= lam |x|^2 for lam, g's largest eigenvalue at the chart's upper corner, so lam |x|^2 bounds every
        # orbit Gram entry and its square every q-section denominator.  Python floats overflow to inf unwarned.
        upper = _chart_bounds(self.family.family, self.family.params)[1]
        lam, norm_sq = float(metric_eigenvalues(upper)[0]), float(np.max(np.sum(self.seeds**2, axis=1)))
        if not math.isfinite((lam * norm_sq) * (lam * norm_sq)):
            raise ConfigError(
                f"family.params = {list(self.family.params)}: A + 2B + C reaches {lam} on the chart and |x|^2 "
                f"{norm_sq} over the seeds, so ((A + 2B + C) |x|^2)^2 overflows a float (need it finite)")

        given = raw.get("tolerances", {})
        if not isinstance(given, dict):
            raise ConfigError("'tolerances' must be an object")
        _check_keys(given, tuple(DEFAULT_TOLERANCES), "tolerances.")
        for name, value in given.items():
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and 0 < value <= sys.float_info.max):
                raise ConfigError(f"tolerance 'tolerances.{name}' must be a positive finite number, got {value!r}")
        self.tolerances = {**DEFAULT_TOLERANCES, **given}

        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError(f"'output' must be an object {{\"format\": ..., \"path\": ...}}, got {out!r}")
        _check_keys(out, ("format", "path"), "output.")
        self.output_format = out.get("format", "json")
        if not (isinstance(self.output_format, str) and self.output_format in WRITERS):
            raise ConfigError(f"output.format must be {' or '.join(map(repr, WRITERS))}, got {self.output_format!r}")
        self.output_path = out.get("path")
        if not (self.output_path is None or isinstance(self.output_path, str) and self.output_path):
            raise ConfigError(f"output.path must be a non-empty file path string, got {self.output_path!r}")

    @staticmethod
    def _vectors(value: Any, field: str) -> np.ndarray:
        """``value``, a non-empty list of lists of 4 finite numbers (not strings, booleans or nulls), as an
        (N, 4) float array; else ConfigError."""
        message = f"'{field}' must be a non-empty list of lists of 4 numbers"
        if not (isinstance(value, (list, tuple)) and value):
            raise ConfigError(message)
        try:
            return np.array([_floats(row, f"{field}[{i}]", 4) for i, row in enumerate(value)])
        except ConfigError as exc:
            raise ConfigError(f"{message}: {exc}") from None

    @classmethod
    def _parse_points(cls, raw: Dict[str, Any]) -> np.ndarray:
        if "points" in raw and "grid" in raw:
            raise ConfigError("config has both 'points' and 'grid'; give exactly one")
        if "points" in raw:
            return cls._vectors(raw["points"], "points")
        if "grid" in raw:
            grid = raw["grid"]
            if not (isinstance(grid, dict) and {"min", "max", "count"} <= grid.keys()):
                raise ConfigError("'grid' needs per-axis 'min', 'max', 'count'")
            _check_keys(grid, ("min", "max", "count"), "grid.")
            try:
                lo, hi, _ = (_floats(grid[key], f"grid.{key}", 4) for key in ("min", "max", "count"))
                if not all(type(n) is int and n >= 1 for n in grid["count"]):
                    raise ConfigError(f"grid.count must hold integers >= 1, got {grid['count']!r}")
            except ConfigError as exc:
                raise ConfigError(f"'grid' needs per-axis 'min', 'max', 'count': {exc}") from None
            if math.prod(grid["count"]) > _MAX_GRID_POINTS:
                raise ConfigError(f"grid.count {grid['count']!r} makes more than {_MAX_GRID_POINTS} points")
            for i in (i for i in range(4) if not math.isfinite(hi[i] - lo[i])):  # else linspace makes NaN and inf
                raise ConfigError(f"grid axis {i} spans min {lo[i]} to max {hi[i]}, and max - min overflows a float "
                                  f"(need it finite)")
            axes = [np.linspace(lo[i], hi[i], n) for i, n in enumerate(grid["count"])]
            return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        raise ConfigError("config needs 'points' or 'grid'")

    def _parse_seeds(self, raw: Dict[str, Any]) -> np.ndarray:
        seeds = raw.get("seeds")
        if seeds is None:
            raise ConfigError("config needs 'seeds' (list of 4-vectors or \"random:N\")")
        if isinstance(seeds, str):
            count = re.fullmatch(r"random:0*([0-9]+)", seeds)
            # The digits are counted before int(), which refuses more than 4300 of them.
            if not (count and len(count[1]) <= len(str(_MAX_RANDOM_SEEDS))
                    and 1 <= int(count[1]) <= _MAX_RANDOM_SEEDS):
                raise ConfigError(
                    f"seeds: {reprlib.repr(seeds)} must be \"random:N\" with 1 <= N <= {_MAX_RANDOM_SEEDS}")
            if self.rng_seed is None:
                raise ConfigError("random seeds require an explicit 'rng_seed' for reproducibility")
            n = int(count[1])
        else:
            n = len(seeds) if isinstance(seeds, (list, tuple)) else 0
        if len(self.points) * n > _MAX_RECORDS:
            raise ConfigError(f"seeds: {n} seeds at {len(self.points)} points make more than {_MAX_RECORDS} records")
        if isinstance(seeds, str):
            return random_qbase_seeds(np.random.default_rng(self.rng_seed), n)
        vectors = self._vectors(seeds, "seeds")
        if broken := _first_degenerate(vectors, "seeds[{}]", ConfigError):
            raise ConfigError(f"seeds[{broken[0]}] = {vectors[broken[0]].tolist()} {broken[1]}")
        return vectors

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls(read_config(path))


def read_config(path: str) -> Any:
    """The JSON value in the config file at ``path``, unchecked; else ConfigError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer too long to convert, or nested too deep
        raise ConfigError(f"config {path} cannot be decoded: {exc}") from exc


def _floats(values: Any, field: str, size: Optional[int] = None) -> List[float]:
    """``values``, a list of finite JSON numbers (``size`` of them if given), as floats; else ConfigError
    naming ``field``.  Booleans and numeric strings are not numbers."""
    if (isinstance(values, (list, tuple)) and size in (None, len(values))
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
        try:
            floats = [float(v) for v in values]
        except OverflowError:  # an integer too large for a float
            floats = [np.inf]
        if np.all(np.isfinite(floats)):
            return floats
    raise ConfigError(f"{field} must be {size or 'a list of'} finite JSON numbers, got {reprlib.repr(values)}")


def _check_keys(section: Dict[str, Any], known: tuple, prefix: str = "") -> None:
    """Raise ConfigError naming the first key of a config section that is not ``known``."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key '{prefix}{key}' (known: {', '.join(known)})")


# Points per geometry block: at most 256, and at most _BLOCK_PAIRS (point, seed) pairs, or one point with all
# its seeds when there are more (seed_checks then projects them in chunks).  Equal jets share geometry within a
# block only, and a block's numpy calls are paid once.  For 2048 distinct random s_wave points in finite-
# difference mode with one seed, run_verify took 160 ms at 64 points and 130 ms at 256 (median CPU, 2-vCPU
# Xeon VM), at a tracemalloc peak of 6.4 and 9.2 MB; 512 took 131 ms at 13.1 MB.
_BLOCK_POINTS = 256


# The record layout, one field per entry, in CSV column order.  level names the records that share its object:
# those of a chart point, a seed, a row (the points of a geometry block whose jets are equal bit for bit) or a
# (row, seed) pair.  leaves is its layout: "index" (an int), "float", n (a list of n floats) or the names of a
# dict of floats.  csv holds its CSV columns: a dict's values by those names, or else its largest value.  summary
# is the summary maximum it feeds; criterion names the criterion that reads it, its tolerance key, and whether
# it needs nabla q = 0 (nabla_q_zero passes).  A criterion passes when its summary maximum is at most its tolerance.
_Field = collections.namedtuple("_Field", "name level leaves csv summary criterion", defaults=(None, None))
_LAYOUT = (
    _Field("point_index", "point", "index", ("point_index",)),
    _Field("seed_index", "seed", "index", ("seed_index",)),
    _Field("point", "point", 4, tuple(f"point_{i}" for i in range(1, 5))),
    _Field("seed", "seed", 4, tuple(f"seed_{i}" for i in range(1, 5))),
    _Field("coeffs", "row", ("A", "B", "C"), ("A", "B", "C")),
    _Field("parallel_residual", "row", "float", ("parallel_residual",), "max_parallel_residual"),
    _Field("nabla_q_residual", "row", "float", ("nabla_q_residual",), "max_nabla_q_residual",
           ("nabla_q_zero", "curvature_tol", False)),
    _Field("frame_residual", "row", "float", ("frame_residual",), "max_frame_residual",
           ("spectral_frame", "frame_tol", False)),
    _Field("mu", "pair", 6, tuple(f"mu_{i}" for i in range(1, 7))),
    _Field("equality_residual", "pair", "float", ("equality_residual",), "max_equality_residual",
           ("section_equalities", "section_tol", True)),
    _Field("zero_residual", "pair", "float", ("zero_residual",), "max_zero_residual",
           ("section_zeros", "section_tol", True)),
    _Field("identity_residuals", "pair", tuple(IDENTITY_NAMES), ("max_identity_residual",), "max_identity_residual",
           ("identity_suite", "section_tol", True)),
    _Field("symmetry_residuals", "row", tuple(SYMMETRY_NAMES), ("max_symmetry_residual",), "max_symmetry_residual",
           ("riemann_symmetries", "curvature_tol", False)),
)


def _shared(level: str, arrays: Dict[str, np.ndarray]) -> List[Dict[str, Any]]:
    """The level's fields of each of its shared objects, from one array per field that has an entry per object
    (a list or dict field's leaves in its last axis, a dict's in its names' order)."""
    columns = {}
    for field in (field for field in _LAYOUT if field.level == level):
        leaves, array = field.leaves, arrays[field.name]
        values = (array.ravel() if isinstance(leaves, str) else array.reshape(-1, array.shape[-1])).tolist()
        columns[field.name] = [dict(zip(leaves, v)) for v in values] if isinstance(leaves, tuple) else values
    return [dict(zip(columns, objects)) for objects in zip(*columns.values())]


def run_verify(config: RunConfig) -> Dict[str, Any]:
    """Run the full verification pipeline and assemble the report.

    Points are evaluated in blocks of up to ``_BLOCK_POINTS``: each point's
    jet is computed once, and the block's geometry and seed-level checks
    are array operations over its distinct jets.  Points in one block whose
    jets are equal bit for bit form a row.  Records share each field's
    object as its ``_LAYOUT`` level says, and the writers spell each object
    once.  Records are in (point, seed) order.  The summary's maxima come
    from the block arrays, and each criterion passes when its maximum is at
    most its tolerance, so a NaN residual makes its maximum NaN and fails
    its criterion.  It writes no file; ``circulant4 verify`` does.
    """
    # Made once, so that the records of one seed share its index object too.
    seeds = _shared("seed", {"seed_index": np.arange(len(config.seeds)), "seed": config.seeds})
    summarised = [field for field in _LAYOUT if field.summary]
    records, worst = [], []  # worst: each block's largest value per summary maximum
    size = max(1, min(_BLOCK_POINTS, _BLOCK_PAIRS // len(seeds)))
    for start in range(0, len(config.points), size):
        block = config.points[start:start + size]
        geo = PointGeometry.from_field(config.family, block)
        sections, identities = geo.seed_checks(config.seeds)
        arrays = {
            "coeffs": geo.coeffs, "parallel_residual": gradient_residual(geo.grads),
            "nabla_q_residual": geo.nabla_q_residual(), "frame_residual": spectral_frame_residuals(geo.coeffs),
            "mu": sections.mu, "equality_residual": sections.equality_residual,
            "zero_residual": sections.zero_residual, "identity_residuals": identities,
            "symmetry_residuals": geo.symmetry_residuals(),
        }
        worst.append([np.max(arrays[field.name]) for field in summarised])
        rows, n = _shared("row", arrays), len(seeds)
        pairs = [{**seed, **pair} for seed, pair in zip(itertools.cycle(seeds), _shared("pair", arrays))]
        for point, row in zip(_shared("point", {"point_index": np.arange(start, start + len(block)), "point": block}),
                              geo.rows.tolist()):
            base = {**point, **rows[row]}
            records += [{**base, **pair} for pair in pairs[row * n:(row + 1) * n]]

    maxima = dict(zip((field.summary for field in summarised), np.max(worst, axis=0).tolist()))
    judged = [(field.summary, *field.criterion) for field in _LAYOUT if field.criterion]
    # np.max keeps a NaN, and NaN <= tolerance is False.
    passed = {name: maxima[summary] <= config.tolerances[key] for summary, name, key, _ in judged}
    criteria = {name: ("pass" if passed[name] else "fail") if passed["nabla_q_zero"] or not needs_parallel
                else "not applicable (non-parallel)" for _, name, _, needs_parallel in judged}
    return {
        "tool": "circulant4",
        "version": __version__,
        "config": config.raw,
        "rng_seed": config.rng_seed,
        "records": records,
        "summary": {
            **maxima,
            "criteria": criteria,
            "status": "fail" if "fail" in criteria.values() else "pass",
        },
    }


def report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON, exactly ``json.dumps(report, sort_keys=True, indent=2) + "\n"``.

    A report that ``_record_texts`` takes gets one text per distinct object of each field from it, and
    ``_fill`` joins those texts once, between the head and the tail of ``json.dumps`` of the rest; any other
    report goes through ``json.dumps`` whole.
    """
    try:
        texts, numbers = _record_texts(report.get("records"), _SORTED, _FIELD_TEMPLATES, _NON_FINITE)
    except (TypeError, KeyError):  # records that the record path does not take
        return _dumps(report)
    outer = json.dumps({**report, "records": []}, sort_keys=True, indent=2)
    # Only the top-level key sits after a newline and exactly two spaces,
    # and JSON strings hold no raw newline, so this spot is unique.
    head, tail = outer.split('\n  "records": []', 1)
    return _fill(f'{head}\n  "records": [{_RECORD_INDENT}', _RECORD_SEPARATOR, texts, numbers, f"\n  ]{tail}\n")


def _dumps(report: Dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# Layout of the records list at nesting depth 2 under indent=2.
_RECORD_INDENT = "\n    "
_RECORD_SEPARATOR = "," + _RECORD_INDENT
# How json.encoder spells the floats whose repr is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The leaf types the writers spell with float.__repr__, as json.encoder and csv.writer (an np.float64's str is its
# repr) do; a float subclass may spell itself otherwise, and bool, int and None coerce silently into a float array.
_FLOATS = {float, np.float64}
# The record's fields in JSON's key order, and the slot the templates put in place of each leaf.
_SORTED = sorted(_LAYOUT, key=operator.attrgetter("name"))
_NAMES = tuple(field.name for field in _SORTED)
_SLOT = "\x00"


def _template(like: Any, indent: str) -> str:
    """``like`` as json.dumps writes it with sorted keys and indent=2, each line break followed by ``indent``,
    with a "%s" per slot."""
    return json.dumps(like, sort_keys=True, indent=2).replace("\n", _RECORD_INDENT + indent).replace(
        json.dumps(_SLOT), "%s")


def _carrying(record: str, separator: str, templates: List[str]) -> List[str]:
    """Each field's template followed by the text of the record template ``record`` after the field's slot, the
    first field's also preceded by ``separator`` and the record's text before its first slot."""
    first, *pieces = record.split("%s")
    return [separator + first + templates[0] + pieces[0], *map(operator.add, templates[1:], pieces[1:])]


# Each field's text at depth 2 of the report with a "%s" per leaf, in sorted key order, carrying the record's text.
_FIELD_TEMPLATES = _carrying(_template(dict.fromkeys(_NAMES, _SLOT), ""), _RECORD_SEPARATOR, [
    _template(_SLOT if isinstance(f.leaves, str) else dict.fromkeys(f.leaves, _SLOT)
              if isinstance(f.leaves, tuple) else [_SLOT] * f.leaves, "  ") for f in _SORTED])
# The CSV's fields in column order (a dict with one column, its largest value, laid out as "max"), its header, and
# each field's cells with a "%s" per leaf, carrying the row's text.
_CSV = [f._replace(leaves="max") if isinstance(f.leaves, tuple) and f.csv != f.leaves else f for f in _LAYOUT]
_CSV_COLUMNS = tuple(itertools.chain.from_iterable(field.csv for field in _CSV))
_CSV_TEMPLATES = _carrying(",".join(["%s"] * len(_CSV)) + "\r\n", "", [",".join(["%s"] * len(f.csv)) for f in _CSV])


def _reprs(values: np.ndarray, non_finite: Dict[str, str]) -> List[str]:
    """Each float's ``float.__repr__``, csv.writer's text, for a C-contiguous float64 array; a NaN's or inf's text
    is replaced by its entry in ``non_finite`` if it has one (json.dumps' spelling, with ``_NON_FINITE``)."""
    # orjson writes repr's shortest round-trip digits, and spells a float otherwise just where it is NaN or inf
    # (null), 1e-9 <= |x| < 1e-4 (1e-9 for repr's 1e-09, 0.0000162 for 1.62e-05) or |x| >= 1e16 (1e16 for 1e+16):
    # with orjson 3.8.3, every float of those bands and none outside them, over 400k random bit patterns and 253k
    # floats of every decade 1e-324 to 1e308, both signs.  So repr respells just those.  On all 15971 leaves of
    # seeds_heavy's distinct objects at rng_seed 101 (148 respelled; best of 300 interleaved calls, 2-vCPU VM)
    # one call takes 1.5-1.6 ms, against 12.8 ms for repr alone, of a 10.6-11.2 ms run_verify + report_json call.
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",") if values.size else []
    magnitudes = np.abs(values)
    respelled = np.flatnonzero(~((magnitudes < 1e-9) | ((magnitudes >= 1e-4) & (magnitudes < 1e16))))
    for i, value in zip(respelled.tolist(), values[respelled].tolist()):
        text = float.__repr__(value)
        texts[i] = non_finite.get(text, text)
    return texts


def _columns(records: Any, fields: Tuple[str, ...]) -> Tuple[List[List[Any]], np.ndarray]:
    """The one pass over the records' fields: each field's distinct objects, told apart by identity (equal
    copies count apart), and a (record, field) array of each record's number among them; else KeyError.

    An identity is read as the object's address, which CPython's ``id`` is and an object array holds: one
    ``tobytes`` reads them all, with no Python int per (record, field)."""
    # The array holds the objects, so no two of them share an address while it lives.
    objects = np.fromiter(itertools.chain.from_iterable(map(operator.itemgetter(*fields), records)), object,
                          len(records) * len(fields)).reshape(-1, len(fields))
    ids = np.frombuffer(objects.tobytes(), np.uintp).reshape(objects.shape)
    distinct = []
    numbers = np.empty(ids.shape, dtype=np.intp)
    for j, column in enumerate(ids.T):
        _, first, numbers[:, j] = np.unique(column, return_index=True, return_inverse=True)
        distinct.append(objects[first, j].tolist())
    return distinct, numbers


def _fill(head: str, separator: str, texts: List[List[str]], numbers: np.ndarray, tail: str) -> str:
    """``head``, then the text of each record i's object in each field j, ``texts[j][numbers[i, j]]``, then
    ``tail``, in one ``str.join``.  Each text carries the record text that follows its field, and the first
    field's texts start with the ``separator`` between records, which the first record drops."""
    offsets = np.cumsum([0, *map(len, texts[:-1])])
    args = np.array(list(itertools.chain.from_iterable(texts)), dtype=object)[numbers + offsets].ravel().tolist()
    args[0] = head + args[0][len(separator):]
    args.append(tail)
    return "".join(args)


def _leaves(values: List[Any], leaves: Any) -> List[Any]:
    """The float leaves of a field's objects, one object after another, each laid out as ``leaves`` says (a
    dict's in sorted key order, or for "max" its largest value; an index has none); else TypeError, or KeyError
    for a dict with other keys: a dict with as many keys as names, each found by its getter, has just those.
    Objects are taken by exact type, as the leaves are: a subclass may read its items otherwise than its getter
    does, as json.dumps and csv.writer do."""
    types = set(map(type, values))
    if leaves == "index":
        if types == {int}:  # json.dumps spells a bool, csv.writer quotes a string
            return []
    elif leaves == "float":
        return values
    elif types == {dict} and leaves == "max":
        return list(map(max, map(dict.values, values)))
    elif types == {dict} and isinstance(leaves, tuple):
        if set(map(len, values)) == {len(leaves)}:
            return list(itertools.chain.from_iterable(map(operator.itemgetter(*sorted(leaves)), values)))
    elif types <= {list, tuple} and set(map(len, values)) == {leaves}:
        return list(itertools.chain.from_iterable(values))
    raise TypeError("a record field is not laid out as run_verify's")


def _record_texts(records: Any, fields: List[_Field], templates: List[str],
                  non_finite: Dict[str, str]) -> Tuple[List[List[str]], np.ndarray]:
    """Both writers' one rule and record path: for a non-empty list or tuple of dicts, each of exact type, with
    as many keys as ``_LAYOUT`` has fields, ``fields`` among them, laid out as ``_leaves`` checks with float leaves
    of a type in ``_FLOATS``, each field's distinct objects' texts, each its field's template filled with its
    leaves' texts, and ``_columns``' numbers.  An index's one leaf text is its ``str``; the float leaves of all
    fields are spelled in one ``_reprs`` call, which spells a non-finite leaf by ``non_finite``.  Else TypeError
    or KeyError, and the writer hands the whole report to json.dumps or csv.writer."""
    if not (type(records) in (list, tuple) and records
            and set(map(type, records)) == {dict} and set(map(len, records)) == {len(_LAYOUT)}):
        raise TypeError("records are not run_verify's")
    distinct, numbers = _columns(records, tuple(field.name for field in fields))
    leaves = [_leaves(values, field.leaves) for field, values in zip(fields, distinct)]
    if not set(map(type, itertools.chain.from_iterable(leaves))) <= _FLOATS:
        raise TypeError("a float leaf of a record is not a float")
    ends = list(itertools.accumulate(map(len, leaves)))
    floats = np.fromiter(itertools.chain.from_iterable(leaves), np.float64, ends[-1])
    spelled = _reprs(floats, non_finite)
    texts = [list(map(str, values)) if field.leaves == "index" else spelled[start:end]
             for field, values, start, end in zip(fields, distinct, [0, *ends], ends)]
    return [[template % group for group in zip(*[iter(leaf_texts)] * template.count("%s"))]
            for template, leaf_texts in zip(templates, texts)], numbers


def _cells(field: _Field) -> Callable[[Any], Any]:
    """The function that gives a CSV field's cells from its object."""
    if field.leaves == "max":
        return lambda value: (max(value.values()),)
    if isinstance(field.leaves, str):
        return lambda value: (value,)
    return list if isinstance(field.leaves, int) else operator.itemgetter(*field.csv)


def report_to_csv(report: Dict[str, Any]) -> str:
    """Flatten per-(point, seed) records to CSV, one row each, in ``_LAYOUT``'s columns: exactly what
    ``csv.writer`` (excel dialect) writes, each row ending in ``\\r\\n``.

    A report that ``_record_texts`` takes has only int and float cells, which csv.writer spells with ``str``
    and never quotes, so ``_fill`` writes the header and the texts of each field's distinct objects with one
    ``str.join``; any other report goes to csv.writer whole, each row its fields' ``_cells``.
    """
    try:
        texts, numbers = _record_texts(report.get("records"), _CSV, _CSV_TEMPLATES, {})
    except (TypeError, KeyError):  # records that the record path does not take
        buffer, cells = io.StringIO(), [(field.name, _cells(field)) for field in _CSV]
        csv.writer(buffer).writerows(itertools.chain([_CSV_COLUMNS], (
            [cell for name, get in cells for cell in get(record[name])] for record in report["records"])))
        return buffer.getvalue()
    return _fill(",".join(_CSV_COLUMNS) + "\r\n", "", texts, numbers, "")


WRITERS: Dict[str, Callable[[Dict[str, Any]], str]] = {"json": report_json, "csv": report_to_csv}
