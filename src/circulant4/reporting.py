"""Batch verification runs: config parsing, orchestration, report assembly.

A run evaluates one coefficient family over a set of chart points and a
set of q-base seed vectors and records, per (point, seed):

* parallelism residual and nabla-q residual (point level),
* Riemann symmetry residuals and spectral-frame Gram residual (point level),
* the six q-section curvatures, their equality/zero residuals, and the
  curvature identity suite (seed level).

Reports are plain dicts; this module writes no file.  ``WRITERS`` maps each
output format to its writer: canonical JSON (sorted keys, fixed indentation,
so identical configs with identical RNG seeds give byte-identical text) or
CSV.  Both make one ``_layout`` pass to find the points, seeds and pair
groups whose objects the records share, and spell each of those once.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
import reprlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .algebra import qbase_predicate
from .curvature import IDENTITY_NAMES, SYMMETRY_NAMES, PointGeometry, random_qbase_seeds
from .fields import FieldFamilySpec, gradient_residual, make_family
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
        self.rng_seed: Optional[int] = raw.get("rng_seed")
        # bool is an int subclass; np.random.default_rng takes neither floats nor negatives.
        if self.rng_seed is not None and not (type(self.rng_seed) is int and self.rng_seed >= 0):
            raise ConfigError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        self.seeds = self._parse_seeds(raw)

        given = raw.get("tolerances", {})
        if not isinstance(given, dict):
            raise ConfigError("'tolerances' must be an object")
        _check_keys(given, tuple(DEFAULT_TOLERANCES), "tolerances.")
        for name, value in given.items():
            if isinstance(value, bool) or not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"tolerance 'tolerances.{name}' must be a positive number, got {value!r}")
        self.tolerances = {**DEFAULT_TOLERANCES, **given}

        out = raw.get("output", {})
        if not isinstance(out, dict):
            raise ConfigError(f"'output' must be an object {{\"format\": ..., \"path\": ...}}, got {out!r}")
        _check_keys(out, ("format", "path"), "output.")
        self.output_format = out.get("format", "json")
        if not (isinstance(self.output_format, str) and self.output_format in WRITERS):
            raise ConfigError(f"output.format must be {' or '.join(map(repr, WRITERS))}, got {self.output_format!r}")
        self.output_path = out.get("path")
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ConfigError(f"output.path must be a file path string, got {self.output_path!r}")

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
            axes = [np.linspace(lo[i], hi[i], n) for i, n in enumerate(grid["count"])]
            return np.array(list(itertools.product(*axes)))
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
        for i, seed in enumerate(vectors):
            if not qbase_predicate(seed):
                raise ConfigError(f"seeds[{i}] = {seed.tolist()} does not generate a q-base")
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


# Points per geometry block: at most 256, and at most 4096 (point, seed) pairs, so the orbit projections
# of a block (about 1 kB per pair) stay within a few MB however many seeds a config draws.  Equal jets
# share geometry within a block only, and a block's numpy calls are paid once.  For 2048 distinct random
# s_wave points in finite-difference mode with one seed, run_verify took 160 ms at 64 points and 130 ms at
# 256 (median CPU, 2-vCPU Xeon VM), at a tracemalloc peak of 6.4 and 9.2 MB; 512 took 131 ms at 13.1 MB.
_BLOCK_POINTS, _BLOCK_PAIRS = 256, 4096


def _point_records(geo: PointGeometry, frame_tol: float) -> Tuple[List[Dict[str, Any]], List[float], bool]:
    """Point-level record fields for each row of a geometry block; the rows' largest parallel, nabla-q,
    symmetry and frame residuals; and whether every frame residual is within its tolerance."""
    residuals = (gradient_residual(geo.grads), geo.nabla_q_residual(), geo.symmetry_residuals(),
                 spectral_frame_residuals(geo.coeffs))
    frame_tols = frame_tol * (1.0 + geo.coeffs[:, 0])
    rows = zip(geo.coeffs.tolist(), *(r.tolist() for r in residuals), frame_tols.tolist())
    return [{
        "coeffs": {"A": a, "B": b, "C": c},
        "parallel_residual": parallel,
        "nabla_q_residual": nabla_q,
        "symmetry_residuals": dict(zip(SYMMETRY_NAMES, symmetry)),
        "frame_residual": frame,
        "frame_tolerance": frame_tolerance,
    } for (a, b, c), parallel, nabla_q, symmetry, frame, frame_tolerance in rows
    ], list(map(np.max, residuals)), bool(np.all(residuals[3] <= frame_tols))


def run_verify(config: RunConfig) -> Dict[str, Any]:
    """Run the full verification pipeline and assemble the report.

    Points are evaluated in blocks of up to ``_BLOCK_POINTS``: each point's
    jet is computed once, and the block's geometry and seed-level checks
    are array operations over its distinct jets.  Records of points in one
    block whose jets are equal bit for bit share their point-level objects
    and, per seed, the mu list and residual objects, which the writers
    spell once.  Records are in (point, seed) order.  The summary's maxima
    come from the block arrays, so a NaN residual makes its maximum NaN
    and fails its criterion.  It writes no file; ``circulant4 verify`` does.
    """
    tol = config.tolerances
    seeds = list(enumerate(config.seeds.tolist()))  # the records of one seed share its index object too
    records: List[Dict[str, Any]] = []
    worst: List[List[float]] = []  # each block's largest residual per summary maximum
    frame_ok = True
    size = max(1, min(_BLOCK_POINTS, _BLOCK_PAIRS // len(seeds)))
    for start in range(0, len(config.points), size):
        block = config.points[start:start + size]
        geo = PointGeometry.from_field(config.family, block)
        sections, identities = geo.seed_checks(config.seeds)
        bases, point_worst, block_frame_ok = _point_records(geo, tol["frame_tol"])
        frame_ok = frame_ok and block_frame_ok
        pair_arrays = (sections.mu, sections.equality_residual, sections.zero_residual, identities)
        worst.append([*point_worst, *map(np.max, pair_arrays[1:])])
        pairs = [[{"mu": mu, "equality_residual": equality, "zero_residual": zero,
                   "identity_residuals": dict(zip(IDENTITY_NAMES, identity))}
                  for mu, equality, zero, identity in zip(*row)] for row in zip(*(a.tolist() for a in pair_arrays))]
        for pi, point, row in zip(itertools.count(start), block.tolist(), geo.rows.tolist()):
            base = bases[row]
            records += [{"point_index": pi, "seed_index": si, "point": point, "seed": seed, **base, **pair}
                        for (si, seed), pair in zip(seeds, pairs[row])]

    (max_parallel, max_nabla_q, max_symmetry, max_frame,
     max_equality, max_zero, max_identity) = np.max(worst, axis=0).tolist()

    parallel_ok = max_nabla_q <= tol["curvature_tol"]
    na = "not applicable (non-parallel)"
    criteria = {
        "riemann_symmetries": "pass" if max_symmetry <= tol["curvature_tol"] else "fail",
        "spectral_frame": "pass" if frame_ok else "fail",
        "nabla_q_zero": "pass" if parallel_ok else "fail",
        "section_equalities": ("pass" if max_equality <= tol["section_tol"] else "fail") if parallel_ok else na,
        "section_zeros": ("pass" if max_zero <= tol["section_tol"] else "fail") if parallel_ok else na,
        "identity_suite": ("pass" if max_identity <= tol["section_tol"] else "fail") if parallel_ok else na,
    }
    status = "fail" if any(v == "fail" for v in criteria.values()) else "pass"

    return {
        "tool": "circulant4",
        "version": __version__,
        "config": config.raw,
        "rng_seed": config.rng_seed,
        "records": records,
        "summary": {
            "max_parallel_residual": max_parallel,
            "max_nabla_q_residual": max_nabla_q,
            "max_symmetry_residual": max_symmetry,
            "max_frame_residual": max_frame,
            "max_equality_residual": max_equality,
            "max_zero_residual": max_zero,
            "max_identity_residual": max_identity,
            "criteria": criteria,
            "status": status,
        },
    }


def report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON, exactly ``json.dumps(report, sort_keys=True, indent=2) + "\n"``.

    Records laid out as ``run_verify``'s fill ``_RECORD`` from their ``_layout`` (``_fill_records``),
    around ``json.dumps`` of the rest; a report with any other record goes through ``json.dumps`` whole.
    """
    records = report.get("records")
    if not (isinstance(records, (list, tuple)) and records):
        return _dumps(report)
    try:
        body = _fill_records(records)
    except TypeError:  # a record that is not laid out as run_verify's
        return _dumps(report)
    outer = json.dumps({**report, "records": []}, sort_keys=True, indent=2)
    # Only the top-level key sits after a newline and exactly two spaces,
    # and JSON strings hold no raw newline, so this spot is unique.
    head, tail = outer.split('\n  "records": []', 1)
    return f'{head}\n  "records": [{_RECORD_INDENT}{body}\n  ]{tail}\n'


def _dumps(report: Dict[str, Any]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# Layout of the records list at nesting depth 2 under indent=2.
_RECORD_INDENT = "\n    "
_RECORD_SEPARATOR = "," + _RECORD_INDENT
# How json.encoder spells the floats whose repr is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# The leaf types the writers spell with float.__repr__, as json.encoder does; a float subclass may spell
# itself otherwise, and bool, int and None coerce silently into a float array.
_FLOATS = {float, np.float64}
# run_verify's record with a slot for each float or int leaf, dict keys sorted; the slots of the seed and
# the seed index, and those of the identity residuals and mu, are marked apart.
_SLOT, _SEED_SLOT, _PAIR_SLOT = "\x00", "\x01", "\x02"
_SKELETON = {
    "coeffs": dict.fromkeys("ABC", _SLOT), "symmetry_residuals": dict.fromkeys(sorted(SYMMETRY_NAMES), _SLOT),
    "identity_residuals": dict.fromkeys(sorted(IDENTITY_NAMES), _PAIR_SLOT),
    "point": [_SLOT] * 4, "seed": [_SEED_SLOT] * 4, "seed_index": _SEED_SLOT, "mu": [_PAIR_SLOT] * 6,
    **dict.fromkeys(["point_index", "parallel_residual", "nabla_q_residual", "frame_residual",
                     "frame_tolerance", "equality_residual", "zero_residual"], _SLOT),
}


def _templates() -> tuple:
    """``_RECORD``, the skeleton at depth 2 of the report with a "%s" per slot, where the text from the
    seed's first slot to the seed index's is one "%s", and so is the text from the first identity
    residual's slot to mu's last; and ``_SEED`` and ``_PAIR``, those two texts with a "%s" per slot."""
    text = json.dumps(_SKELETON, sort_keys=True, indent=2).replace("\n", _RECORD_INDENT)
    slot, *marks = map(json.dumps, (_SLOT, _SEED_SLOT, _PAIR_SLOT))
    spans = []
    for mark in marks:
        before, _, rest = text.partition(mark)
        span, _, after = rest.rpartition(mark)
        text = before + slot + after
        spans.append((mark + span + mark).replace(mark, "%s"))
    return (text.replace(slot, "%s"), *spans)


# In sorted key order, a record's slots are the coefficients, the equality residual, the frame residual and
# tolerance, the identity residuals with mu, the other point floats, the point index, the seed with its
# index, the symmetry residuals and the zero residual.
_RECORD, _SEED, _PAIR = _templates()
# A record's fields that run_verify shares between the records of a point, and between those of a pair
# group (points with equal jets, one seed), in sorted key order.
_POINT_FIELDS = operator.itemgetter("coeffs", "frame_residual", "frame_tolerance", "nabla_q_residual",
                                    "parallel_residual", "point", "point_index", "symmetry_residuals")
_PAIR_FIELDS = operator.itemgetter("equality_residual", "identity_residuals", "mu", "zero_residual")


def _reprs(values: Any) -> List[str]:
    """Each float's ``float.__repr__``: its text in csv.writer's cells, and in JSON's if finite."""
    return list(map(float.__repr__, values))


def _spell(values: List[float]) -> List[str]:
    """Each float's text as json.encoder writes it."""
    texts = _reprs(values)
    if not _NON_FINITE.keys().isdisjoint(texts):
        texts = [_NON_FINITE.get(text, text) for text in texts]
    return texts


def _spell_distinct(items: List[Any], spell: Callable[[List[float]], List[str]]) -> List[List[str]]:
    """Each item's floats as spelled by one ``spell`` call on the distinct float64 bit patterns of them all.

    Bit patterns, not values: 0.0 == -0.0 while their texts differ, and a NaN equals nothing.
    """
    values = np.array(list(itertools.chain.from_iterable(items)), dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(spell(bits.view(np.float64).tolist()), dtype=object)[inverse].tolist()
    ends = list(itertools.accumulate(map(len, items)))
    return [texts[start:end] for start, end in zip([0, *ends], ends)]


def _fill(separator: str, templates: List[str], record_points: List[int], columns: List[tuple]) -> str:
    """Each record's point template, joined by ``separator``, filled with its text in each (texts, numbers) column."""
    args: List[Any] = [None] * (len(columns) * len(record_points))
    for j, (texts, numbers) in enumerate(columns):
        args[j::len(columns)] = map(texts.__getitem__, numbers)
    return separator.join(map(templates.__getitem__, record_points)) % tuple(args)


# A dict field's leaves in key order.
_DICT_LEAVES = {field: operator.itemgetter(*like) for field, like in _SKELETON.items() if isinstance(like, dict)}


def _leaves(value: Any, field: str) -> Any:
    """The leaves of a record field laid out as in ``_SKELETON`` (a dict's in key order); else TypeError."""
    like = _SKELETON[field]
    if isinstance(like, dict) and isinstance(value, dict) and value.keys() == like.keys():
        return _DICT_LEAVES[field](value)
    if isinstance(like, list) and isinstance(value, (list, tuple)) and len(value) == len(like):
        return value
    raise TypeError(f"record field {field!r} is not laid out as run_verify's")


def _layout(records: Any, point_fields: Callable[[Any], tuple]) -> tuple:
    """How the records share objects, in one pass: their distinct points, seeds and pair groups, and three
    flat lists of each record's number in each.

    A point is the ``point_fields`` objects of a run of consecutive records; a seed the (seed, seed_index)
    objects and a pair group the ``_PAIR_FIELDS`` objects, wherever they recur.  Equal copies count apart.
    """
    points: List[tuple] = []
    # Object ids -> (number, the objects); holding the objects keeps their ids unique.
    seeds: Dict[tuple, tuple] = {}
    groups: Dict[tuple, tuple] = {}
    record_points: List[int] = []
    record_seeds: List[int] = []
    record_groups: List[int] = []
    for record in records:
        fields = point_fields(record)
        if not (points and all(map(operator.is_, fields, points[-1]))):
            points.append(fields)
        seed, index, pair = record["seed"], record["seed_index"], _PAIR_FIELDS(record)
        record_points.append(len(points) - 1)
        record_seeds.append(seeds.setdefault((id(seed), id(index)), (len(seeds), seed, index))[0])
        record_groups.append(groups.setdefault(tuple(map(id, pair)), (len(groups), pair))[0])
    return (points, [seed[1:] for seed in seeds.values()], [pair for _, pair in groups.values()],
            record_points, record_seeds, record_groups)


def _fill_records(records: Any) -> str:
    """The records' text as ``json.dumps(records, sort_keys=True, indent=2)`` writes their items at
    depth 2 of the report, joined by ``_RECORD_SEPARATOR``; TypeError unless every record has
    run_verify's keys, lengths, float leaves and int (not bool) indices.

    The float leaves of the distinct points, seeds and pair groups of the records' ``_layout`` are
    spelled in one call, once per distinct bit pattern, into a copy of ``_RECORD`` per point, ``_SEED``
    per seed and ``_PAIR`` per group.  One ``%`` then fills every record's template with four texts: its
    group's equality residual, ``_PAIR`` and zero residual, and its seed's.
    """
    if not all(isinstance(record, dict) and record.keys() == _SKELETON.keys() for record in records):
        raise TypeError("record keys are not run_verify's")
    points, seeds, groups, record_points, record_seeds, record_groups = _layout(records, _POINT_FIELDS)
    leaves = [(*_leaves(coeffs, "coeffs"), frame, frame_tol, nabla_q, parallel, *_leaves(coords, "point"),
               *_leaves(symmetry, "symmetry_residuals"))
              for coeffs, frame, frame_tol, nabla_q, parallel, coords, _, symmetry in points]
    leaves += [_leaves(seed, "seed") for seed, _ in seeds]
    leaves += [(equality, *_leaves(identity, "identity_residuals"), *_leaves(mu, "mu"), zero)
               for equality, identity, mu, zero in groups]
    indices = [point[6] for point in points] + [index for _, index in seeds]
    if not (set(map(type, itertools.chain.from_iterable(leaves))) <= _FLOATS and set(map(type, indices)) <= {int}):
        raise TypeError("a float leaf or an index of a record is not a float or an int")
    texts, n = _spell_distinct(leaves, _spell), len(points)
    templates = [_RECORD % (*t[:3], "%s", *t[3:5], "%s", *t[5:11], index, "%s", *t[11:], "%s")
                 for t, index in zip(texts[:n], indices)]
    seed_texts = [_SEED % (*t, index) for t, index in zip(texts[n:], indices[n:])]
    pairs = texts[n + len(seeds):]
    return _fill(_RECORD_SEPARATOR, templates, record_points, [
        ([t[0] for t in pairs], record_groups), ([_PAIR % tuple(t[1:-1]) for t in pairs], record_groups),
        (seed_texts, record_seeds), ([t[-1] for t in pairs], record_groups)])


_CSV_HEADER = ",".join([
    "point_index", "seed_index", *(f"point_{i}" for i in range(1, 5)), *(f"seed_{i}" for i in range(1, 5)),
    "A", "B", "C", "parallel_residual", "nabla_q_residual", "frame_residual", *(f"mu_{i}" for i in range(1, 7)),
    "equality_residual", "zero_residual", "max_identity_residual", "max_symmetry_residual"])
# The fields of a row's point-level cells.
_CSV_POINT_FIELDS = operator.itemgetter("coeffs", "frame_residual", "nabla_q_residual", "parallel_residual", "point",
                                        "point_index", "symmetry_residuals")


def _cell(value: Any) -> str:
    """A cell's text as csv.writer spells it: empty for None, else ``str``."""
    return "" if value is None else str(value)


def _cells(values: Any) -> str:
    """The values as csv.writer spells cells that need no quotes, each after a comma."""
    return "".join(["," + text for text in map(_cell, values)])


def report_to_csv(report: Dict[str, Any]) -> str:
    """Flatten per-(point, seed) records to CSV, one row each.

    The text is what ``csv.writer`` (excel dialect) writes: every cell is a
    number, which it spells with ``str`` and never quotes, or None, which
    it writes as an empty cell, and each row ends in ``\\r\\n``.  The point,
    seed and pair cells (mu, the equality and zero residuals, the largest
    identity residual) are made once per distinct point, seed and pair
    group of the records' ``_layout``.  When every pair cell is a
    ``float``, whose ``str`` is its repr, they are spelled once per
    distinct bit pattern; numpy's own ``str`` of an ``np.float64`` is not
    assumed to agree.
    """
    points, seeds, groups, record_points, record_seeds, record_groups = _layout(report["records"], _CSV_POINT_FIELDS)
    # A "%s" for the seed index, the seed's cells and the pair's; a number's text holds no "%".
    templates = ["%s,%%s%s%%s%s,%%s,%s\r\n" % (_cell(index), _cells(coords), _cells(
        [coeffs["A"], coeffs["B"], coeffs["C"], parallel, nabla_q, frame]), _cell(max(symmetry.values())))
        for coeffs, frame, nabla_q, parallel, coords, index, symmetry in points]
    # Each group's cells in column order; mu's length may differ between groups.
    pairs = [(*mu, equality, zero, max(identity.values())) for equality, identity, mu, zero in groups]
    floats = set(map(type, itertools.chain.from_iterable(pairs))) == {float}
    texts = _spell_distinct(pairs, _reprs) if floats else [list(map(_cell, pair)) for pair in pairs]
    return _CSV_HEADER + "\r\n" + _fill("", templates, record_points, [
        ([_cell(index) for _, index in seeds], record_seeds), ([_cells(seed) for seed, _ in seeds], record_seeds),
        (list(map(",".join, texts)), record_groups)])


WRITERS: Dict[str, Callable[[Dict[str, Any]], str]] = {"json": report_json, "csv": report_to_csv}
