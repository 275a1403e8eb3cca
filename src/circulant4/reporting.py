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
CSV.  Both make one ``_columns`` pass over the records' fields to find
each field's distinct objects, by identity, and make one text for each of
those; ``_fill`` then writes the whole report with one ``str.join`` of
those texts in record order, with no per-record template.
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
from .algebra import _finite_qbase_polynomials
from .curvature import _BLOCK_PAIRS, IDENTITY_NAMES, SYMMETRY_NAMES, PointGeometry, random_qbase_seeds
from .fields import FieldFamilySpec, _chart_bounds, gradient_residual, make_family
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
        # g(x, x) <= lam |x|^2 for lam = A + 2B + C, g's largest eigenvalue, so lam |x|^2 bounds every orbit Gram
        # entry and its square every q-section denominator; the spectral seed takes 4 lam.
        a, b, c = _chart_bounds(self.family.family, self.family.params)[1].tolist()
        lam, norm_sq = a + 2.0 * b + c, float(np.max(np.sum(self.seeds**2, axis=1)))
        if not (math.isfinite(4.0 * lam) and math.isfinite((lam * norm_sq) * (lam * norm_sq))):
            raise ConfigError(
                f"family.params = {list(self.family.params)}: A + 2B + C reaches {lam} on the chart and |x|^2 "
                f"{norm_sq} over the seeds, so 4 (A + 2B + C) or ((A + 2B + C) |x|^2)^2 overflows a float "
                "(need both finite)")

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
        for i in np.flatnonzero(_finite_qbase_polynomials(vectors, "seeds[{}]", ConfigError) == 0.0)[:1]:
            raise ConfigError(f"seeds[{i}] = {vectors[i].tolist()} does not generate a q-base")
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
    are array operations over its distinct jets.  Points in one block whose
    jets are equal bit for bit form a row: their records share the row's
    point-level objects and, per seed, the mu list and residual objects,
    and the writers spell each of those once.  Records are in (point, seed)
    order.  The summary's maxima come from the block arrays, so a NaN
    residual makes its maximum NaN and fails its criterion.  It writes no
    file; ``circulant4 verify`` does.
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
        records += [{"point_index": pi, "seed_index": si, "point": point, "seed": seed, **bases[row], **pair}
                    for pi, point, row in zip(itertools.count(start), block.tolist(), geo.rows.tolist())
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

    Records with ``run_verify``'s fields and leaf types get one text per distinct object of each field from
    ``_record_texts``, and ``_fill`` joins those texts once, between the head and the tail of ``json.dumps``
    of the rest; a report with any other record goes through ``json.dumps`` whole.
    """
    records = report.get("records")
    if not (isinstance(records, (list, tuple)) and records):
        return _dumps(report)
    try:
        texts, numbers = _record_texts(records)
    except TypeError:  # a record that is not laid out as run_verify's
        return _dumps(report)
    outer = json.dumps({**report, "records": []}, sort_keys=True, indent=2)
    # Only the top-level key sits after a newline and exactly two spaces,
    # and JSON strings hold no raw newline, so this spot is unique.
    head, tail = outer.split('\n  "records": []', 1)
    return _fill(f'{head}\n  "records": [{_RECORD_INDENT}', _RECORD, _RECORD_SEPARATOR, texts, numbers,
                 f"\n  ]{tail}\n")


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
# run_verify's record with a slot for each leaf; the two indices are ints, every other leaf a float.
_SLOT = "\x00"
_INDICES = ("point_index", "seed_index")
_SKELETON = {
    "coeffs": dict.fromkeys("ABC", _SLOT), "symmetry_residuals": dict.fromkeys(sorted(SYMMETRY_NAMES), _SLOT),
    "identity_residuals": dict.fromkeys(sorted(IDENTITY_NAMES), _SLOT),
    "point": [_SLOT] * 4, "seed": [_SLOT] * 4, "mu": [_SLOT] * 6,
    **dict.fromkeys(["parallel_residual", "nabla_q_residual", "frame_residual", "frame_tolerance",
                     "equality_residual", "zero_residual", *_INDICES], _SLOT),
}
_FIELDS = tuple(sorted(_SKELETON))


def _template(like: Any, indent: str) -> str:
    """``like`` as json.dumps writes it with sorted keys and indent=2, each line break followed by ``indent``,
    with a "%s" per slot."""
    return json.dumps(like, sort_keys=True, indent=2).replace("\n", _RECORD_INDENT + indent).replace(
        json.dumps(_SLOT), "%s")


# A record's text at depth 2 of the report with a "%s" per field, and each field's with a "%s" per leaf, in
# sorted key order; a scalar field's template is "%s".
_RECORD = _template(dict.fromkeys(_FIELDS, _SLOT), "")
_FIELD_TEMPLATES = [_template(_SKELETON[field], "  ") for field in _FIELDS]


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


def _columns(records: Any, fields: Tuple[str, ...]) -> Tuple[List[List[Any]], np.ndarray]:
    """The one pass over the records' fields: each field's distinct objects, told apart by identity (equal
    copies count apart), and a (record, field) array of each record's number among them."""
    # The records hold the objects, so no two of them share an id.
    ids = np.fromiter(map(id, itertools.chain.from_iterable(map(operator.itemgetter(*fields), records))),
                      np.uint64, len(records) * len(fields)).reshape(-1, len(fields))
    distinct = []
    numbers = np.empty(ids.shape, dtype=np.intp)
    for j, (field, column) in enumerate(zip(fields, ids.T)):
        _, first, numbers[:, j] = np.unique(column, return_index=True, return_inverse=True)
        distinct.append(list(map(operator.itemgetter(field), map(records.__getitem__, first.tolist()))))
    return distinct, numbers


def _fill(head: str, template: str, separator: str, texts: List[List[str]], numbers: np.ndarray,
          tail: str) -> str:
    """``head``, then ``template`` once per record, joined by ``separator`` and filled with the text of its
    object in each field (``texts[j][numbers[i, j]]`` for record i), then ``tail``.

    One ``str.join`` writes it all: each text of field j gets the template's piece after slot j appended, and
    each text of the first field also the separator and the template's first piece as a prefix, which the
    first record drops.  Each field's texts with their pieces replace its entry of ``texts``, so that its
    plain texts are freed at once.
    """
    first, *pieces = template.split("%s")
    for j, piece in enumerate(pieces):
        texts[j] = list(map(operator.add, texts[j], itertools.repeat(piece)))
    texts[0] = list(map(operator.add, itertools.repeat(separator + first), texts[0]))
    offsets = np.cumsum([0, *map(len, texts[:-1])])
    args = np.array(list(itertools.chain.from_iterable(texts)), dtype=object)[numbers + offsets].ravel().tolist()
    if args:
        args[0] = args[0][len(separator):]
    args.insert(0, head)
    args.append(tail)
    return "".join(args)


def _leaves(values: List[Any], field: str) -> List[Any]:
    """The float leaves of a field's objects, one object after another, each laid out as in ``_SKELETON`` (a
    dict's in key order; an int index has none); else TypeError."""
    like = _SKELETON[field]
    if field in _INDICES:
        if all(type(value) is int for value in values):  # json.dumps spells a bool otherwise
            return []
    elif isinstance(like, dict):
        if all(isinstance(value, dict) and value.keys() == like.keys() for value in values):
            return list(itertools.chain.from_iterable(map(operator.itemgetter(*like), values)))
    elif isinstance(like, list):
        if all(isinstance(value, (list, tuple)) and len(value) == len(like) for value in values):
            return list(itertools.chain.from_iterable(values))
    else:
        return values
    raise TypeError(f"record field {field!r} is not laid out as run_verify's")


def _record_texts(records: Any) -> Tuple[List[List[str]], np.ndarray]:
    """Each field's distinct objects' texts as ``json.dumps(records, sort_keys=True, indent=2)`` writes them at
    depth 2 of the report, and ``_columns``' (record, field) numbers; TypeError unless every record has
    run_verify's keys, lengths, float leaves and int (not bool) indices.

    ``_columns`` finds each field's distinct objects.  Their float leaves are spelled in one call, once
    per distinct bit pattern, and each object's text is made once from its field's template: a scalar's
    is its spelled leaf and an index's its ``str``.
    """
    if not all(isinstance(record, dict) and record.keys() == _SKELETON.keys() for record in records):
        raise TypeError("record keys are not run_verify's")
    distinct, numbers = _columns(records, _FIELDS)
    leaves = list(map(_leaves, distinct, _FIELDS))
    if not set(map(type, itertools.chain.from_iterable(leaves))) <= _FLOATS:
        raise TypeError("a float leaf of a record is not a float")
    texts = _spell_distinct(leaves, _spell)
    for j, (field, template, values) in enumerate(zip(_FIELDS, _FIELD_TEMPLATES, distinct)):
        if field in _INDICES:
            texts[j] = list(map(str, values))
        elif template != "%s":  # else a scalar, whose text is its spelled leaf
            texts[j] = [template % leaf_texts for leaf_texts in zip(*[iter(texts[j])] * len(_SKELETON[field]))]
    return texts, numbers


_CSV_HEADER = ",".join([
    "point_index", "seed_index", *(f"point_{i}" for i in range(1, 5)), *(f"seed_{i}" for i in range(1, 5)),
    "A", "B", "C", "parallel_residual", "nabla_q_residual", "frame_residual", *(f"mu_{i}" for i in range(1, 7)),
    "equality_residual", "zero_residual", "max_identity_residual", "max_symmetry_residual"])
# The field of each group of CSV columns after the two indices, and that field's cells.
_CSV_CELLS: Dict[str, Callable[[Any], Any]] = {
    "point": list, "seed": list, "coeffs": operator.itemgetter("A", "B", "C"),
    **dict.fromkeys(["parallel_residual", "nabla_q_residual", "frame_residual"], lambda value: (value,)),
    "mu": list, **dict.fromkeys(["equality_residual", "zero_residual"], lambda value: (value,)),
    **dict.fromkeys(["identity_residuals", "symmetry_residuals"], lambda value: (max(value.values()),)),
}
_CSV_FIELDS = (*_INDICES, *_CSV_CELLS)
_CSV_LINE = ",".join(["%s"] * len(_CSV_FIELDS)) + "\r\n"


def _cell(value: Any) -> str:
    """A cell's text as csv.writer spells it: empty for None, else ``str``."""
    return "" if value is None else str(value)


def report_to_csv(report: Dict[str, Any]) -> str:
    """Flatten per-(point, seed) records to CSV, one row each.

    The text is what ``csv.writer`` (excel dialect) writes: every cell is a
    number, which it spells with ``str`` and never quotes, or None, which
    it writes as an empty cell, and each row ends in ``\\r\\n``.  The cells
    of each distinct object of each field that ``_columns`` finds are made
    once.  When every such cell but the indices is a ``float``, whose
    ``str`` is its repr, they are spelled in one call, once per distinct bit
    pattern; numpy's ``str`` of an ``np.float64`` is not assumed to agree.
    ``_fill`` joins the header and every row's cell texts in one ``str.join``.
    """
    distinct, numbers = _columns(report["records"], _CSV_FIELDS)
    cells = [[_CSV_CELLS[field](value) for value in values] for field, values in zip(_CSV_CELLS, distinct[2:])]
    items = list(itertools.chain.from_iterable(cells))
    floats = set(map(type, itertools.chain.from_iterable(items))) == {float}
    spelled = iter(_spell_distinct(items, _reprs) if floats else [list(map(_cell, item)) for item in items])
    texts = [list(map(_cell, values)) for values in distinct[:2]]
    texts += [[",".join(next(spelled)) for _ in field_cells] for field_cells in cells]
    return _fill(_CSV_HEADER + "\r\n", _CSV_LINE, "", texts, numbers, "")


WRITERS: Dict[str, Callable[[Dict[str, Any]], str]] = {"json": report_json, "csv": report_to_csv}
