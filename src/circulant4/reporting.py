"""Batch verification runs: config parsing, orchestration, report assembly.

A run evaluates one coefficient family over a set of chart points and a
set of q-base seed vectors and records, per (point, seed):

* parallelism residual and nabla-q residual (point level),
* Riemann symmetry residuals and spectral-frame Gram residual (point level),
* the six q-section curvatures, their equality/zero residuals, and the
  curvature identity suite (seed level).

Reports are plain dicts, serialized as canonical JSON (sorted keys, fixed
indentation) so identical configs with identical RNG seeds produce
byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from . import __version__
from .algebra import qbase_predicate
from .curvature import IDENTITY_NAMES, SYMMETRY_NAMES, PointGeometry, random_qbase_seeds
from .fields import FieldFamilySpec, eval_jet, gradient_residual, make_family
from .frames import spectral_frame_residuals

__all__ = ["ConfigError", "RunConfig", "run_verify", "report_to_csv", "report_json"]

DEFAULT_TOLERANCES = {"frame_tol": 1e-12, "curvature_tol": 1e-9, "section_tol": 1e-6}
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
        mode = "finite_difference" if given_mode == "fd" else given_mode
        if mode not in ("analytic", "finite_difference"):
            raise ConfigError(f"derivative_mode must be 'analytic', 'finite_difference' or 'fd', got {given_mode!r}")
        try:
            self.family: FieldFamilySpec = make_family(fam["name"], fam["params"], derivative_mode=mode)
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
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output.format must be 'json' or 'csv', got {self.output_format!r}")
        self.output_path = out.get("path")
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ConfigError(f"output.path must be a file path string, got {self.output_path!r}")

    @staticmethod
    def check_point(point: np.ndarray, field: str) -> None:
        """Raise ConfigError naming ``field`` unless every coordinate of the chart point is finite."""
        if not np.all(np.isfinite(point)):
            raise ConfigError(f"{field} = {point.tolist()} is not finite")

    @staticmethod
    def check_seed(seed: np.ndarray, field: str) -> None:
        """Raise ConfigError naming ``field`` unless the seed is finite and generates a q-base."""
        if not (np.all(np.isfinite(seed)) and qbase_predicate(seed)):
            raise ConfigError(f"{field} = {seed.tolist()} is not finite or does not generate a q-base")

    @staticmethod
    def _vectors(value: Any, field: str, check_row) -> np.ndarray:
        """``value``, a non-empty list of lists of 4 numbers (not strings, booleans or nulls), as an
        (N, 4) float array whose row ``i`` passes ``check_row(row, "field[i]")``; else ConfigError."""
        rows = np.asarray(value, dtype=object)  # a ragged list stays a 1-D array of lists
        if not (rows.ndim == 2 and rows.shape[1] == 4 and rows.size
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in rows.flat)):
            raise ConfigError(f"'{field}' must be a non-empty list of lists of 4 numbers")
        arr = rows.astype(float)
        for i, row in enumerate(arr):
            check_row(row, f"{field}[{i}]")
        return arr

    @classmethod
    def _parse_points(cls, raw: Dict[str, Any]) -> np.ndarray:
        if "points" in raw and "grid" in raw:
            raise ConfigError("config has both 'points' and 'grid'; give exactly one")
        if "points" in raw:
            return cls._vectors(raw["points"], "points", cls.check_point)
        if "grid" in raw:
            grid = raw["grid"]
            try:
                lo = [float(v) for v in grid["min"]]
                hi = [float(v) for v in grid["max"]]
                count = [int(v) for v in grid["count"]]
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError("'grid' needs per-axis 'min', 'max', 'count'") from exc
            if not (len(lo) == len(hi) == len(count) == 4 and min(count) >= 1):
                raise ConfigError("'grid' min/max/count must each have 4 entries, and each count must be >= 1")
            for key, bounds in (("min", lo), ("max", hi)):
                if not np.all(np.isfinite(bounds)):
                    raise ConfigError(f"grid.{key} = {bounds} is not finite")
            axes = [np.linspace(lo[i], hi[i], count[i]) for i in range(4)]
            return np.array(list(itertools.product(*axes)))
        raise ConfigError("config needs 'points' or 'grid'")

    def _parse_seeds(self, raw: Dict[str, Any]) -> np.ndarray:
        seeds = raw.get("seeds")
        if seeds is None:
            raise ConfigError("config needs 'seeds' (list of 4-vectors or \"random:N\")")
        if isinstance(seeds, str):
            count = re.fullmatch(r"random:([0-9]+)", seeds)
            if not (count and int(count[1]) >= 1):
                raise ConfigError(f"seeds: {seeds!r} must be \"random:N\" with N >= 1")
            if self.rng_seed is None:
                raise ConfigError("random seeds require an explicit 'rng_seed' for reproducibility")
            rng = np.random.default_rng(self.rng_seed)
            return random_qbase_seeds(rng, int(count[1]))
        return self._vectors(seeds, "seeds", self.check_seed)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
        return cls(raw)


def _check_keys(section: Dict[str, Any], known: tuple, prefix: str = "") -> None:
    """Raise ConfigError naming the first key of a config section that is not ``known``."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key '{prefix}{key}' (known: {', '.join(known)})")


# Points per geometry block: at most 64, and at most 4096 (point, seed)
# pairs, so the orbit projections of a block (about 1 kB per pair) stay
# within a few MB however many seeds a config draws, with few numpy calls.
_BLOCK_POINTS, _BLOCK_PAIRS = 64, 4096


def _point_records(geo: PointGeometry, frame_tol: float) -> List[Dict[str, Any]]:
    """Point-level record fields for each point of a geometry block."""
    rows = zip(geo.coeffs.tolist(), gradient_residual(geo.grads).tolist(), geo.nabla_q_residual().tolist(),
               geo.symmetry_residuals().tolist(), spectral_frame_residuals(geo.coeffs).tolist())
    return [{
        "coeffs": {"A": a, "B": b, "C": c},
        "parallel_residual": parallel,
        "nabla_q_residual": nabla_q,
        "symmetry_residuals": dict(zip(SYMMETRY_NAMES, symmetry)),
        "frame_residual": frame,
        "frame_tolerance": frame_tol * (1.0 + a),
    } for (a, b, c), parallel, nabla_q, symmetry, frame in rows]


def run_verify(config: RunConfig) -> Dict[str, Any]:
    """Run the full verification pipeline and assemble the report.

    Points are evaluated in blocks: each point's jet is computed once, and
    the block's connection, curvature and all seed-level checks are array
    operations shared by its point records and all of their seeds.  Records
    are assembled in deterministic (point, seed) order.  If an output path
    is configured the report is also written there.
    """
    tol = config.tolerances
    seeds = config.seeds.tolist()
    records: List[Dict[str, Any]] = []
    size = max(1, min(_BLOCK_POINTS, _BLOCK_PAIRS // len(seeds)))
    for start in range(0, len(config.points), size):
        block = config.points[start:start + size]
        geo = PointGeometry.from_jets([eval_jet(config.family, p) for p in block])
        sections, identities = geo.seed_checks(config.seeds)
        per_point = zip(block.tolist(), _point_records(geo, tol["frame_tol"]), sections.mu.tolist(),
                        sections.equality_residual.tolist(), sections.zero_residual.tolist(), identities.tolist())
        for pi, (point, base, mu, equality, zero, identity) in enumerate(per_point, start):
            for si, seed in enumerate(seeds):
                records.append({
                    "point_index": pi,
                    "seed_index": si,
                    "point": point,
                    "seed": seed,
                    **base,
                    "mu": mu[si],
                    "equality_residual": equality[si],
                    "zero_residual": zero[si],
                    "identity_residuals": dict(zip(IDENTITY_NAMES, identity[si])),
                })

    max_parallel = max(r["parallel_residual"] for r in records)
    max_nabla_q = max(r["nabla_q_residual"] for r in records)
    max_symmetry = max(max(r["symmetry_residuals"].values()) for r in records)
    max_frame = max(r["frame_residual"] for r in records)
    frame_ok = all(r["frame_residual"] <= r["frame_tolerance"] for r in records)
    max_equality = max(r["equality_residual"] for r in records)
    max_zero = max(r["zero_residual"] for r in records)
    max_identity = max(max(r["identity_residuals"].values()) for r in records)

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

    report = {
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
    if config.output_path:
        if config.output_format == "json":
            with open(config.output_path, "w", encoding="utf-8") as fh:
                fh.write(report_json(report))
        else:
            with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(report_to_csv(report))
    return report


def report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON serialization (byte-stable for identical runs).

    The text is exactly ``json.dumps(report, sort_keys=True, indent=2) + "\n"``.
    The report around ``records`` goes through ``json.dumps``; each record
    fills a template that ``json.dumps`` lays out once per key shape (see
    ``_record_texts``), which avoids the stdlib's pure-Python encoder that
    ``indent`` forces on every leaf.
    """
    records = report.get("records")
    if not (isinstance(records, (list, tuple)) and records):
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    outer = json.dumps({**report, "records": []}, sort_keys=True, indent=2)
    body = _RECORD_SEPARATOR.join(_record_texts(records))
    # Only the top-level key sits after a newline and exactly two spaces,
    # and JSON strings hold no raw newline, so this spot is unique.
    head, tail = outer.split('\n  "records": []', 1)
    return f'{head}\n  "records": [{_RECORD_INDENT}{body}\n  ]{tail}\n'


# Layout of the records list at nesting depth 2 under indent=2.
_RECORD_INDENT = "\n    "
_RECORD_SEPARATOR = "," + _RECORD_INDENT
# How json.encoder spells the floats whose repr is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# A leaf of a template's skeleton; json.dumps writes it as "\u0000".
_SLOT = "\x00"
_SLOT_TEXT = json.dumps(_SLOT)


def _leaf_text(value: Any) -> str:
    """The text json.encoder writes for a number, bool or None leaf, with a
    non-finite float still spelled as its repr; TypeError for other leaves."""
    if isinstance(value, float):  # np.float64 too: json.encoder uses float.__repr__
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"not a number, bool or None: {type(value).__name__}")


def _flatten(value: Any, texts: List[str]) -> Any:
    """Key shape of a JSON value.  Appends the text of each of its leaves to
    ``texts`` in the order ``json.dumps(sort_keys=True)`` writes them."""
    if isinstance(value, dict):
        keys = tuple(sorted(value))
        return dict, keys, _flatten_each([value[k] for k in keys], texts)
    if isinstance(value, (list, tuple)):
        return list, _flatten_each(value, texts)
    texts.append(_leaf_text(value))
    return None


def _flatten_each(values: Any, texts: List[str]) -> tuple:
    """Shapes of a container's items; see ``_flatten``."""
    try:
        # The common case, all floats, in one pass: float.__repr__ raises
        # TypeError on anything else, before ``texts`` is extended.
        texts.extend(list(map(float.__repr__, values)))
        return (None,) * len(values)
    except TypeError:
        return tuple([_flatten(v, texts) for v in values])


def _skeleton(shape: Any) -> Any:
    """A value of the given key shape whose every leaf is ``_SLOT``.

    Raises TypeError on a key that is not a ``str``: shapes compare keys by
    value, and 1, 1.0 and True are equal keys that json.dumps spells
    differently.
    """
    if shape is None:
        return _SLOT
    if shape[0] is not dict:
        return list(map(_skeleton, shape[1]))
    if not all(type(key) is str for key in shape[1]):
        raise TypeError("a key that is not a str")
    return dict(zip(shape[1], map(_skeleton, shape[2])))


def _record_texts(records: Any) -> Iterator[str]:
    """Each record's text as ``json.dumps(record, sort_keys=True, indent=2)``
    writes it at depth 2 of the report, filled into one template per key shape."""
    templates: Dict[Any, Optional[str]] = {}
    for record in records:
        texts: List[str] = []
        try:
            shape = _flatten(record, texts)
        except TypeError:  # a leaf that is not a number, bool or None, or keys that do not sort
            yield _dumps_at_depth_2(record)
            continue
        if shape not in templates:
            templates[shape] = _template(shape, len(texts))
        template = templates[shape]
        if template is None:
            yield _dumps_at_depth_2(record)
            continue
        if not _NON_FINITE.keys().isdisjoint(texts):
            texts = [_NON_FINITE.get(text, text) for text in texts]
        yield template % tuple(texts)


def _template(shape: Any, leaves: int) -> Optional[str]:
    """The layout of a record of this shape with a ``%s`` per leaf, or None
    where keys that are not strings, or that hold the slot's text, make it
    ambiguous."""
    try:
        text = _dumps_at_depth_2(_skeleton(shape))
    except TypeError:
        return None
    if text.count(_SLOT_TEXT) != leaves:
        return None
    return text.replace("%", "%%").replace(_SLOT_TEXT, "%s")


def _dumps_at_depth_2(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", _RECORD_INDENT)


_CSV_HEADER = ",".join(
    ["point_index", "seed_index"]
    + [f"point_{i}" for i in range(1, 5)]
    + [f"seed_{i}" for i in range(1, 5)]
    + ["A", "B", "C", "parallel_residual", "nabla_q_residual", "frame_residual"]
    + [f"mu_{i}" for i in range(1, 7)]
    + ["equality_residual", "zero_residual", "max_identity_residual", "max_symmetry_residual"]
)


def report_to_csv(report: Dict[str, Any]) -> str:
    """Flatten per-(point, seed) records to CSV, one row each.

    The text is what ``csv.writer`` (excel dialect) writes: every cell is a
    number, which it spells with ``str`` and never quotes, and each row
    ends in ``\\r\\n``.
    """
    lines = [_CSV_HEADER]
    for r in report["records"]:
        coeffs = r["coeffs"]
        lines.append(",".join(map(str, [
            r["point_index"], r["seed_index"], *r["point"], *r["seed"],
            coeffs["A"], coeffs["B"], coeffs["C"],
            r["parallel_residual"], r["nabla_q_residual"], r["frame_residual"], *r["mu"],
            r["equality_residual"], r["zero_residual"],
            max(r["identity_residuals"].values()), max(r["symmetry_residuals"].values()),
        ])))
    lines.append("")
    return "\r\n".join(lines)
