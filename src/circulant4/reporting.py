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

import csv
import io
import itertools
import json
from typing import Any, Dict, List, Optional

import numpy as np

from . import __version__
from .algebra import qbase_predicate
from .curvature import PointGeometry, point_geometry, random_qbase_seeds, symmetry_residuals
from .fields import FieldFamilySpec, make_family
from .frames import spectral_frame, verify_frame

__all__ = ["ConfigError", "RunConfig", "run_verify", "report_to_csv", "report_json"]

DEFAULT_TOLERANCES = {"frame_tol": 1e-12, "curvature_tol": 1e-9, "section_tol": 1e-6}


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
        self.raw = raw
        fam = raw.get("family")
        if not isinstance(fam, dict) or "name" not in fam or "params" not in fam:
            raise ConfigError("config field 'family' must be {\"name\": ..., \"params\": [...]}")
        mode = raw.get("derivative_mode", "analytic")
        if mode == "fd":
            mode = "finite_difference"
        try:
            self.family: FieldFamilySpec = make_family(fam["name"], fam["params"], derivative_mode=mode)
        except ValueError as exc:
            raise ConfigError(f"family: {exc}") from exc

        self.points = self._parse_points(raw)
        self.rng_seed: Optional[int] = raw.get("rng_seed")
        self.seeds = self._parse_seeds(raw)

        tol = dict(DEFAULT_TOLERANCES)
        tol.update(raw.get("tolerances", {}))
        for name, value in tol.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"tolerance {name!r} must be a positive number, got {value!r}")
        self.tolerances = tol

        out = raw.get("output", {})
        self.output_format = out.get("format", "json")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output.format must be 'json' or 'csv', got {self.output_format!r}")
        self.output_path = out.get("path")

    @staticmethod
    def _parse_points(raw: Dict[str, Any]) -> np.ndarray:
        if "points" in raw:
            pts = np.asarray(raw["points"], dtype=float)
            if pts.ndim != 2 or pts.shape[1] != 4:
                raise ConfigError("'points' must be a list of 4-coordinate lists")
            return pts
        if "grid" in raw:
            grid = raw["grid"]
            try:
                lo = [float(v) for v in grid["min"]]
                hi = [float(v) for v in grid["max"]]
                count = [int(v) for v in grid["count"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError("'grid' needs per-axis 'min', 'max', 'count'") from exc
            if not (len(lo) == len(hi) == len(count) == 4):
                raise ConfigError("'grid' min/max/count must each have 4 entries")
            if any(n < 1 for n in count):
                raise ConfigError("'grid' counts must be >= 1")
            axes = [np.linspace(lo[i], hi[i], count[i]) for i in range(4)]
            return np.array(list(itertools.product(*axes)))
        raise ConfigError("config needs 'points' or 'grid'")

    def _parse_seeds(self, raw: Dict[str, Any]) -> np.ndarray:
        seeds = raw.get("seeds")
        if seeds is None:
            raise ConfigError("config needs 'seeds' (list of 4-vectors or \"random:N\")")
        if isinstance(seeds, str):
            if not seeds.startswith("random:"):
                raise ConfigError(f"string 'seeds' must look like \"random:N\", got {seeds!r}")
            try:
                n = int(seeds.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"bad seed count in {seeds!r}") from exc
            if n < 1:
                raise ConfigError(f"seeds: {seeds!r} must draw at least one seed")
            if self.rng_seed is None:
                raise ConfigError("random seeds require an explicit 'rng_seed' for reproducibility")
            rng = np.random.default_rng(self.rng_seed)
            return random_qbase_seeds(rng, n)
        arr = np.asarray(seeds, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise ConfigError("'seeds' must be a list of 4-vectors")
        for i, seed in enumerate(arr):
            if not (np.all(np.isfinite(seed)) and qbase_predicate(seed)):
                raise ConfigError(f"seeds[{i}] = {seed.tolist()} is not finite or does not generate a q-base")
        return arr

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


def _point_record(geo: PointGeometry, frame_tol: float) -> Dict[str, Any]:
    c = geo.jet.value
    frame = spectral_frame(c)
    return {
        "coeffs": {"A": c.a, "B": c.b, "C": c.c},
        "parallel_residual": geo.jet.parallel_residual(),
        "nabla_q_residual": geo.nabla_q_residual(),
        "symmetry_residuals": symmetry_residuals(geo.r),
        "frame_residual": verify_frame(c, frame.seed).max_deviation,
        "frame_tolerance": frame_tol * (1.0 + c.a),
    }


def run_verify(config: RunConfig) -> Dict[str, Any]:
    """Run the full verification pipeline and assemble the report.

    Each point's geometry is computed once and shared by its point record
    and all of its seeds; records are assembled in deterministic order.  If
    an output path is configured the report is also written there.
    """
    tol = config.tolerances
    records: List[Dict[str, Any]] = []
    for pi, point in enumerate(config.points):
        geo = point_geometry(config.family, point)
        base = _point_record(geo, tol["frame_tol"])
        for si, seed in enumerate(config.seeds):
            sect, identities = geo.seed_checks(seed)
            records.append({
                "point_index": pi,
                "seed_index": si,
                "point": [float(v) for v in point],
                "seed": [float(v) for v in seed],
                **base,
                "mu": [float(m) for m in sect.mu],
                "equality_residual": sect.equality_residual,
                "zero_residual": sect.zero_residual,
                "identity_residuals": identities,
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
    """Canonical JSON serialization (byte-stable for identical runs)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: Dict[str, Any]) -> str:
    """Flatten per-(point, seed) records to CSV, one row each."""
    buf = io.StringIO()
    header = (
        ["point_index", "seed_index"]
        + [f"point_{i}" for i in range(1, 5)]
        + [f"seed_{i}" for i in range(1, 5)]
        + ["A", "B", "C", "parallel_residual", "nabla_q_residual", "frame_residual"]
        + [f"mu_{i}" for i in range(1, 7)]
        + ["equality_residual", "zero_residual", "max_identity_residual", "max_symmetry_residual"]
    )
    writer = csv.writer(buf)
    writer.writerow(header)
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
