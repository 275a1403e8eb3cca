"""Command-line interface.

Subcommands:

* ``inspect``    metric matrix, eigenvalues, determinant, admissibility of
  a coefficient triple.
* ``qbase``      independence predicate for a seed plus both orthonormal
  frame constructions (spectral and closed-form audit).
* ``pyramid``    the tetrahedron report for (coeffs, seed).
* ``curvature``  per-point connection/curvature residuals and q-section
  curvatures for a configured family, regrouped from the verify records.
* ``verify``     the full batch pipeline from a JSON config.

Exit codes: 0 pass, 1 verification failure, 2 config error.
Set CML_LOG=debug|info for diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .algebra import (
    CirculantCoeffs,
    det_qorbit,
    is_admissible,
    metric_det_closed,
    metric_eigenvalues,
    metric_matrix,
    qbase_polynomial,
    qbase_predicate,
)
from .frames import closed_form_frame, spectral_frame, verify_frame
from .pyramid import pyramid_report
from .reporting import ConfigError, RunConfig, report_json, report_to_csv, run_verify

log = logging.getLogger("circulant4")


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(
        os.environ.get("CML_LOG", "").lower(), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_tuple(text: str, n: int, what: str) -> List[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _coeffs(args) -> CirculantCoeffs:
    if args.coeffs is None:
        raise ConfigError("--coeffs A,B,C is required")
    return CirculantCoeffs(*_parse_tuple(args.coeffs, 3, "--coeffs"))


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_inspect(args) -> int:
    c = _coeffs(args)
    _emit({
        "coeffs": {"A": c.a, "B": c.b, "C": c.c},
        "metric": metric_matrix(c).tolist(),
        "eigenvalues": metric_eigenvalues(c).tolist(),
        "det_closed_form": metric_det_closed(c),
        "admissible": is_admissible(c),
    }, args.out)
    return 0


def _cmd_qbase(args) -> int:
    c = _coeffs(args)
    payload: dict = {"coeffs": {"A": c.a, "B": c.b, "C": c.c}}
    if args.seed_vector:
        seed = _parse_tuple(args.seed_vector, 4, "--seed-vector")
        payload["seed"] = {
            "vector": seed,
            "independence_polynomial": qbase_polynomial(seed),
            "orbit_determinant": det_qorbit(seed),
            "is_qbase": qbase_predicate(seed),
        }
    if not is_admissible(c):
        payload["frames"] = "not available: coefficients violate 0 < B < C < A"
        _emit(payload, args.out)
        return 1
    frame = spectral_frame(c)
    residual = verify_frame(c, frame.seed)
    audit = closed_form_frame(c)
    payload["spectral_frame"] = {
        "seed": frame.seed.tolist(),
        "gram": residual.gram.tolist(),
        "max_deviation": residual.max_deviation,
    }
    payload["closed_form_frame"] = {
        "x2": audit.x2,
        "sum_x1_x3": audit.sum_x1_x3,
        "prod_x1_x3": audit.prod_x1_x3,
        "discriminant": audit.discriminant,
        "candidate": None if audit.candidate is None else audit.candidate.tolist(),
        "max_deviation": None if audit.residual is None else audit.residual.max_deviation,
        "status": audit.status,
    }
    _emit(payload, args.out)
    return 0


def _cmd_pyramid(args) -> int:
    c = _coeffs(args)
    if args.seed_vector is None:
        raise ConfigError("--seed-vector v1,v2,v3,v4 is required")
    seed = _parse_tuple(args.seed_vector, 4, "--seed-vector")
    rep = pyramid_report(c, seed)
    _emit({"coeffs": {"A": c.a, "B": c.b, "C": c.c}, "seed": seed, **dataclasses.asdict(rep)}, args.out)
    return 0


# Record keys that `curvature` prints per point and per seed section.
_CURVATURE_POINT_KEYS = ("point", "parallel_residual", "nabla_q_residual", "symmetry_residuals")
_CURVATURE_SECTION_KEYS = ("seed", "mu", "equality_residual", "zero_residual")


def _cmd_curvature(args) -> int:
    """Point-level residuals and q-sections, regrouped from the verify records."""
    if args.config is None:
        raise ConfigError("--config PATH is required (supplies the coefficient family)")
    config = RunConfig.from_file(args.config)
    if args.mode:
        mode = "finite_difference" if args.mode == "fd" else args.mode
        config.family = dataclasses.replace(config.family, derivative_mode=mode)
    if args.point:
        config.points = np.array([_parse_tuple(args.point, 4, "--point")])
    if args.seed_vector:
        config.seeds = np.array([_parse_tuple(args.seed_vector, 4, "--seed-vector")])
    config.output_path = None  # the regrouping below is the output, not the verify report
    points = []
    for rec in run_verify(config)["records"]:
        if rec["seed_index"] == 0:
            points.append({k: rec[k] for k in _CURVATURE_POINT_KEYS})
            points[-1]["sections"] = []
        points[-1]["sections"].append({k: rec[k] for k in _CURVATURE_SECTION_KEYS})
    family = config.family
    _emit({"family": {"name": family.family, "params": list(family.params)}, "points": points}, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.config is None:
        raise ConfigError("--config PATH is required")
    config = RunConfig.from_file(args.config)
    if args.out:
        config.output_path = args.out
    if args.format:
        config.output_format = args.format
    report = run_verify(config)
    if not config.output_path:
        if config.output_format == "csv":
            sys.stdout.write(report_to_csv(report))
        else:
            sys.stdout.write(report_json(report))
    status = report["summary"]["status"]
    log.info("verification status: %s", status)
    return 0 if status == "pass" else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant4",
        description="Verify the geometry of 4D Riemannian manifolds with circulant metric and shift affinor.",
    )
    parser.add_argument("--version", action="version", version=f"circulant4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--coeffs", help="metric generators A,B,C")
    common.add_argument("--point", help="chart point x1,x2,x3,x4")
    common.add_argument("--seed-vector", dest="seed_vector", help="seed vector v1,v2,v3,v4")
    common.add_argument("--mode", choices=["analytic", "fd"], help="derivative mode override")
    common.add_argument("--format", choices=["json", "csv"], help="report format")
    common.add_argument("--out", help="output file path (default: stdout)")
    sub.add_parser("inspect", parents=[common], help="metric matrix, spectrum, admissibility")
    sub.add_parser("qbase", parents=[common], help="independence predicate and orthonormal frames")
    sub.add_parser("pyramid", parents=[common], help="tetrahedron edge/angle report")
    sub.add_parser("curvature", parents=[common], help="per-point curvature and q-sections")
    sub.add_parser("verify", parents=[common], help="full batch verification from a config")
    return parser


_COMMANDS = {
    "inspect": _cmd_inspect,
    "qbase": _cmd_qbase,
    "pyramid": _cmd_pyramid,
    "curvature": _cmd_curvature,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
