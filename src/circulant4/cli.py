"""Command-line interface.

Subcommands:

* ``inspect``    metric matrix, eigenvalues, determinant, admissibility of
  a coefficient triple.
* ``qbase``      independence predicate for a seed plus both orthonormal
  frame constructions (spectral and closed-form audit).
* ``pyramid``    the tetrahedron report for (coeffs, seed).
* ``curvature``  per-point connection/curvature residuals and q-section
  curvatures for a configured family, regrouped from the verify records;
  ``--mode``/``--point``/``--seed-vector`` edit the config before its one parse.
* ``verify``     the full batch pipeline from a JSON config.

Exit codes: 0 pass, 1 verification failure, 2 config error (a non-finite
number flag too) or an output file that cannot be written.  Output goes to
``--out`` (``verify``: else the config's ``output.path``) or stdout, opened
before any point is evaluated.
Set CML_LOG=info (or debug) for verify's status line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
from typing import ContextManager, List, Optional, TextIO

import numpy as np

from . import __version__
from .algebra import (
    CirculantCoeffs,
    _finite_qbase_polynomials,
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
from .reporting import _DERIVATIVE_MODES, WRITERS, ConfigError, RunConfig, read_config, run_verify

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
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{what} = {values} is not finite")
    return values


def _seed(args) -> List[float]:
    """``--seed-vector``, refused unless its q-orbit's independence polynomial is a finite float."""
    seed = _parse_tuple(args.seed_vector, 4, "--seed-vector")
    _finite_qbase_polynomials(np.array([seed]), "--seed-vector", ConfigError)
    return seed


def _coeffs(args) -> CirculantCoeffs:
    if args.coeffs is None:
        raise ConfigError("--coeffs A,B,C is required")
    return CirculantCoeffs(*_parse_tuple(args.coeffs, 3, "--coeffs"))


def _output(path: Optional[str]) -> ContextManager[TextIO]:
    """Where all output goes: the file at ``path`` (opened "w", UTF-8, newline="") or, without a path, stdout."""
    return open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout)


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(_json(payload))


def _cmd_inspect(args) -> int:
    c = _coeffs(args)
    try:
        det = metric_det_closed(c)
    except OverflowError:  # float ** raises where + and * give inf
        det = math.inf
    eigenvalues = metric_eigenvalues(c).tolist()
    for name, values in (("eigenvalues", eigenvalues), ("det_closed_form", [det])):
        if not all(map(math.isfinite, values)):
            raise ValueError(f"--coeffs {list(c)}: a float overflows in {name}")
    _emit({
        "coeffs": {"A": c.a, "B": c.b, "C": c.c},
        "metric": metric_matrix(c).tolist(),
        "eigenvalues": eigenvalues,
        "det_closed_form": det,
        "admissible": is_admissible(c),
    }, args.out)
    return 0


def _cmd_qbase(args) -> int:
    c = _coeffs(args)
    payload: dict = {"coeffs": {"A": c.a, "B": c.b, "C": c.c}}
    if args.seed_vector:
        seed = _seed(args)
        payload["seed"] = {
            "vector": seed,
            "independence_polynomial": qbase_polynomial(seed),
            "orbit_determinant": det_qorbit(seed),
            "is_qbase": qbase_predicate(seed),
        }
    try:
        frame = spectral_frame(c)
    except ValueError as exc:  # c breaks the admissibility rule, and the text says where; or a float overflows
        if is_admissible(c):
            raise
        payload["frames"] = f"not available: {exc}"
        _emit(payload, args.out)
        return 1
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
    seed = _seed(args)
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
    raw = read_config(args.config)
    if isinstance(raw, dict):  # the flags edit the config before its one parse; else RunConfig names the root
        if args.mode:
            raw["derivative_mode"] = args.mode
        if args.point:
            raw.pop("grid", None)
            raw["points"] = [_parse_tuple(args.point, 4, "--point")]
        if args.seed_vector:
            raw["seeds"] = [_parse_tuple(args.seed_vector, 4, "--seed-vector")]
    config = RunConfig(raw)
    with _output(args.out) as out:  # the regrouping is the output; the config's output.path is not read
        points = []
        for rec in run_verify(config)["records"]:
            if rec["seed_index"] == 0:
                points.append({k: rec[k] for k in _CURVATURE_POINT_KEYS})
                points[-1]["sections"] = []
            points[-1]["sections"].append({k: rec[k] for k in _CURVATURE_SECTION_KEYS})
        family = config.family
        out.write(_json({"family": {"name": family.family, "params": list(family.params)}, "points": points}))
    return 0


def _cmd_verify(args) -> int:
    if args.config is None:
        raise ConfigError("--config PATH is required")
    config = RunConfig.from_file(args.config)
    with _output(args.out or config.output_path) as out:
        report = run_verify(config)
        out.write(WRITERS[args.format or config.output_format](report))
    status = report["summary"]["status"]
    log.info("verification status: %s", status)
    return 0 if status == "pass" else 1


# A subcommand takes only the flags its handler reads; any other flag is an argparse error (exit 2).
_FLAGS = {
    "config": {"help": "JSON run configuration"},
    "coeffs": {"help": "metric generators A,B,C"},
    "point": {"help": "chart point x1,x2,x3,x4"},
    "seed-vector": {"help": "seed vector v1,v2,v3,v4"},
    "mode": {"choices": list(_DERIVATIVE_MODES), "help": "derivative mode override"},
    "format": {"choices": list(WRITERS), "help": "report format"},
    "out": {"help": "output file path (default: stdout)"},
}

_COMMANDS = {
    "inspect": (_cmd_inspect, "metric matrix, spectrum, admissibility", ("coeffs", "out")),
    "qbase": (_cmd_qbase, "independence predicate and orthonormal frames", ("coeffs", "seed-vector", "out")),
    "pyramid": (_cmd_pyramid, "tetrahedron edge/angle report", ("coeffs", "seed-vector", "out")),
    "curvature": (_cmd_curvature, "per-point curvature and q-sections",
                  ("config", "point", "seed-vector", "mode", "out")),
    "verify": (_cmd_verify, "full batch verification from a config", ("config", "format", "out")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circulant4",
        description="Verify the geometry of 4D Riemannian manifolds with circulant metric and shift affinor.",
    )
    parser.add_argument("--version", action="version", version=f"circulant4 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    parser = _build_parser()
    # argparse reads a value that starts with "-" as a flag, so "--point -0.1,0,0,0" becomes "--point=-0.1,0,0,0".
    tokens: List[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in ("--coeffs", "--point", "--seed-vector") and token[:1] == "-" and token[:2] != "--":
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = parser.parse_args(tokens)
    try:
        return _COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an --out or output.path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
