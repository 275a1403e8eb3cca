"""Orthonormal q-frames {x, qx, q^2 x, q^3 x}.

Two constructions are provided:

* ``spectral_frame`` builds the seed from the Fourier eigenstructure of the
  circulant metric and is valid for every admissible coefficient triple.
* ``closed_form_frame`` evaluates the direct radical formulas (x^4 = 0,
  x^2 and the x^1 + x^3 / x^1 * x^3 system) literally and reports what they
  produce, including their Gram residual and any domain failure.  It never
  asserts success; it is an audit artifact, not the supported construction.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .algebra import CirculantCoeffs, _first_inadmissible, _spectral_seeds, as_vector4, orbit_gram

__all__ = [
    "FrameResidual",
    "ClosedFormFrameReport",
    "spectral_frame",
    "spectral_frame_residuals",
    "closed_form_frame",
    "verify_frame",
]

@dataclass(frozen=True)
class FrameResidual:
    """Gram matrix of a q-orbit and its max entrywise deviation from identity."""

    gram: np.ndarray
    max_deviation: float


@dataclass(frozen=True)
class ClosedFormFrameReport:
    """Literal evaluation of the radical construction, with residual audit.

    status is one of "ok", "sqrt_domain_failure" or "residual_exceeds_tolerance".
    candidate is present exactly when the formulas stay in the real domain;
    the discriminant is then >= 0, as 2B^2 - C^2 - AC <= 0 for 0 < B < C < A.
    """

    x2: float
    sum_x1_x3: float
    prod_x1_x3: float
    discriminant: float
    candidate: Optional[np.ndarray]
    residual: Optional[FrameResidual]
    status: str


def verify_frame(c: CirculantCoeffs, seed) -> FrameResidual:
    """Gram matrix of {seed, q seed, q^2 seed, q^3 seed} under g(c)."""
    gram = orbit_gram(np.array(c, dtype=float), as_vector4(seed))
    return FrameResidual(gram=gram, max_deviation=float(np.max(np.abs(gram - np.eye(4)))))


@contextlib.contextmanager
def _gate(c: CirculantCoeffs, construction: str) -> Iterator[None]:
    """Refuse ``c`` by the admissibility rule before the body runs; then raise ValueError naming ``c``,
    ``construction`` and numpy's error, in place of the inf, NaN or silent zero that a float overflow in the
    body, or an underflow to 0 that it then divides by, would give."""
    if broken := _first_inadmissible(np.array([c], dtype=float)):
        raise ValueError(f"coefficients {tuple(c)} violate 0 < B < C < A: {broken[1]}")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"coefficients {tuple(c)}: float arithmetic fails in the {construction} ({exc})") from None


def spectral_frame_residuals(coeffs: np.ndarray) -> np.ndarray:
    """Max Gram deviation from the identity of the spectral frame of each
    admissible generator row (..., 3), as verify_frame(c, spectral_frame(c))."""
    gram = orbit_gram(coeffs, _spectral_seeds(coeffs))
    return np.max(np.abs(gram - np.eye(4)), axis=(-2, -1))


def spectral_frame(c: CirculantCoeffs) -> np.ndarray:
    """Seed (4,) of an orthonormal q-frame, from the Fourier eigenplanes of g.

    The seed mixes the three metric eigenspaces with weights chosen so that
    g(x, x) = 1 and g(x, qx) = g(x, q^2 x) = 0; q-invariance of g then
    forces the whole 4x4 Gram matrix to be the identity.  ValueError if c
    breaks the admissibility rule or a float overflows, as A + C + 2B does
    near the float limit.
    """
    c = CirculantCoeffs(*c)
    with _gate(c, "spectral seed"):
        return _spectral_seeds(np.array(c, dtype=float))


# Largest Gram deviation of the closed-form candidate that closed_form_frame reports as "ok".
_CLOSED_FORM_TOL = 1e-9


def closed_form_frame(c: CirculantCoeffs) -> ClosedFormFrameReport:
    """Evaluate the radical construction verbatim and audit the result.

    Sets x^4 = 0, takes x^2 and x^1 + x^3 from the shared radical
    expression, x^1 * x^3 from the companion quotient, and solves
    t^2 - (x^1 + x^3) t + x^1 x^3 = 0.  The discriminant is computed
    directly as (x^1+x^3)^2 - 4 x^1 x^3 (the printed closed form for it is
    not well-formed).  x^1 takes the larger root.  Domain failures are
    statuses, not exceptions, so batch sweeps survive them.  ValueError if
    c breaks the admissibility rule or a float overflows in the formulas
    (or underflows to a 0 that they divide by, as B^2 does at 1e-300).
    """
    with _gate(c, "closed-form frame"):
        a, b, cc = np.array(c, dtype=float)  # numpy scalars, whose arithmetic obeys np.errstate
        r_minus = a + b - 2.0 * cc
        r_plus = a + b + 2.0 * cc
        if r_minus <= 0.0:  # r_plus > 0 for admissible (A, B, C), and an overflow there raises in _gate
            return ClosedFormFrameReport(
                x2=math.nan, sum_x1_x3=math.nan, prod_x1_x3=math.nan,
                discriminant=math.nan, candidate=None, residual=None,
                status="sqrt_domain_failure",
            )
        sq_minus = np.sqrt(r_minus)
        sq_plus = np.sqrt(r_plus)
        x2 = (sq_minus - sq_plus) / (2.0 * sq_minus * sq_plus)
        sum13 = (sq_minus - sq_plus) / (2.0 * sq_minus * sq_plus)
        prod13 = (2.0 * b**2 - cc**2 - a * cc) / (2.0 * (a - cc) * sq_minus * sq_plus)
        disc = sum13**2 - 4.0 * prod13
    x2, sum13, prod13, disc = float(x2), float(sum13), float(prod13), float(disc)
    root = math.sqrt(disc)
    x1 = 0.5 * (sum13 + root)
    x3 = 0.5 * (sum13 - root)
    candidate = np.array([x1, x2, x3, 0.0])
    residual = verify_frame(c, candidate)
    status = "ok" if residual.max_deviation <= _CLOSED_FORM_TOL else "residual_exceeds_tolerance"
    return ClosedFormFrameReport(
        x2=x2, sum_x1_x3=sum13, prod_x1_x3=prod13, discriminant=disc,
        candidate=candidate, residual=residual, status=status,
    )
