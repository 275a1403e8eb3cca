"""Scalar coefficient fields A, B, C on a chart of R^4 and their jets.

Each built-in family is one row of ``_FAMILIES``: a base (A0, B0, C0) read
from its params and a tuple of waves, each

    F(x) = amp * sum_m sin(modes[m] . (lin x)) / divisors[m]

with its own amplitude in the params, added to (A, B, C) along a fixed
direction.  Values, analytic gradients and Hessians, and the chart-wide
bounds that ``make_family`` checks (base +- the sum over the waves of
|amp| |direction| sum_m 1/divisors[m]) are one formula each over the rows.

* ``constant``  params (A0, B0, C0), no waves: a flat control.
* ``s_wave``    params (c0, eps, a0, b0): base (a0, b0, c0), amp eps,
  lin x = (r, t) = (x1 - x3, x2 - x4), modes (1, 0), (0, 1), (1, 1) with
  divisors 1, 2, 3, direction (-1, 0, 1).  That is

      F(r, t) = eps * (sin r + sin(t)/2 + sin(r + t)/3),
      C = c0 + F,   A = a0 - F,   B = b0,

  the built-in parallel family with genuine curvature.  Both gradients of
  A and C lie in the span of (1,0,-1,0) and (0,1,0,-1); the index shift
  negates that plane and annihilates it under q + q^3, so the parallelism
  relations d_i A = d_{i+2} C and d_i B = (d_{i+1} C + d_{i+3} C)/2 hold
  identically and the affinor is covariantly constant (the curvature
  module's nabla-q residual is the ground truth for this claim).  Unlike
  waves riding on x1+x2+x3+x4, which make the metric flat, this family has
  nonzero sectional curvature, so the q-section equality checks have
  actual power.
* ``control``   params (A0, kappa, B0, C0): base (A0, B0, C0), amp kappa,
  lin x = x1, one mode 1 with divisor 1, direction (1, 0, 0).  So
  A = A0 + kappa*sin(x1) with B, C constant: grad C = 0 while grad A != 0,
  a deliberate violation of parallelism used as a negative control.
* ``custom``    caller-supplied value/gradient/Hessian callables (analytic
  derivatives are required; black-box callables are never differentiated
  numerically across the config boundary).

Derivatives come either from closed forms (``analytic``) or from central
differences with one Richardson level (``finite_difference``), for a block
of points at once (``eval_jets``); the single-point functions are views
over a block of one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .algebra import ORBIT_INDEX, CirculantCoeffs, _first_inadmissible, as_vector4

__all__ = [
    "FieldFamilySpec",
    "FieldJet",
    "make_family",
    "make_custom_family",
    "coeffs_at",
    "eval_jet",
    "eval_jets",
    "gradient_residual",
    "parallel_residual",
]

# Finite-difference steps of the gradients and of the Hessians (see _stencil_jet).
FD_GRADIENT_STEP, FD_HESSIAN_STEP = 1e-5, 1e-4
_E, _DIAG = np.eye(4), np.arange(4)
_PAIR_I, _PAIR_J = np.triu_indices(4, 1)
# Finite-difference stencil rows: 0 and (+-1/2, +-1) e_i in units of the
# gradient step; then H (+-e_i) and H (+-e_i +-e_j), i < j, for the Hessians.
_GRAD_STENCIL = np.concatenate([np.zeros((1, 4)), 0.5 * _E, -0.5 * _E, _E, -_E])
_EI, _EJ = _E[_PAIR_I], _E[_PAIR_J]
_HESSIAN_STENCIL = FD_HESSIAN_STEP * np.concatenate([_E, -_E, _EI + _EJ, _EI - _EJ, _EJ - _EI, -_EI - _EJ])


class _Wave(NamedTuple):
    """F(x) = params[amp] * sum_m sin(modes[m] . (lin x)) / divisors[m], added to (A, B, C) times direction."""

    amp: int  # index of the amplitude in params
    lin: np.ndarray  # (Y, 4): chart point -> the wave's coordinates
    modes: np.ndarray  # (M, Y) integers
    divisors: np.ndarray  # (M,)
    direction: np.ndarray  # (3,) in (A, B, C)


class _Family(NamedTuple):
    names: Tuple[str, ...]  # of the params, for messages
    base: Tuple[int, int, int]  # indices of A0, B0, C0 in params
    waves: Tuple[_Wave, ...] = ()


_FAMILIES = {
    "constant": _Family(("A0", "B0", "C0"), (0, 1, 2)),
    # (r, t) = (x1 - x3, x2 - x4) spans the plane that the index shift negates.
    "s_wave": _Family(("c0", "eps", "a0", "b0"), (2, 3, 0), (_Wave(
        1, np.array([[1, 0, -1, 0], [0, 1, 0, -1]]), np.array([[1, 0], [0, 1], [1, 1]]), np.array([1.0, 2.0, 3.0]),
        np.array([-1.0, 0.0, 1.0])),)),
    "control": _Family(("A0", "kappa", "B0", "C0"), (0, 2, 3), (_Wave(
        1, _E[:1], np.array([[1]]), np.array([1.0]), np.array([1.0, 0.0, 0.0])),)),
}


@dataclass(frozen=True)
class FieldFamilySpec:
    family: str
    params: Tuple[float, ...]
    derivative_mode: str = "analytic"
    # custom family only
    value_fn: Optional[Callable[[np.ndarray], Tuple[float, float, float]]] = field(default=None, compare=False)
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)
    hess_fn: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)


@dataclass(frozen=True)
class FieldJet:
    """Coefficients, gradients (3,4) and Hessians (3,4,4) at one point.

    Row order is (A, B, C) throughout.
    """

    value: CirculantCoeffs
    grads: np.ndarray
    hessians: np.ndarray


def gradient_residual(grads: np.ndarray) -> np.ndarray:
    """Max residual of the gradient form of the parallelism condition.

    The condition equivalent to a covariantly constant affinor is
    d_i A = d_{i+2} C and d_i B = (d_{i+1} C + d_{i+3} C)/2 (indices mod 4,
    same shift convention as the vector action; derived by solving
    nabla q = 0 for the gradients of A and B).  For gradients (..., 3, 4)
    the residual is the max absolute value over the eight scalar equations,
    one per leading index.
    """
    grad_a, grad_b, grad_c = np.moveaxis(grads, -2, 0)
    res_a = grad_a - grad_c[..., ORBIT_INDEX[2]]
    res_b = grad_b - 0.5 * (grad_c[..., ORBIT_INDEX[1]] + grad_c[..., ORBIT_INDEX[3]])
    return np.maximum(np.max(np.abs(res_a), axis=-1), np.max(np.abs(res_b), axis=-1))


def make_family(family: str, params, derivative_mode: str = "analytic") -> FieldFamilySpec:
    """Validate parameters (interval check over the whole chart) and build a spec."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; use make_custom_family for custom fields")
    if derivative_mode not in ("analytic", "finite_difference"):
        raise ValueError(f"derivative_mode must be 'analytic' or 'finite_difference', got {derivative_mode!r}")
    params = tuple(float(v) for v in params)
    if len(params) != len(_FAMILIES[family].names):
        raise ValueError(f"{family} family takes params ({', '.join(_FAMILIES[family].names)})")
    # The rule holds on the chart's ranges of (A, B, C) iff it holds at (A_lo, B_lo, C_hi) and (A_lo, B_hi, C_lo).
    (a_lo, b_lo, c_lo), (_, b_hi, c_hi) = _chart_bounds(family, params)
    if broken := _first_inadmissible(np.array([[a_lo, b_lo, c_hi], [a_lo, b_hi, c_lo]])):
        raise ValueError(f"{family}: {broken[1]}")
    return FieldFamilySpec(family=family, params=params, derivative_mode=derivative_mode)


def _chart_bounds(family: str, params: Tuple[float, ...]) -> np.ndarray:
    """Lower and upper bounds (2, 3) of (A, B, C) over the whole chart for a built-in family: base -+ the sum
    over its waves of |amp| |direction| sum_m 1/divisors[m].  An overflowing bound is inf or NaN, unwarned."""
    _, base, waves = _FAMILIES[family]
    with np.errstate(over="ignore", invalid="ignore"):
        spread = sum(abs(params[w.amp]) * np.abs(w.direction) * sum(1.0 / w.divisors) for w in waves)
        return np.take(params, base) + spread * np.array([[-1.0], [1.0]])


def make_custom_family(value_fn, grad_fn, hess_fn) -> FieldFamilySpec:
    """Custom fields with caller-supplied analytic first and second derivatives."""
    if value_fn is None or grad_fn is None or hess_fn is None:
        raise ValueError("custom family requires value_fn, grad_fn and hess_fn")
    return FieldFamilySpec(family="custom", params=(), derivative_mode="analytic",
                           value_fn=value_fn, grad_fn=grad_fn, hess_fn=hess_fn)


def _mode_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum over the mode axis of per-mode terms, left to right as the family formulas read."""
    return functools.reduce(np.add, np.moveaxis(terms, axis, 0))


def _values(spec: FieldFamilySpec, pts: np.ndarray) -> np.ndarray:
    """Field values (..., 3) of (A, B, C) of a built-in family at chart points (..., 4)."""
    _, base, waves = _FAMILIES[spec.family]
    values = np.broadcast_to(np.take(spec.params, base), pts.shape[:-1] + (3,))
    for amp, lin, modes, divisors, direction in waves:
        f = spec.params[amp] * _mode_sum(np.sin(pts @ lin.T @ modes.T) / divisors, -1)
        values = values + f[..., None] * direction
    return values


def coeffs_at(spec: FieldFamilySpec, p) -> CirculantCoeffs:
    """Field values (A, B, C) at a chart point (no admissibility check)."""
    p = as_vector4(p)
    values = spec.value_fn(p) if spec.family == "custom" else _values(spec, p)
    return CirculantCoeffs(*np.asarray(values, dtype=float).tolist())


def _wave_derivatives(spec: FieldFamilySpec, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form gradients (N, 3, 4) and Hessians (N, 3, 4, 4) of a built-in family at points (N, 4),
    summed over its waves from +0.0, so a zero entry is never -0.0."""
    grads, hessians = np.zeros((len(pts), 3, 4)), np.zeros((len(pts), 3, 4, 4))
    for amp, lin, modes, divisors, direction in _FAMILIES[spec.family].waves:
        theta = pts @ lin.T @ modes.T
        # Derivatives of F in the wave's coordinates, pulled back along lin.
        grad = (spec.params[amp] * _mode_sum((np.cos(theta) / divisors)[..., None] * modes, -2)) @ lin
        hess = lin.T @ (-spec.params[amp] * _mode_sum(
            (np.sin(theta) / divisors)[..., None, None] * (modes[:, :, None] * modes[:, None, :]), -3)) @ lin
        grads += direction[:, None] * grad[:, None]
        hessians += direction[:, None, None] * hess[:, None]
    return grads, hessians


def _stencil_jet(spec: FieldFamilySpec, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, gradients and Hessians at points (N, 4) from one evaluation of the (49, N, 4) stencil:
    central differences with one Richardson level for the gradients (step FD_GRADIENT_STEP) and nested
    central second differences for the Hessians (step FD_HESSIAN_STEP)."""
    h, k = FD_GRADIENT_STEP, FD_HESSIAN_STEP
    f = _values(spec, np.concatenate([h * _GRAD_STENCIL, _HESSIAN_STENCIL])[:, None] + pts)
    half_p, half_m, full_p, full_m = f[1:17].reshape(4, 4, -1, 3)
    hp, hm = f[17:25].reshape(2, 4, -1, 3)
    pp, pm, mp, mm = f[25:].reshape(4, 6, -1, 3)
    central_half = (half_p - half_m) / (2 * (h / 2))
    central_full = (full_p - full_m) / (2 * h)
    grads = np.moveaxis((4.0 * central_half - central_full) / 3.0, 0, -1)
    hessians = np.empty((len(pts), 3, 4, 4))
    hessians[..., _DIAG, _DIAG] = np.moveaxis((hp - 2 * f[0] + hm) / k**2, 0, -1)
    off = np.moveaxis((pp - pm - mp + mm) / (4 * k**2), 0, -1)
    hessians[..., _PAIR_I, _PAIR_J] = off
    hessians[..., _PAIR_J, _PAIR_I] = off
    return f[0], grads, hessians


def eval_jets(spec: FieldFamilySpec, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (N, 3), gradients (N, 3, 4) and Hessians (N, 3, 4, 4) of (A, B, C) at chart points (N, 4).

    Raises if a value breaks the admissibility chain, naming the first such
    point and the violated inequality.
    """
    if spec.family == "custom":
        jets = [(spec.value_fn(p), spec.grad_fn(p), spec.hess_fn(p)) for p in points]
        values, grads, hessians = (np.array(part, dtype=float) for part in zip(*jets))
    elif spec.derivative_mode == "analytic":
        values, (grads, hessians) = _values(spec, points), _wave_derivatives(spec, points)
    else:
        values, grads, hessians = _stencil_jet(spec, points)
    if broken := _first_inadmissible(values):
        raise ValueError(f"inadmissible at {points[broken[0]].tolist()}: {broken[1]}")
    return values, grads, hessians


def eval_jet(spec: FieldFamilySpec, p) -> FieldJet:
    """Value, gradients and Hessians of (A, B, C) at a chart point: ``eval_jets`` at a block of one."""
    values, grads, hessians = eval_jets(spec, as_vector4(p)[None])
    return FieldJet(value=CirculantCoeffs(*values[0].tolist()), grads=grads[0], hessians=hessians[0])


def parallel_residual(spec: FieldFamilySpec, p) -> float:
    """Gradient-form parallelism residual at a chart point (see gradient_residual)."""
    return float(gradient_residual(eval_jet(spec, p).grads))
