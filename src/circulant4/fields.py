"""Scalar coefficient fields A, B, C on a chart of R^4 and their jets.

Built-in families:

* ``constant``  params (A0, B0, C0): a flat control, all derivatives zero.
* ``s_wave``    params (c0, eps, a0, b0): the built-in parallel family
  with genuine curvature.  With r = x1 - x3 and t = x2 - x4,

      F(r, t) = eps * (sin r + sin(t)/2 + sin(r + t)/3),
      C = c0 + F,   A = a0 - F,   B = b0.

  Both gradients of A and C lie in the span of (1,0,-1,0) and
  (0,1,0,-1); the index shift negates that plane and annihilates it
  under q + q^3, so the parallelism relations d_i A = d_{i+2} C and
  d_i B = (d_{i+1} C + d_{i+3} C)/2 hold identically and the affinor is
  covariantly constant (the curvature module's nabla-q residual is the
  ground truth for this claim).  Unlike waves riding on x1+x2+x3+x4,
  which make the metric flat, this family has nonzero sectional
  curvature, so the q-section equality checks have actual power.
* ``control``   params (A0, kappa, B0, C0): A = A0 + kappa*sin(x1) with
  B, C constant; grad C = 0 while grad A != 0, a deliberate violation of
  parallelism used as a negative control.
* ``custom``    caller-supplied value/gradient/Hessian callables (analytic
  derivatives are required; black-box callables are never differentiated
  numerically across the config boundary).

Derivatives come either from closed forms (``analytic``) or from central
differences with one Richardson level (``finite_difference``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .algebra import CirculantCoeffs, apply_q, as_vector4

__all__ = [
    "FieldFamilySpec",
    "FieldJet",
    "make_family",
    "make_custom_family",
    "coeffs_at",
    "eval_jet",
    "parallel_residual",
]

ONES = np.ones(4)
# The two coordinate differences whose span the index shift negates.
V_DIFF = np.array([1.0, 0.0, -1.0, 0.0])
W_DIFF = np.array([0.0, 1.0, 0.0, -1.0])


def _wave_rt(v: np.ndarray) -> Tuple[float, float]:
    return float(v @ V_DIFF), float(v @ W_DIFF)


def _wave_f(eps: float, r: float, t: float) -> float:
    return eps * (np.sin(r) + np.sin(t) / 2.0 + np.sin(r + t) / 3.0)


def _wave_df(eps: float, r: float, t: float) -> np.ndarray:
    fr = eps * (np.cos(r) + np.cos(r + t) / 3.0)
    ft = eps * (np.cos(t) / 2.0 + np.cos(r + t) / 3.0)
    return fr * V_DIFF + ft * W_DIFF


def _wave_ddf(eps: float, r: float, t: float) -> np.ndarray:
    frr = -eps * (np.sin(r) + np.sin(r + t) / 3.0)
    ftt = -eps * (np.sin(t) / 2.0 + np.sin(r + t) / 3.0)
    frt = -eps * np.sin(r + t) / 3.0
    return (
        frr * np.outer(V_DIFF, V_DIFF)
        + ftt * np.outer(W_DIFF, W_DIFF)
        + frt * (np.outer(V_DIFF, W_DIFF) + np.outer(W_DIFF, V_DIFF))
    )


@dataclass(frozen=True)
class FieldFamilySpec:
    family: str
    params: Tuple[float, ...]
    derivative_mode: str = "analytic"
    fd_step: float = 1e-5
    # custom family only
    value_fn: Optional[Callable[[np.ndarray], Tuple[float, float, float]]] = field(
        default=None, compare=False
    )
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

    def parallel_residual(self) -> float:
        """Max residual of the gradient form of the parallelism condition.

        The condition equivalent to a covariantly constant affinor is
        d_i A = d_{i+2} C and d_i B = (d_{i+1} C + d_{i+3} C)/2 (indices mod 4,
        same shift convention as the vector action; derived by solving
        nabla q = 0 for the gradients of A and B).  The residual is the max
        absolute value over the eight scalar equations.
        """
        grad_a, grad_b, grad_c = self.grads
        res_a = grad_a - apply_q(grad_c, 2)
        res_b = grad_b - 0.5 * (apply_q(grad_c, 1) + apply_q(grad_c, 3))
        return float(max(np.max(np.abs(res_a)), np.max(np.abs(res_b))))


def _check_chain(bounds, context: str) -> None:
    """bounds: {'A': (lo, hi), 'B': ..., 'C': ...}; enforce 0 < B < C < A."""
    (a_lo, _), (b_lo, b_hi), (c_lo, c_hi) = bounds["A"], bounds["B"], bounds["C"]
    if b_lo <= 0.0:
        raise ValueError(f"{context}: B can reach {b_lo} <= 0 (need 0 < B)")
    if b_hi >= c_lo:
        raise ValueError(f"{context}: B range up to {b_hi} overlaps C range from {c_lo} (need B < C)")
    if c_hi >= a_lo:
        raise ValueError(f"{context}: C range up to {c_hi} overlaps A range from {a_lo} (need C < A)")


def make_family(
    family: str,
    params,
    derivative_mode: str = "analytic",
    fd_step: float = 1e-5,
) -> FieldFamilySpec:
    """Validate parameters (interval check over the whole chart) and build a spec."""
    if family not in ("constant", "s_wave", "control"):
        raise ValueError(f"unknown family {family!r}; use make_custom_family for custom fields")
    if derivative_mode not in ("analytic", "finite_difference"):
        raise ValueError(f"derivative_mode must be 'analytic' or 'finite_difference', got {derivative_mode!r}")
    params = tuple(float(v) for v in params)

    if family == "constant":
        if len(params) != 3:
            raise ValueError("constant family takes params (A0, B0, C0)")
        a0, b0, c0 = params
        _check_chain({"A": (a0, a0), "B": (b0, b0), "C": (c0, c0)}, "constant")
    elif family == "s_wave":
        if len(params) != 4:
            raise ValueError("s_wave family takes params (c0, eps, a0, b0)")
        c0, eps, a0, b0 = params
        f_max = abs(eps) * (1.0 + 0.5 + 1.0 / 3.0)
        _check_chain(
            {"A": (a0 - f_max, a0 + f_max), "B": (b0, b0), "C": (c0 - f_max, c0 + f_max)},
            "s_wave",
        )
    else:  # control
        if len(params) != 4:
            raise ValueError("control family takes params (A0, kappa, B0, C0)")
        a0, kappa, b0, c0 = params
        _check_chain({"A": (a0 - abs(kappa), a0 + abs(kappa)), "B": (b0, b0), "C": (c0, c0)}, "control")
    return FieldFamilySpec(family=family, params=params, derivative_mode=derivative_mode, fd_step=fd_step)


def make_custom_family(value_fn, grad_fn, hess_fn) -> FieldFamilySpec:
    """Custom fields with caller-supplied analytic first and second derivatives."""
    if value_fn is None or grad_fn is None or hess_fn is None:
        raise ValueError("custom family requires value_fn, grad_fn and hess_fn")
    return FieldFamilySpec(
        family="custom", params=(), derivative_mode="analytic",
        value_fn=value_fn, grad_fn=grad_fn, hess_fn=hess_fn,
    )


def coeffs_at(spec: FieldFamilySpec, p) -> CirculantCoeffs:
    """Field values (A, B, C) at a chart point (no admissibility check)."""
    v = as_vector4(p)
    if spec.family == "constant":
        return CirculantCoeffs(*spec.params)
    if spec.family == "s_wave":
        c0, eps, a0, b0 = spec.params
        f = _wave_f(eps, *_wave_rt(v))
        return CirculantCoeffs(a0 - f, b0, c0 + f)
    if spec.family == "control":
        a0, kappa, b0, c0 = spec.params
        return CirculantCoeffs(a0 + kappa * np.sin(v[0]), b0, c0)
    return CirculantCoeffs(*spec.value_fn(v))


def _analytic_grads(spec: FieldFamilySpec, v: np.ndarray) -> np.ndarray:
    if spec.family == "constant":
        return np.zeros((3, 4))
    if spec.family == "s_wave":
        c0, eps, a0, b0 = spec.params
        df = _wave_df(eps, *_wave_rt(v))
        return np.stack([-df, np.zeros(4), df])
    if spec.family == "control":
        _, kappa, _, _ = spec.params
        g = np.zeros((3, 4))
        g[0, 0] = kappa * np.cos(v[0])
        return g
    return np.asarray(spec.grad_fn(v), dtype=float)


def _analytic_hessians(spec: FieldFamilySpec, v: np.ndarray) -> np.ndarray:
    if spec.family == "constant":
        return np.zeros((3, 4, 4))
    if spec.family == "s_wave":
        c0, eps, a0, b0 = spec.params
        ddf = _wave_ddf(eps, *_wave_rt(v))
        return np.stack([-ddf, np.zeros((4, 4)), ddf])
    if spec.family == "control":
        _, kappa, _, _ = spec.params
        h = np.zeros((3, 4, 4))
        h[0, 0, 0] = -kappa * np.sin(v[0])
        return h
    return np.asarray(spec.hess_fn(v), dtype=float)


def _fd_grads(spec: FieldFamilySpec, v: np.ndarray) -> np.ndarray:
    """Central differences with one Richardson extrapolation level."""

    def central(h):
        cols = []
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fp = np.array(coeffs_at(spec, v + e))
            fm = np.array(coeffs_at(spec, v - e))
            cols.append((fp - fm) / (2 * h))
        return np.stack(cols, axis=1)  # (3, 4)

    h = spec.fd_step
    return (4.0 * central(h / 2) - central(h)) / 3.0


def _fd_hessians(spec: FieldFamilySpec, v: np.ndarray) -> np.ndarray:
    """Nested central second differences; symmetrized."""
    h = 1e-4
    hess = np.zeros((3, 4, 4))
    f0 = np.array(coeffs_at(spec, v))
    for i in range(4):
        ei = np.zeros(4)
        ei[i] = h
        for j in range(i, 4):
            ej = np.zeros(4)
            ej[j] = h
            if i == j:
                fp = np.array(coeffs_at(spec, v + ei))
                fm = np.array(coeffs_at(spec, v - ei))
                d2 = (fp - 2 * f0 + fm) / h**2
            else:
                fpp = np.array(coeffs_at(spec, v + ei + ej))
                fpm = np.array(coeffs_at(spec, v + ei - ej))
                fmp = np.array(coeffs_at(spec, v - ei + ej))
                fmm = np.array(coeffs_at(spec, v - ei - ej))
                d2 = (fpp - fpm - fmp + fmm) / (4 * h**2)
            hess[:, i, j] = d2
            hess[:, j, i] = d2
    return hess


def eval_jet(spec: FieldFamilySpec, p) -> FieldJet:
    """Value, gradients and Hessians of (A, B, C) at a chart point.

    Raises if the value at p breaks the admissibility chain, naming the
    violated inequality.
    """
    v = as_vector4(p)
    value = coeffs_at(spec, v)
    a, b, c = value
    if not b > 0:
        raise ValueError(f"inadmissible at {v.tolist()}: B = {b} (need 0 < B)")
    if not b < c:
        raise ValueError(f"inadmissible at {v.tolist()}: B = {b}, C = {c} (need B < C)")
    if not c < a:
        raise ValueError(f"inadmissible at {v.tolist()}: C = {c}, A = {a} (need C < A)")
    if spec.derivative_mode == "analytic":
        grads = _analytic_grads(spec, v)
        hessians = _analytic_hessians(spec, v)
    else:
        grads = _fd_grads(spec, v)
        hessians = _fd_hessians(spec, v)
    return FieldJet(value=value, grads=grads, hessians=hessians)


def parallel_residual(spec: FieldFamilySpec, p) -> float:
    """Gradient-form parallelism residual at a chart point (see FieldJet.parallel_residual)."""
    return eval_jet(spec, p).parallel_residual()
