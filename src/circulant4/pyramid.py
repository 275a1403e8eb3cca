"""The tetrahedron spanned by a q-base seed and its face angles.

With L = x, N = qx, S = q^2 x, T = q^3 x, q-invariance of the metric makes
the four edges LN, NS, LT, ST share one squared length and LS, NT the
other, so every face is an isosceles triangle with base angles gamma and
apex angle delta, 2*gamma + delta = pi.  "Squared edge" fields keep the
report dimensionally consistent with 2*g(x,x)*(1 - cos).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import CirculantCoeffs, apply_q, as_vector4, inner, metric_eigenvalues, qbase_predicate

__all__ = ["PyramidReport", "pyramid_report"]


@dataclass(frozen=True)
class PyramidReport:
    cos_alpha: float
    cos_beta: float
    edge_sq_long: float   # |LN|^2, shared by NS, LT, ST
    edge_sq_short: float  # |LS|^2, shared by NT
    cos_gamma: float
    cos_delta: float
    angle_sum_residual: float  # |2*gamma + delta - pi|


def pyramid_report(c: CirculantCoeffs, x) -> PyramidReport:
    """Edge lengths and face angles of the tetrahedron {x, qx, q^2 x, q^3 x}.

    cos(alpha) = g(x, qx)/g(x, x) and cos(beta) = g(x, q^2 x)/g(x, x) are
    well defined because every q-iterate has the same norm.  Raises on
    degenerate input (g not positive definite, seed not a q-base, g(x, x) not a positive
    finite float, or qx parallel to x).
    """
    c = CirculantCoeffs(*c)
    eigenvalues = metric_eigenvalues(c)
    if not all(eigenvalues > 0.0):
        raise ValueError(f"metric is not positive definite: eigenvalues {eigenvalues.tolist()}")
    x = as_vector4(x)
    if not qbase_predicate(x):
        raise ValueError("seed vector does not generate a q-base")
    with np.errstate(over="ignore", invalid="ignore"):  # no numpy warning: an overflow is refused below
        norm_sq = inner(c, x, x)
    if not 0.0 < norm_sq < math.inf:  # also an overflow to inf or NaN
        raise ValueError(f"seed {x.tolist()} has squared length {norm_sq} under g, not a positive finite float")
    cos_alpha = inner(c, x, apply_q(x, 1)) / norm_sq
    cos_beta = inner(c, x, apply_q(x, 2)) / norm_sq
    if cos_alpha >= 1.0 - 1e-12:
        raise ValueError("degenerate apex: qx is parallel to x (cos alpha = 1)")
    edge_sq_long = 2.0 * norm_sq * (1.0 - cos_alpha)
    edge_sq_short = 2.0 * norm_sq * (1.0 - cos_beta)
    cos_gamma = (1.0 - cos_beta) / (2.0 * math.sqrt(1.0 - cos_alpha) * math.sqrt(1.0 - cos_beta))
    cos_delta = (1.0 - 2.0 * cos_alpha + cos_beta) / (2.0 * (1.0 - cos_alpha))
    gamma = math.acos(cos_gamma)
    delta = math.acos(cos_delta)
    return PyramidReport(
        cos_alpha=cos_alpha,
        cos_beta=cos_beta,
        edge_sq_long=edge_sq_long,
        edge_sq_short=edge_sq_short,
        cos_gamma=cos_gamma,
        cos_delta=cos_delta,
        angle_sum_residual=abs(2.0 * gamma + delta - math.pi),
    )
