"""Pointwise algebra of the circulant metric and the shift affinor.

The metric at a point is the symmetric circulant 4x4 matrix with first row
(A, B, C, B).  The affinor q acts on tangent vectors by the cyclic
component shift (qx)^i = x^{i+1 mod 4}, so q^4 is the identity exactly.
Everything in this module is a pure function of its arguments.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "CirculantCoeffs",
    "Q_MATRIX",
    "as_vector4",
    "apply_q",
    "metric_matrix",
    "metric_det_closed",
    "metric_eigenvalues",
    "is_admissible",
    "inner",
    "qbase_predicate",
    "qbase_polynomial",
    "det_qorbit",
]

# Affinor matrix Q[i, j]: (qx)^i = Q[i, j] x^j, i.e. row i has a 1 in
# column (i+1) mod 4.
Q_MATRIX = np.roll(np.eye(4, dtype=np.int64), -1, axis=0)

# Circulant offset table: g_ij is generator CIRCULANT_INDEX[i, j] of (A, B, C),
# selected by the offset (j - i) mod 4 -> A, B, C, B.
_IDX = np.arange(4)
CIRCULANT_INDEX = np.array([0, 1, 2, 1])[(_IDX[None, :] - _IDX[:, None]) % 4]
# Shift table: x[..., ORBIT_INDEX[k]] is q^k x, and x[..., ORBIT_INDEX] stacks
# the q-orbit rows x, qx, q^2 x, q^3 x.
ORBIT_INDEX = (_IDX[:, None] + _IDX[None, :]) % 4


class CirculantCoeffs(NamedTuple):
    """Metric generators (A, B, C) at a point; first row of g is (A, B, C, B)."""

    a: float
    b: float
    c: float


def as_vector4(x) -> np.ndarray:
    """Validate and convert to a float (4,) array; rejects NaN/Inf."""
    v = np.asarray(x, dtype=float)
    if v.shape != (4,):
        raise ValueError(f"expected 4 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def apply_q(x, k: int = 1) -> np.ndarray:
    """Apply the shift affinor k times: (q^k x)^i = x^{i+k mod 4}.

    Exact (a pure reindexing, no arithmetic); k is reduced mod 4.
    """
    return as_vector4(x)[ORBIT_INDEX[k % 4]]


def orbit_gram(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gram matrices gram[..., a, b] = g(q^a x, q^b x) for generators c (..., 3) and vectors x (..., 4) whose leading
    axes broadcast; no validation and, as inner, no numpy warning: an overflow is inf or NaN for its caller to test."""
    v = x[..., ORBIT_INDEX]
    with np.errstate(over="ignore", invalid="ignore"):
        return v @ metric_matrix(c) @ np.swapaxes(v, -1, -2)


def metric_matrix(c: CirculantCoeffs) -> np.ndarray:
    """Assemble the symmetric circulant metric with first row (A, B, C, B); generators (..., 3) give (..., 4, 4)."""
    return np.asarray(c)[..., CIRCULANT_INDEX]


def metric_det_closed(c: CirculantCoeffs) -> float:
    """det g = (A-C)^2 ((A+C)^2 - 4B^2), the circulant closed form, made without numpy warnings; ValueError
    naming c where it overflows a float, to inf or to NaN as inf - inf, as det_qorbit."""
    a, b, cc = np.asarray(c, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        det = float((a - cc) ** 2 * ((a + cc) ** 2 - 4 * b**2))
    if not np.isfinite(det):
        raise ValueError(f"(A, B, C) = {list(map(float, c))}: its closed-form determinant overflows a float")
    return det


def metric_eigenvalues(c: CirculantCoeffs) -> np.ndarray:
    """Eigenvalues {A+2B+C, A-2B+C, A-C, A-C} of the circulant metric.

    The Fourier basis diagonalizes every circulant matrix; the double
    eigenvalue A-C belongs to the plane spanned by (1,0,-1,0), (0,1,0,-1).
    Made in float64 without numpy warnings: a sum that overflows is inf, or NaN as inf - inf.
    """
    a, b, cc = np.asarray(c, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([a + 2 * b + cc, a - 2 * b + cc, a - cc, a - cc])


def _circulant_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse metrics (..., 4, 4) of generators (..., 3): the circulant matrices whose
    generators are the inverse DFT of the reciprocal eigenvalues of g (Gray,
    Toeplitz and Circulant Matrices: A Review, 2006)."""
    m0, m2, m1, _ = 1.0 / metric_eigenvalues(np.moveaxis(coeffs, -1, 0))
    return metric_matrix(np.stack([m0 + m2 + 2 * m1, m0 - m2, m0 + m2 - 2 * m1], axis=-1) / 4)


def _spectral_seeds(coeffs: np.ndarray) -> np.ndarray:
    """spectral_frame seeds (..., 4) of generator rows (..., 3), no admissibility check; finite while A + C + 2B is.
    Sums stay (A + C) +- 2B: metric_eigenvalues' (A + 2B) + C can differ in the last bit, which reports would show."""
    a, b, cc = np.moveaxis(coeffs, -1, 0)
    alpha = 0.25 / np.sqrt(a + cc + 2.0 * b)
    beta = 0.25 / np.sqrt(a + cc - 2.0 * b)
    s = 0.5 / np.sqrt(a - cc)
    return (
        alpha[..., None] * np.array([1.0, 1.0, 1.0, 1.0])
        + beta[..., None] * np.array([1.0, -1.0, 1.0, -1.0])
        + s[..., None] * np.array([1.0, 0.0, -1.0, 0.0])
    )


def _first_inadmissible(rows: np.ndarray) -> Optional[Tuple[int, str]]:
    """None if every generator row (N, 3) of (A, B, C) keeps 0 < B < C < A < inf, else the first row that breaks
    it and a text naming its first broken link; each link is tested in positive form, so a NaN breaks it."""
    a, b, c = rows.T
    holds = np.array([0.0 < b, b < c, c < a, a < np.inf])
    for n in np.flatnonzero(~holds.all(axis=0))[:1]:
        a, b, c = rows[n].tolist()
        return int(n), (f"B = {b} (need 0 < B)", f"B = {b}, C = {c} (need B < C)", f"C = {c}, A = {a} (need C < A)",
                        f"A = {a} (need A finite)")[np.argmin(holds[:, n])]
    return None


def is_admissible(c: CirculantCoeffs) -> bool:
    """Strict chain 0 < B < C < A with A finite (sufficient for positive definiteness)."""
    return _first_inadmissible(np.array([c], dtype=float)) is None


def inner(c: CirculantCoeffs, x, y) -> float:
    """Bilinear form g(x, y) = g_ij x^i y^j for the metric generated by c, made without numpy warnings: a
    product that overflows is inf, or NaN as inf - inf, for the caller to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(as_vector4(x) @ metric_matrix(c) @ as_vector4(y))


def qbase_polynomial(x) -> float:
    """Independence polynomial of the q-orbit of x.

    ((x1-x3)^2 + (x2-x4)^2)(x1 - x2 + x3 - x4)(x1 + x2 + x3 + x4);
    nonzero exactly when {x, qx, q^2 x, q^3 x} is a basis.  Equals
    +-det_qorbit(x): the three factors are the values of the polynomial
    x1 + x2 t + x3 t^2 + x4 t^3 at the fourth roots of unity (the pair at
    +-i contributing the squared modulus).  ValueError if it overflows a
    float, to inf or to NaN as inf * 0.
    """
    return _finite_qbase_polynomials(as_vector4(x), "x")


def _finite_qbase_polynomials(xs: np.ndarray, name: str, error: type = ValueError) -> np.ndarray:
    """qbase_polynomial of the vectors xs (N, 4), or of one vector (4,), made without numpy warnings; ``error``
    naming the first vector, as ``name.format(its index)``, whose polynomial overflows a float to inf, or to NaN
    as inf * 0.  One vector is not made a stack of one: numpy's scalar arithmetic takes half the time, and
    qbase_polynomial, qbase_predicate and the pyramid pass one vector at a time."""
    x1, x2, x3, x4 = np.moveaxis(xs, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        polys = ((x1 - x3) ** 2 + (x2 - x4) ** 2) * (x1 - x2 + x3 - x4) * (x1 + x2 + x3 + x4)
    if not np.isfinite(polys).all():
        i = int(np.argmin(np.isfinite(polys)))
        vector = xs.reshape(-1, 4)[i].tolist()
        raise error(f"{name.format(i)} = {vector}: its independence polynomial overflows a float")
    return polys


# Smallest |P(x)| / (x.x)^2, free of |x| as both are quartic, that a seed generating a q-base may have.
_MIN_QBASE_RATIO = 1e-12


def _first_degenerate(xs: np.ndarray, name: str, error: type = ValueError) -> Optional[Tuple[int, str]]:
    """None if every vector of xs (N, 4), or the one vector (4,), has P(x) != 0 and |P(x)| >= _MIN_QBASE_RATIO (x.x)^2,
    else the first that does not and a text saying why; raises as _finite_qbase_polynomials on an overflow."""
    polys = np.abs(_finite_qbase_polynomials(xs, name, error)).reshape(-1)
    with np.errstate(over="ignore"):  # a floor that overflows to inf refuses its vector
        floors = _MIN_QBASE_RATIO * np.sum(xs**2, axis=-1).reshape(-1) ** 2
    for i in np.flatnonzero((polys == 0.0) | (polys < floors))[:1]:
        return int(i), "does not generate a q-base" if polys[i] == 0.0 else (
            f"is nearly degenerate: |P(x)| = {polys[i]} (need |P(x)| >= {_MIN_QBASE_RATIO} (x.x)^2 = {floors[i]})")
    return None


def qbase_predicate(x) -> bool:
    """True iff the orbit {x, qx, q^2 x, q^3 x} is a basis _first_degenerate accepts; ValueError on an overflow."""
    return _first_degenerate(as_vector4(x), "x") is None


def det_qorbit(x) -> float:
    """Determinant of the 4x4 matrix with rows x, qx, q^2 x, q^3 x, made without numpy warnings: 0 where it
    underflows, ValueError naming x where it overflows a float, as qbase_polynomial."""
    x = as_vector4(x)
    with np.errstate(all="ignore"):  # numpy's det is sign exp(log |det|): log 0 divides by zero, exp overflows
        det = float(np.linalg.det(x[ORBIT_INDEX]))
    if not np.isfinite(det):
        raise ValueError(f"x = {x.tolist()}: its orbit determinant overflows a float")
    return det
