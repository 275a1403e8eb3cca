"""Levi-Civita connection and curvature of the circulant metric.

The core routines work on raw arrays (g, dg, ddg) where

    g[i, j]        metric components,
    dg[a, i, j]    = d_a g_ij,
    ddg[a, b, i, j] = d_a d_b g_ij,

so they can be exercised against arbitrary metrics in tests.
``point_geometry`` is the one pass from a chart point to its field jet,
metric, Christoffel symbols and Riemann tensor; every entry of g is one of
A, B, C, selected by the circulant offset (j - i) mod 4.  The public
functions taking a coefficient-field spec and a chart point are views
over that pass.  Seed-level quantities read off R in the q-orbit basis
(x, qx, q^2 x, q^3 x), computed once per seed.

Sign convention: the (0,4) tensor is oriented so that the sectional
curvature R(x,y,x,y) / (g(x,x)g(y,y) - g(x,y)^2) of a round sphere is
positive (checked in the test suite against a product metric containing a
unit 2-sphere).  All verified identities are equalities and zeros, hence
independent of this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .algebra import (
    CIRCULANT_INDEX,
    Q_MATRIX,
    apply_q,
    as_vector4,
    metric_matrix,
    q_orbit,
    qbase_polynomial,
    qbase_predicate,
)
from .fields import FieldFamilySpec, FieldJet, eval_jet

__all__ = [
    "CurvatureTensor",
    "SectionalReport",
    "PointGeometry",
    "point_geometry",
    "metric_derivatives",
    "riemann_core",
    "christoffel",
    "nabla_q_residual",
    "riemann",
    "sectional",
    "q_section_curvatures",
    "identity_suite",
    "q_invariance_residual",
    "symmetry_residuals",
    "random_qbase_seeds",
]

# The six q-sections as pairs of orbit indices (q^a x, q^b x):
# {x,qx}, {x,q2x}, {q3x,x}, {qx,q2x}, {qx,q3x}, {q2x,q3x}.
_SECTION_A, _SECTION_B = np.array([[0, 0, 3, 1, 1, 2], [1, 2, 0, 2, 3, 3]])

# The identity suite (groups a-f, see identity_suite) as (name, lhs, rhs),
# each side a component "abcd" = R(q^a x, q^b x, q^c x, q^d x), "-" for its
# negative; rhs None claims lhs = 0.  "0101" is rho = R(x,qx,x,qx).
_IDENTITIES = (
    ("a_diag_q3", "0101", "0303"),
    ("a_diag_q2", "0202", None),
    ("b_mixed_1", "0102", None),
    ("b_mixed_2", "0212", None),
    ("b_mixed_3", "0320", None),
    ("b_mixed_4", "0313", None),
    ("c_chain_1", "-0103", "0112"),
    ("c_chain_2", "0112", "0123"),
    ("c_chain_3", "0123", "0101"),
    ("d_mixed_1", "0213", None),
    ("d_mixed_2", "0223", None),
    ("d_mixed_3", "1213", None),
    ("e_chain_1", "-0312", "-0323"),
    ("e_chain_2", "-0323", "1223"),
    ("e_chain_3", "1223", "0101"),
    ("e_zero", "1323", None),
    ("f_diag_zero", "1313", None),
    ("f_diag_1", "1212", "2323"),
    ("f_diag_2", "2323", "0101"),
)


def _signed_components(codes) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Signs (0 for None) and index arrays into rv for one side of the table."""
    signs = np.array([0.0 if c is None else -1.0 if c[0] == "-" else 1.0 for c in codes])
    index = np.array([[int(d) for d in (c or "0000").lstrip("-")] for c in codes])
    return signs, tuple(index.T)


_IDENTITY_NAMES = [name for name, _, _ in _IDENTITIES]
_IDENTITY_LHS = _signed_components([lhs for _, lhs, _ in _IDENTITIES])
_IDENTITY_RHS = _signed_components([rhs for _, _, rhs in _IDENTITIES])


def metric_derivatives(jet: FieldJet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (g, dg, ddg) arrays from a coefficient-field jet."""
    g = metric_matrix(jet.value)
    dg = jet.grads[CIRCULANT_INDEX].transpose(2, 0, 1)
    ddg = jet.hessians[CIRCULANT_INDEX].transpose(2, 3, 0, 1)
    return g, dg, ddg


def _connection(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols gamma[k, i, j] and the (0,4) curvature r[i, j, k, l].

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); its derivative
    d_a Gamma^k_ij differentiates both g^{kl} and the bracket.
    """
    ginv = np.linalg.inv(g)
    bracket = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, bracket)
    dginv = -np.einsum("km,amn,nl->akl", ginv, dg, ginv)
    dbracket = (
        np.einsum("aijl->alij", ddg) + np.einsum("ajil->alij", ddg) - ddg
    )
    dgamma = 0.5 * (
        np.einsum("akl,lij->akij", dginv, bracket)
        + np.einsum("kl,alij->akij", ginv, dbracket)
    )
    upper = (
        np.einsum("jmik->ijkm", dgamma)
        - np.einsum("imjk->ijkm", dgamma)
        + np.einsum("mjn,nik->ijkm", gamma, gamma)
        - np.einsum("min,njk->ijkm", gamma, gamma)
    )
    return gamma, np.einsum("lm,ijkm->ijkl", g, upper)


def riemann_core(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """(0,4) curvature r[i, j, k, l], sphere-positive orientation."""
    return _connection(g, dg, ddg)[1]


@dataclass(frozen=True)
class CurvatureTensor:
    """(0,4) Riemann tensor components R(d_i, d_j, d_k, d_l) at a point."""

    r: np.ndarray


@dataclass(frozen=True)
class SectionalReport:
    """Sectional curvatures of the six q-sections of a seed vector.

    Order: {x,qx}, {x,q2x}, {q3x,x}, {qx,q2x}, {qx,q3x}, {q2x,q3x}.
    equality_residual is the max pairwise spread of mu1, mu3, mu4, mu6;
    zero_residual is max(|mu2|, |mu5|).
    """

    mu: np.ndarray
    denominators: np.ndarray
    equality_residual: float
    zero_residual: float


@dataclass(frozen=True)
class PointGeometry:
    """Field jet, metric g, Christoffel symbols gamma[k, i, j] and (0,4)
    Riemann tensor r[i, j, k, l] at one chart point."""

    jet: FieldJet
    g: np.ndarray
    gamma: np.ndarray
    r: np.ndarray

    def nabla_q_residual(self) -> float:
        """Max component of the covariant derivative of the affinor.

        (nabla_i q)_j^k = Gamma^k_im q_j^m - Gamma^m_ij q_m^k; the affinor has
        constant components, so there is no partial-derivative term.
        """
        q = Q_MATRIX.astype(float)
        term1 = np.einsum("kim,jm->ijk", self.gamma, q)
        term2 = np.einsum("mij,mk->ijk", self.gamma, q)
        return float(np.max(np.abs(term1 - term2)))

    def seed_checks(self, x) -> Tuple[SectionalReport, Dict[str, float]]:
        """q-section curvatures and identity residuals of a q-base seed x.

        Both read off rv[a, b, c, d] = R(q^a x, q^b x, q^c x, q^d x) and the
        Gram matrix gram[a, b] = g(q^a x, q^b x) of the orbit V.  Viewing r
        as a 16x16 matrix over index pairs, rv = (V (x) V) r (V (x) V)^T.
        Identity residuals are |lhs - rhs| (or |lhs| for a zero claim)
        normalized by max(1, |rho|).
        """
        x = as_vector4(x)
        if not qbase_predicate(x):
            raise ValueError("seed vector does not generate a q-base (independence polynomial is zero)")
        v = q_orbit(x)
        vv = np.kron(v, v)
        rv = (vv @ self.r.reshape(16, 16) @ vv.T).reshape(4, 4, 4, 4)
        gram = v @ self.g @ v.T

        a, b = _SECTION_A, _SECTION_B
        denoms = gram[a, a] * gram[b, b] - gram[a, b] ** 2
        mu = rv[a, b, a, b] / denoms
        equal_group = mu[[0, 2, 3, 5]]
        sections = SectionalReport(
            mu=mu,
            denominators=denoms,
            equality_residual=float(np.max(equal_group) - np.min(equal_group)),
            zero_residual=float(max(abs(mu[1]), abs(mu[4]))),
        )

        (lhs_sign, lhs), (rhs_sign, rhs) = _IDENTITY_LHS, _IDENTITY_RHS
        norm = max(1.0, abs(float(rv[0, 1, 0, 1])))
        residuals = np.abs(lhs_sign * rv[lhs] - rhs_sign * rv[rhs]) / norm
        return sections, dict(zip(_IDENTITY_NAMES, residuals.tolist()))


def point_geometry(spec: FieldFamilySpec, p) -> PointGeometry:
    """Jet, metric, connection and curvature of g at a chart point, in one pass."""
    jet = eval_jet(spec, p)
    g, dg, ddg = metric_derivatives(jet)
    gamma, r = _connection(g, dg, ddg)
    return PointGeometry(jet=jet, g=g, gamma=gamma, r=r)


def symmetry_residuals(r: np.ndarray) -> Dict[str, float]:
    """Max residuals of the four classical Riemann symmetries."""
    return {
        "antisym_first_pair": float(np.max(np.abs(r + r.transpose(1, 0, 2, 3)))),
        "antisym_last_pair": float(np.max(np.abs(r + r.transpose(0, 1, 3, 2)))),
        "pair_symmetry": float(np.max(np.abs(r - r.transpose(2, 3, 0, 1)))),
        "first_bianchi": float(
            np.max(np.abs(r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)))
        ),
    }


def christoffel(spec: FieldFamilySpec, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of g at a chart point."""
    return point_geometry(spec, p).gamma


def nabla_q_residual(spec: FieldFamilySpec, p) -> float:
    """Max component of nabla q at a chart point (see PointGeometry.nabla_q_residual)."""
    return point_geometry(spec, p).nabla_q_residual()


def riemann(spec: FieldFamilySpec, p) -> CurvatureTensor:
    """(0,4) Riemann tensor of g at a chart point."""
    return CurvatureTensor(r=point_geometry(spec, p).r)


def sectional(spec: FieldFamilySpec, p, x, y, denom_tol: float = 1e-12) -> float:
    """Sectional curvature of the 2-section spanned by x and y."""
    geo = point_geometry(spec, p)
    x = as_vector4(x)
    y = as_vector4(y)
    gxx, gyy, gxy = x @ geo.g @ x, y @ geo.g @ y, x @ geo.g @ y
    denom = float(gxx * gyy - gxy**2)
    if denom <= denom_tol * max(1.0, abs(float(gxx * gyy))):
        raise ValueError(f"degenerate 2-section: Gram determinant {denom} below tolerance")
    return float(np.einsum("ijkl,i,j,k,l->", geo.r, x, y, x, y)) / denom


def q_section_curvatures(spec: FieldFamilySpec, p, x) -> SectionalReport:
    """Sectional curvatures of the six sections spanned by q-iterates of x."""
    return point_geometry(spec, p).seed_checks(x)[0]


def identity_suite(spec: FieldFamilySpec, p, x) -> Dict[str, float]:
    """Residuals of the curvature identities behind the q-section equalities.

    The identities fall into six groups: two reference equalities, four
    vanishing components, two equality chains tying mixed components to
    R(x,qx,x,qx), three more vanishing components, a mixed chain with one
    extra zero, and the final pair of diagonal equalities.  Each residual
    is |LHS - RHS| (or |value| for a zero claim) normalized by
    max(1, |R(x,qx,x,qx)|).
    """
    return point_geometry(spec, p).seed_checks(x)[1]


def q_invariance_residual(spec: FieldFamilySpec, p, vectors: Sequence) -> float:
    """Max normalized |R(x,y,q^k z,q^k u) - R(x,y,z,u)| over k = 1, 2, 3."""
    x, y, z, u = (as_vector4(v) for v in vectors)
    r = point_geometry(spec, p).r
    base = float(np.einsum("ijkl,i,j,k,l->", r, x, y, z, u))
    norm = max(1.0, abs(base))
    worst = 0.0
    for k in (1, 2, 3):
        val = float(np.einsum("ijkl,i,j,k,l->", r, x, y, apply_q(z, k), apply_q(u, k)))
        worst = max(worst, abs(val - base) / norm)
    return worst


def random_qbase_seeds(rng: np.random.Generator, n: int, min_poly: float = 1e-3) -> np.ndarray:
    """Rejection-sample seeds from the unit cube away from degenerate orbits."""
    seeds = []
    while len(seeds) < n:
        x = rng.uniform(-1.0, 1.0, size=4)
        if abs(qbase_polynomial(x)) >= min_poly:
            seeds.append(x)
    return np.stack(seeds)
