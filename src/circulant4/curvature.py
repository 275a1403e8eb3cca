"""Levi-Civita connection and curvature of the circulant metric.

The core routines work on raw arrays (g, dg, ddg) where

    g[i, j]        metric components,
    dg[a, i, j]    = d_a g_ij,
    ddg[a, b, i, j] = d_a d_b g_ij,

so they can be exercised against arbitrary metrics in tests; inside a
``PointGeometry`` every array gains a leading axis over a block of points.
``PointGeometry.from_field`` is the one pass from the block jet of a field
to metric, Christoffel symbols and Riemann tensor; every entry of g is one
of A, B, C, selected by the circulant offset (j - i) mod 4, and g^{-1} is
circulant in closed form.  Every quantity here is a function of the jet
at a point alone, so the pass keeps one row per distinct jet of the block
(bit for bit) and maps each point to its row.  ``point_geometry`` and the
public functions taking a coefficient-field spec and a chart point are
views over a block of one.  Seed-level quantities read off R in the
q-orbit basis (x, qx, q^2 x, q^3 x), one projection per row for all seeds.

The (0,4) tensor is read off the second derivatives of g and the Christoffel
symbols of the first and second kind (Eisenhart, Riemannian Geometry, 1926, section 8):

    R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik)
             + Gamma_{m,jk} Gamma^m_il - Gamma_{m,ik} Gamma^m_jl.

Its orientation makes the sectional curvature R(x,y,x,y) / (g(x,x)g(y,y) - g(x,y)^2)
of a round sphere positive (checked in the test suite against a product metric
containing a unit 2-sphere).  All verified identities are equalities and zeros,
hence independent of this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .algebra import (
    CIRCULANT_INDEX,
    ORBIT_INDEX,
    CirculantCoeffs,
    _finite_qbase_polynomials,
    apply_q,
    as_vector4,
    metric_eigenvalues,
    orbit_gram,
    qbase_polynomial,
)
from .fields import FieldFamilySpec, FieldJet, eval_jets

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


IDENTITY_NAMES = [name for name, _, _ in _IDENTITIES]
_IDENTITY_LHS = _signed_components([lhs for _, lhs, _ in _IDENTITIES])
_IDENTITY_RHS = _signed_components([rhs for _, _, rhs in _IDENTITIES])
SYMMETRY_NAMES = ["antisym_first_pair", "antisym_last_pair", "pair_symmetry", "first_bianchi"]
# The components rv[a, b, c, d] that seed_checks reads: the six section
# numerators, then both sides of the identity table.  Only their index
# pairs (a, b) and (c, d) are projected.
_READ = np.concatenate([[_SECTION_A, _SECTION_B, _SECTION_A, _SECTION_B], _IDENTITY_LHS[1], _IDENTITY_RHS[1]], axis=1)
_ROWS, _ROW_OF = np.unique(4 * _READ[0] + _READ[1], return_inverse=True)
_COLS, _COL_OF = np.unique(4 * _READ[2] + _READ[3], return_inverse=True)
# (row, seed) pairs that seed_checks projects at once, about 5 kB each, so its projections take at most about
# 20 MB however many seeds it is given; a verify run's point blocks hold at most this many (point, seed) pairs.
_BLOCK_PAIRS = 4096


def _metric_arrays(coeffs: np.ndarray, grads: np.ndarray, hessians: np.ndarray):
    """(g, dg, ddg) from jets (..., 3), (..., 3, 4), (..., 3, 4, 4); leading axes kept."""
    g = coeffs[..., CIRCULANT_INDEX]
    dg = np.moveaxis(grads[..., CIRCULANT_INDEX, :], -1, -3)
    ddg = np.moveaxis(hessians[..., CIRCULANT_INDEX, :, :], (-2, -1), (-4, -3))
    return g, dg, ddg


def metric_derivatives(jet: FieldJet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (g, dg, ddg) arrays from a coefficient-field jet."""
    return _metric_arrays(np.array(jet.value, dtype=float), jet.grads, jet.hessians)


def _circulant_inverse(coeffs: np.ndarray) -> np.ndarray:
    """Inverse metrics (..., 4, 4) of generators (..., 3): the circulant matrices whose
    generators are the inverse DFT of the reciprocal eigenvalues of g (Gray,
    Toeplitz and Circulant Matrices: A Review, 2006)."""
    m0, m2, m1, _ = 1.0 / metric_eigenvalues(CirculantCoeffs(*np.moveaxis(coeffs, -1, 0)))
    return (np.stack([m0 + m2 + 2 * m1, m0 - m2, m0 + m2 - 2 * m1], axis=-1) / 4)[..., CIRCULANT_INDEX]


def _connection(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray, ginv: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Christoffel symbols gamma[..., k, i, j] and the (0,4) curvature r[..., i, j, k, l].

    With Gamma_{l,ij} = 1/2 (d_i g_jl + d_j g_il - d_l g_ij) and Gamma^k_ij = g^{kl} Gamma_{l,ij},
    R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik) + P_jkil - P_ikjl
    for P_jkil = Gamma_{m,jk} Gamma^m_il, one (16x4)@(4x16) product per row.  It is formed as
    W_ijkl - W_jikl for W_ijkl = 1/2 (d_j d_k g_il - d_j d_l g_ik) + P_jkil, so it is antisymmetric
    in (i, j) bit for bit.  Leading axes of all arguments are a block of points.
    """
    lead = g.shape[:-2]
    first = 0.5 * (np.moveaxis(dg, -1, -3) + np.swapaxes(dg, -1, -3) - dg).reshape(lead + (4, 16))
    gamma = ginv @ first
    p = (np.swapaxes(first, -1, -2) @ gamma).reshape(lead + (4, 4, 4, 4))
    w = np.moveaxis(0.5 * (ddg - np.swapaxes(ddg, -3, -1)) + p, -2, -4)
    return gamma.reshape(lead + (4, 4, 4)), w - np.swapaxes(w, -4, -3)


def riemann_core(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """(0,4) curvature r[i, j, k, l] of an arbitrary metric, sphere-positive orientation:
    R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik)
    + Gamma_{m,jk} Gamma^m_il - Gamma_{m,ik} Gamma^m_jl (see _connection)."""
    return _connection(g, dg, ddg, np.linalg.inv(g))[1]


@dataclass(frozen=True)
class CurvatureTensor:
    """(0,4) Riemann tensor components R(d_i, d_j, d_k, d_l) at a point."""

    r: np.ndarray


@dataclass(frozen=True)
class SectionalReport:
    """Sectional curvatures of the six q-sections of a seed vector.

    Order: {x,qx}, {x,q2x}, {q3x,x}, {qx,q2x}, {qx,q3x}, {q2x,q3x}.
    equality_residual is the max pairwise spread of mu1, mu3, mu4, mu6;
    zero_residual is max(|mu2|, |mu5|).  From PointGeometry.seed_checks
    every field carries leading (row, seed) axes.
    """

    mu: np.ndarray
    denominators: np.ndarray
    equality_residual: float
    zero_residual: float


@dataclass(frozen=True)
class PointGeometry:
    """Geometry at a block of N chart points, one row per distinct field jet.

    Point n has row rows[n]; each other array has a leading axis over the
    R rows: field values coeffs[m] = (A, B, C), their gradients grads[m]
    (3, 4), metric g[m], Christoffel symbols gamma[m, k, i, j] and (0,4)
    Riemann tensor r[m, i, j, k, l].  Rows are in the order their jets are
    first seen, so a block of one has rows == [0]."""

    coeffs: np.ndarray
    grads: np.ndarray
    g: np.ndarray
    gamma: np.ndarray
    r: np.ndarray
    rows: np.ndarray

    @classmethod
    def from_field(cls, spec: FieldFamilySpec, points: np.ndarray) -> "PointGeometry":
        """Metric, connection and curvature of a coefficient field at chart points (N, 4), once per distinct jet."""
        coeffs, grads, hessians = eval_jets(spec, points)
        jets = np.concatenate([coeffs, grads.reshape(-1, 12), hessians.reshape(-1, 48)], axis=1)
        keys = jets.view(f"V{jets.itemsize * jets.shape[1]}").ravel().tolist()  # each point's jet as bytes
        first: Dict[bytes, int] = {}  # bit patterns, not values: 0.0 == -0.0, and a NaN equals nothing
        rows = np.array([first.setdefault(key, len(first)) for key in keys], dtype=int)
        take = np.unique(rows, return_index=True)[1]
        coeffs, grads = coeffs[take], grads[take]
        g, dg, ddg = _metric_arrays(coeffs, grads, hessians[take])
        gamma, r = _connection(g, dg, ddg, _circulant_inverse(coeffs))
        return cls(coeffs=coeffs, grads=grads, g=g, gamma=gamma, r=r, rows=rows)

    def nabla_q_residual(self) -> np.ndarray:
        """(R,) max component of the covariant derivative of the affinor.

        (nabla_i q)_j^k = Gamma^k_im q_j^m - Gamma^m_ij q_m^k; the affinor has
        constant components, so there is no partial-derivative term.  With
        q_j^m = 1 exactly for m = j+1 (mod 4) this is
        Gamma^k_{i,j+1} - Gamma^{k-1}_{ij}.
        """
        diff = self.gamma[..., ORBIT_INDEX[1]] - self.gamma[:, ORBIT_INDEX[3]]
        return np.max(np.abs(diff), axis=(1, 2, 3))

    def symmetry_residuals(self) -> np.ndarray:
        """(R, 4) Riemann symmetry residuals, columns in SYMMETRY_NAMES order."""
        return _symmetry_table(self.r)

    def seed_checks(self, seeds) -> Tuple[SectionalReport, np.ndarray]:
        """q-section curvatures and identity residuals of q-base seeds (S, 4).

        Both read off rv[m, s, a, b, c, d] = R(q^a x, q^b x, q^c x, q^d x) at
        row m for seed x = seeds[s], and the Gram matrices
        gram[m, s, a, b] = g(q^a x, q^b x).  Viewing r as a 16x16 matrix
        over index pairs, rv = (V (x) V) r (V (x) V)^T for the orbit basis V
        of a seed, of which only the rows and columns read are formed, for
        at most _BLOCK_PAIRS (row, seed) pairs at once.  The report's fields
        are (R, S, ...) arrays; identity residuals (R, S, 19), in
        IDENTITY_NAMES order, are |lhs - rhs| (or |lhs| for a zero claim)
        normalized by max(1, |rho|).
        """
        seeds = np.asarray(seeds, dtype=float)
        if not np.all(_finite_qbase_polynomials(seeds, "seeds[{}]") != 0.0):
            raise ValueError("seed vector does not generate a q-base (independence polynomial is zero)")
        gram = orbit_gram(self.coeffs[:, None], seeds)
        r, step = self.r.reshape(-1, 1, 16, 16), max(1, _BLOCK_PAIRS // len(self.r))
        read = []
        for v in np.split(seeds[:, ORBIT_INDEX], range(step, len(seeds), step)):
            vv = (v[:, :, None, :, None] * v[:, None, :, None, :]).reshape(-1, 16, 16)
            read.append((vv[:, _ROWS] @ r @ np.swapaxes(vv[:, _COLS], -1, -2))[..., _ROW_OF, _COL_OF])
        numerators, lhs, rhs = np.split(np.concatenate(read, axis=1), [6, 6 + len(IDENTITY_NAMES)], axis=-1)

        a, b = _SECTION_A, _SECTION_B
        denoms = gram[..., a, a] * gram[..., b, b] - gram[..., a, b] ** 2
        mu = numerators / denoms
        equal_group = mu[..., [0, 2, 3, 5]]
        sections = SectionalReport(
            mu, denoms, np.ptp(equal_group, axis=-1), np.maximum(np.abs(mu[..., 1]), np.abs(mu[..., 4]))
        )
        norm = np.maximum(1.0, np.abs(numerators[..., :1]))  # rho = R(x, qx, x, qx)
        residuals = np.abs(_IDENTITY_LHS[0] * lhs - _IDENTITY_RHS[0] * rhs) / norm
        return sections, residuals


def point_geometry(spec: FieldFamilySpec, p) -> PointGeometry:
    """Jet, metric, connection and curvature of g at a chart point, as a block of one."""
    return PointGeometry.from_field(spec, as_vector4(p)[None])


def _symmetry_table(r: np.ndarray) -> np.ndarray:
    """Max residuals (N, 4) of the classical symmetries of tensors r (N, 4, 4, 4, 4)."""
    t = r.transpose
    terms = (r + t(0, 2, 1, 3, 4), r + t(0, 1, 2, 4, 3), r - t(0, 3, 4, 1, 2), r + t(0, 2, 3, 1, 4) + t(0, 3, 1, 2, 4))
    return np.stack([np.max(np.abs(term), axis=(1, 2, 3, 4)) for term in terms], axis=1)


def symmetry_residuals(r: np.ndarray) -> Dict[str, float]:
    """Max residuals of the four classical Riemann symmetries."""
    return dict(zip(SYMMETRY_NAMES, _symmetry_table(r[None])[0].tolist()))


def christoffel(spec: FieldFamilySpec, p) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of g at a chart point."""
    return point_geometry(spec, p).gamma[0]


def nabla_q_residual(spec: FieldFamilySpec, p) -> float:
    """Max component of nabla q at a chart point (see PointGeometry.nabla_q_residual)."""
    return float(point_geometry(spec, p).nabla_q_residual()[0])


def riemann(spec: FieldFamilySpec, p) -> CurvatureTensor:
    """(0,4) Riemann tensor of g at a chart point."""
    return CurvatureTensor(r=point_geometry(spec, p).r[0])


# A 2-section is degenerate when its Gram determinant is at most this times max(1, g(x,x) g(y,y)).
_SECTION_DENOM_TOL = 1e-12


def sectional(spec: FieldFamilySpec, p, x, y) -> float:
    """Sectional curvature of the 2-section spanned by x and y."""
    geo = point_geometry(spec, p)
    g = geo.g[0]
    x = as_vector4(x)
    y = as_vector4(y)
    gxx, gyy, gxy = x @ g @ x, y @ g @ y, x @ g @ y
    denom = float(gxx * gyy - gxy**2)
    if denom <= _SECTION_DENOM_TOL * max(1.0, abs(float(gxx * gyy))):
        raise ValueError(f"degenerate 2-section: Gram determinant {denom} below tolerance")
    return float(np.einsum("ijkl,i,j,k,l->", geo.r[0], x, y, x, y)) / denom


def q_section_curvatures(spec: FieldFamilySpec, p, x) -> SectionalReport:
    """Sectional curvatures of the six sections spanned by q-iterates of x."""
    s, _ = point_geometry(spec, p).seed_checks(as_vector4(x)[None])
    return SectionalReport(s.mu[0, 0], s.denominators[0, 0], float(s.equality_residual[0, 0]), float(s.zero_residual[0, 0]))


def identity_suite(spec: FieldFamilySpec, p, x) -> Dict[str, float]:
    """Residuals of the curvature identities behind the q-section equalities.

    The identities fall into six groups: two reference equalities, four
    vanishing components, two equality chains tying mixed components to
    R(x,qx,x,qx), three more vanishing components, a mixed chain with one
    extra zero, and the final pair of diagonal equalities.  Each residual
    is |LHS - RHS| (or |value| for a zero claim) normalized by
    max(1, |R(x,qx,x,qx)|).
    """
    _, residuals = point_geometry(spec, p).seed_checks(as_vector4(x)[None])
    return dict(zip(IDENTITY_NAMES, residuals[0, 0].tolist()))


def q_invariance_residual(spec: FieldFamilySpec, p, vectors: Sequence) -> float:
    """Max normalized |R(x,y,q^k z,q^k u) - R(x,y,z,u)| over k = 1, 2, 3."""
    x, y, z, u = (as_vector4(v) for v in vectors)
    r = point_geometry(spec, p).r[0]
    base = float(np.einsum("ijkl,i,j,k,l->", r, x, y, z, u))
    norm = max(1.0, abs(base))
    worst = 0.0
    for k in (1, 2, 3):
        val = float(np.einsum("ijkl,i,j,k,l->", r, x, y, apply_q(z, k), apply_q(u, k)))
        worst = max(worst, abs(val - base) / norm)
    return worst


# Smallest |P(x)|, the q-base independence polynomial, a random seed may have.
_MIN_QBASE_POLY = 1e-3


def random_qbase_seeds(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rejection-sample seeds from the unit cube away from degenerate orbits."""
    seeds = []
    while len(seeds) < n:
        x = rng.uniform(-1.0, 1.0, size=4)
        if abs(qbase_polynomial(x)) >= _MIN_QBASE_POLY:
            seeds.append(x)
    return np.stack(seeds)
