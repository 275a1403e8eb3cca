"""Tetrahedron edge lengths and face angles of a q-orbit."""

import math
import re

import numpy as np
import pytest

from circulant4 import CirculantCoeffs, inner, metric_eigenvalues, pyramid_report, qbase_predicate, spectral_frame
from circulant4.curvature import random_qbase_seeds
from conftest import random_admissible


def law_of_cosines_angles(c, x):
    """Base and apex angles of face LNS measured on explicit edge vectors."""
    x = np.asarray(x, dtype=float)
    L, N, S = x, np.roll(x, -1), np.roll(x, -2)

    def angle_at(v, p, q):
        a = p - v
        b = q - v
        return inner(c, a, b) / math.sqrt(inner(c, a, a) * inner(c, b, b))

    return angle_at(L, N, S), angle_at(N, L, S)  # (cos gamma, cos delta)


class TestExampleValues:
    def test_basis_seed(self):
        rep = pyramid_report(CirculantCoeffs(3, 1, 2), [1, 0, 0, 0])
        assert rep.cos_alpha == pytest.approx(1 / 3, rel=1e-14)
        assert rep.cos_beta == pytest.approx(2 / 3, rel=1e-14)
        assert rep.edge_sq_long == pytest.approx(4.0, rel=1e-14)
        assert rep.edge_sq_short == pytest.approx(2.0, rel=1e-14)
        assert rep.cos_gamma == pytest.approx(1 / (2 * math.sqrt(2)), rel=1e-12)
        assert rep.cos_delta == pytest.approx(3 / 4, rel=1e-12)
        assert rep.angle_sum_residual <= 1e-12

    def test_orthonormal_seed_gives_equilateral_faces(self):
        c = CirculantCoeffs(3, 1, 2)
        rep = pyramid_report(c, spectral_frame(c))
        assert rep.cos_gamma == pytest.approx(0.5, abs=1e-9)
        assert rep.cos_delta == pytest.approx(0.5, abs=1e-9)
        assert math.degrees(math.acos(rep.cos_gamma)) == pytest.approx(60.0, abs=1e-7)

    def test_degenerate_seed_rejected(self):
        with pytest.raises(ValueError):
            pyramid_report(CirculantCoeffs(3, 1, 2), [1, 1, 1, 1])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("coeffs,seed,norm_sq", [
        ((1e308, 1, 2), [10, 1, 0, 0], "inf"), ((1e308, 1e300, 1e301), [1e10, 1, 0, 0], "nan"),
    ])
    def test_seed_whose_squared_length_overflows_rejected(self, coeffs, seed, norm_sq):
        message = f"seed {[float(v) for v in seed]} has squared length {norm_sq} under g, not a positive finite float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pyramid_report(CirculantCoeffs(*coeffs), seed)

    def test_seed_whose_polynomial_overflows_rejected_without_a_warning(self):
        # The q-base check comes first: its polynomial overflows to inf here, before g(x, x) does.
        message = "x = [1e+200, 1.0, 0.0, 0.0]: its independence polynomial overflows a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pyramid_report(CirculantCoeffs(3, 1, 2), [1e200, 1, 0, 0])


class TestPositiveDefiniteMetric:
    @pytest.mark.parametrize("coeffs,eigenvalues", [
        ((3.0, 2.0, 1.0), "[8.0, 0.0, 2.0, 2.0]"),       # semi-definite
        ((1.0, 3.0, 2.0), "[9.0, -3.0, -1.0, -1.0]"),    # indefinite
        ((math.nan, 1, 2), "[nan, nan, nan, nan]"),
    ])
    @pytest.mark.parametrize("seed", [[1, 0.5, 0, 0], [1, 1, 1, 1]], ids=["qbase", "not-qbase"])
    def test_rejected_naming_the_eigenvalues_before_the_seed(self, coeffs, eigenvalues, seed):
        message = f"metric is not positive definite: eigenvalues {eigenvalues}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pyramid_report(CirculantCoeffs(*coeffs), seed)

    def test_near_singular_metric_gives_a_degenerate_apex(self):
        # A - C = 1e-9: g is positive definite, but its other eigenvalues are about 1e-9, so nearly all of the
        # seed's g-length lies on the eigenvalue-4 line (1, 1, 1, 1), which q fixes, and cos alpha = g(x, qx) / g(x, x) is within 1e-12 of 1.
        c, x = CirculantCoeffs(1.000000001, 0.9999999995, 1), [1.002, 0.999, 1, 0.999]
        assert all(metric_eigenvalues(c) > 0.0) and qbase_predicate(x)
        with pytest.raises(ValueError, match=r"^degenerate apex: qx is parallel to x \(cos alpha = 1\)$"):
            pyramid_report(c, x)

    @pytest.mark.parametrize("c", ["2.9999999999999", "2.999999999"])
    def test_nearly_fixed_q_squared_gives_a_degenerate_base(self, c):
        # q^2 x - x = (-0.02, 0, 0.02, 0) lies on the eigenvector (1, 0, -1, 0) of g, whose eigenvalue A - C is
        # about 1e-13 or 1e-9 here, so cos beta = g(x, q^2 x) / g(x, x) is within 1e-12 of 1 (1.0 at the first).
        c, x = CirculantCoeffs(3, 1, float(c)), [2.01, 0, 1.99, 0]
        assert all(metric_eigenvalues(c) > 0.0) and qbase_predicate(x)
        with pytest.raises(ValueError, match=r"^degenerate base: q\^2 x is parallel to x \(cos beta = 1\)$"):
            pyramid_report(c, x)

    def test_positive_definite_but_not_admissible_is_accepted(self):
        # B < 0 breaks 0 < B < C < A, but the eigenvalues (3, 5, 2, 2) are positive.
        c, x = CirculantCoeffs(3, -0.5, 1), [1, 0.5, 0, 0]
        rep = pyramid_report(c, x)
        cos_gamma, cos_delta = law_of_cosines_angles(c, x)
        assert rep.cos_gamma == pytest.approx(cos_gamma, abs=1e-12)
        assert rep.cos_delta == pytest.approx(cos_delta, abs=1e-12)
        assert rep.angle_sum_residual <= 1e-12


class TestOracleAgreement:
    def test_angles_match_law_of_cosines(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            c = random_admissible(rng)
            x = random_qbase_seeds(rng, 1)[0]
            rep = pyramid_report(c, x)
            cos_gamma, cos_delta = law_of_cosines_angles(c, x)
            assert rep.cos_gamma == pytest.approx(cos_gamma, abs=1e-9)
            assert rep.cos_delta == pytest.approx(cos_delta, abs=1e-9)

    def test_edge_multiplicities(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            c = random_admissible(rng)
            x = random_qbase_seeds(rng, 1)[0]
            orbit = [np.roll(x, -k) for k in range(4)]
            L, N, S, T = orbit

            def edge_sq(p, q):
                return inner(c, p - q, p - q)

            long_edges = [edge_sq(L, N), edge_sq(N, S), edge_sq(L, T), edge_sq(S, T)]
            short_edges = [edge_sq(L, S), edge_sq(N, T)]
            rep = pyramid_report(c, x)
            for e in long_edges:
                assert e == pytest.approx(rep.edge_sq_long, rel=1e-12)
            for e in short_edges:
                assert e == pytest.approx(rep.edge_sq_short, rel=1e-12)

    def test_angle_sum(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            c = random_admissible(rng)
            x = random_qbase_seeds(rng, 1)[0]
            assert pyramid_report(c, x).angle_sum_residual <= 1e-9
