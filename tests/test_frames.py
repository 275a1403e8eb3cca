"""Orthonormal q-frame constructions and their Gram residual audits."""

import math

import numpy as np
import pytest

from circulant4 import (
    CirculantCoeffs,
    closed_form_frame,
    qbase_predicate,
    spectral_frame,
    verify_frame,
)
from circulant4.algebra import apply_q
from conftest import random_admissible


class TestSpectralFrame:
    def test_example_weights(self):
        frame = spectral_frame(CirculantCoeffs(3, 1, 2))
        alpha = 1 / (2 * math.sqrt(28))
        beta = 1 / (2 * math.sqrt(12))
        s = 0.5
        expected = (
            alpha * np.ones(4)
            + beta * np.array([1, -1, 1, -1])
            + s * np.array([1, 0, -1, 0])
        )
        assert np.allclose(frame.seed, expected, atol=1e-15)

    def test_example_residual(self):
        frame = spectral_frame(CirculantCoeffs(3, 1, 2))
        res = verify_frame(frame.coeffs, frame.seed)
        assert res.max_deviation <= 1e-12

    def test_ill_conditioned_but_valid(self):
        eps = 1e-3
        c = CirculantCoeffs(1 + eps, eps / 2, eps)
        res = verify_frame(c, spectral_frame(c).seed)
        assert res.max_deviation <= 1e-10

    def test_rejects_a_equals_c(self):
        with pytest.raises(ValueError):
            spectral_frame(CirculantCoeffs(3, 1, 3))

    def test_vectors_are_exact_q_iterates(self):
        frame = spectral_frame(CirculantCoeffs(4, 0.5, 2))
        for k in range(4):
            assert np.array_equal(frame.vectors[k], apply_q(frame.seed, k))

    def test_seed_is_a_qbase(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            c = random_admissible(rng)
            assert qbase_predicate(spectral_frame(c).seed)

    def test_residual_scales_with_a(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            c = random_admissible(rng, high=50.0)
            res = verify_frame(c, spectral_frame(c).seed)
            assert res.max_deviation <= 1e-12 * (1 + c.a)


class TestVerifyFrame:
    def test_euclidean_standard_basis(self):
        res = verify_frame(CirculantCoeffs(1, 0, 0), [1, 0, 0, 0])
        assert np.array_equal(res.gram, np.eye(4))
        assert res.max_deviation == 0

    def test_degenerate_orbit_all_entries_equal(self):
        c = CirculantCoeffs(3, 1, 2)
        res = verify_frame(c, [1, 1, 1, 1])
        assert np.ptp(res.gram) == pytest.approx(0.0, abs=1e-12)
        assert res.max_deviation > 0

    def test_gram_is_circulant(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            c = random_admissible(rng)
            seed = rng.normal(size=4)
            gram = verify_frame(c, seed).gram
            for i in range(4):
                for j in range(4):
                    assert gram[i, j] == pytest.approx(
                        gram[(i + 1) % 4, (j + 1) % 4], abs=1e-12 * (1 + abs(gram[i, j]))
                    )

    def test_partial_orthogonality_completes(self):
        # If g(x,x)=1, g(x,qx)=0, g(x,q^2 x)=0 hold to tol, the whole Gram
        # matrix matches the identity to 4*tol.
        rng = np.random.default_rng(24)
        for _ in range(100):
            c = random_admissible(rng)
            seed = spectral_frame(c).seed + rng.normal(size=4) * 1e-6
            res = verify_frame(c, seed)
            tol = max(abs(res.gram[0, 0] - 1), abs(res.gram[0, 1]), abs(res.gram[0, 2]))
            assert res.max_deviation <= 4 * tol + 1e-14


class TestClosedFormFrame:
    def test_candidate_present_when_real(self):
        rep = closed_form_frame(CirculantCoeffs(4, 1, 2))  # A+B-2C = 1 > 0
        assert rep.candidate is not None
        assert rep.residual is not None
        assert rep.status in ("ok", "residual_exceeds_tolerance")

    def test_sqrt_domain_failure(self):
        rep = closed_form_frame(CirculantCoeffs(3, 0.5, 2.5))  # A+B-2C = -1.5
        assert rep.status == "sqrt_domain_failure"
        assert rep.candidate is None

    def test_root_order(self):
        rep = closed_form_frame(CirculantCoeffs(4, 1, 2))
        assert rep.candidate[0] >= rep.candidate[2]  # x1 takes the larger root
        assert rep.candidate[3] == 0.0

    def test_discriminant_consistency(self):
        rep = closed_form_frame(CirculantCoeffs(4, 1, 2))
        assert rep.discriminant == pytest.approx(
            rep.sum_x1_x3**2 - 4 * rep.prod_x1_x3, rel=1e-12
        )

    def test_side_by_side_with_spectral(self):
        c = CirculantCoeffs(4, 1, 2)
        audit = closed_form_frame(c)
        spectral_res = verify_frame(c, spectral_frame(c).seed)
        # The audited radical formulas do not beat the spectral construction.
        assert spectral_res.max_deviation <= audit.residual.max_deviation

    def test_rejects_non_admissible(self):
        with pytest.raises(ValueError):
            closed_form_frame(CirculantCoeffs(1, 2, 3))

    def test_never_crashes_on_admissible_sample(self):
        rng = np.random.default_rng(25)
        statuses = set()
        for _ in range(300):
            rep = closed_form_frame(random_admissible(rng))
            statuses.add(rep.status)
        assert statuses  # every admissible triple yields a report


class TestFloatOverflow:
    """Admissible, finite coefficients whose frame arithmetic overflows (or underflows to a 0 that it divides by)
    raise one ValueError naming them, in place of numpy warnings, a silently wrong seed, Python's OverflowError or
    its ZeroDivisionError."""

    @pytest.mark.parametrize("construct,coeffs", [
        (spectral_frame, (1.7e308, 1e307, 5e307)),  # 4 (A + 2B + C) overflows, so the alpha weight would be 0
        (closed_form_frame, (1.7e308, 1e307, 5e307)),  # A + B + 2C overflows
        (closed_form_frame, (1e200, 1e199, 5e199)),  # B^2 overflows
        (closed_form_frame, (1e160, 1.0, 2.0)),  # A C overflows
        (closed_form_frame, (4e-300, 1e-300, 2e-300)),  # x^1 x^3 is 0 / 0: both its terms underflow to 0
    ])
    def test_overflow_raises_naming_the_coefficients(self, construct, coeffs):
        message = r"^coefficients \(.*\): float arithmetic fails in the .* \((overflow|invalid value) encountered in "
        with pytest.raises(ValueError, match=message):
            construct(CirculantCoeffs(*coeffs))

    def test_spectral_frame_below_the_limit_is_orthonormal(self):
        c = CirculantCoeffs(1e200, 1e199, 5e199)
        assert verify_frame(c, spectral_frame(c).seed).max_deviation <= 1e-12
