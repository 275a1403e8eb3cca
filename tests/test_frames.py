"""Orthonormal q-frame constructions and their Gram residual audits."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circulant4 import (
    CirculantCoeffs,
    closed_form_frame,
    is_admissible,
    qbase_predicate,
    spectral_frame,
    verify_frame,
)
from circulant4.algebra import _spectral_seeds
from conftest import random_admissible

# Decades 1e-150 to 1e150, far enough that B^2 and A C stay finite.
scales = st.integers(min_value=-150, max_value=150).map(lambda k: 10.0**k)


@st.composite
def admissible_triples(draw):
    """(A, B, C) with 0 < B < C < A: three distinct magnitudes at one scale."""
    b, c, a = sorted(draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3, unique=True)))
    scale = draw(scales)
    return a * scale, b * scale, c * scale


@st.composite
def ulp_neighbour_triples(draw):
    """(A, B, C) with A 1-4 ulps above C and B 1-4 ulps below it, where the discriminant is smallest."""
    c = draw(st.floats(1.0, 10.0)) * draw(scales)
    a, b = c, c
    for _ in range(draw(st.integers(1, 4))):
        a = math.nextafter(a, math.inf)
    for _ in range(draw(st.integers(1, 4))):
        b = math.nextafter(b, 0.0)
    return a, b, c


class TestSpectralFrame:
    def test_example_weights(self):
        seed = spectral_frame(CirculantCoeffs(3, 1, 2))
        alpha = 1 / (2 * math.sqrt(28))
        beta = 1 / (2 * math.sqrt(12))
        s = 0.5
        expected = (
            alpha * np.ones(4)
            + beta * np.array([1, -1, 1, -1])
            + s * np.array([1, 0, -1, 0])
        )
        assert np.allclose(seed, expected, atol=1e-15)

    def test_example_residual(self):
        c = CirculantCoeffs(3, 1, 2)
        res = verify_frame(c, spectral_frame(c))
        assert res.max_deviation <= 1e-12

    def test_ill_conditioned_but_valid(self):
        eps = 1e-3
        c = CirculantCoeffs(1 + eps, eps / 2, eps)
        res = verify_frame(c, spectral_frame(c))
        assert res.max_deviation <= 1e-10

    def test_rejects_a_equals_c(self):
        with pytest.raises(ValueError):
            spectral_frame(CirculantCoeffs(3, 1, 3))

    def test_returns_the_seed_and_checks_the_arity(self):
        seed = spectral_frame((4, 0.5, 2))
        assert type(seed) is np.ndarray and seed.shape == (4,) and seed.dtype == float
        with pytest.raises(TypeError):
            spectral_frame((4, 0.5))

    def test_seed_is_a_qbase(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            c = random_admissible(rng)
            assert qbase_predicate(spectral_frame(c))

    def test_residual_scales_with_a(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            c = random_admissible(rng, high=50.0)
            res = verify_frame(c, spectral_frame(c))
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
            seed = spectral_frame(c) + rng.normal(size=4) * 1e-6
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
        spectral_res = verify_frame(c, spectral_frame(c))
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

    @given(coeffs=st.one_of(admissible_triples(), ulp_neighbour_triples()))
    @settings(max_examples=300, deadline=None)
    def test_discriminant_is_never_negative(self, coeffs):
        # For 0 < B < C < A the numerator 2B^2 - C^2 - AC of x^1 x^3 is <= 0 in floats too (rounding is
        # monotone), so the audit has no negative-discriminant status: a report's discriminant is NaN after a
        # domain failure and >= 0 otherwise, unless the gate refuses c first.
        try:
            rep = closed_form_frame(CirculantCoeffs(*coeffs))
        except ValueError as exc:
            assert str(exc).startswith(f"coefficients {coeffs}")
            return
        assert math.isnan(rep.discriminant) if rep.status == "sqrt_domain_failure" else rep.discriminant >= 0.0


class TestFloatOverflow:
    """Admissible, finite coefficients whose frame arithmetic overflows (or underflows to a 0 that it divides by)
    raise one ValueError naming them, in place of numpy warnings, a silently wrong seed, Python's OverflowError or
    its ZeroDivisionError."""

    @pytest.mark.parametrize("construct,coeffs", [
        (spectral_frame, (1.7e308, 1e307, 5e307)),  # A + C overflows, so the alpha and beta weights would be 0
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
        assert verify_frame(c, spectral_frame(c)).max_deviation <= 1e-12

    def test_spectral_frame_near_the_float_limit_is_orthonormal(self):
        # A + C + 2B = 1.7e308 is finite; 4 (A + C + 2B) overflows.
        c = CirculantCoeffs(1e308, 1e307, 5e307)
        assert verify_frame(c, spectral_frame(c)).max_deviation <= 1e-12


def _spectral_seeds_as_first_written(coeffs):
    """The seed formula with weights 1/(2 sqrt(4 lam)), lam = A + C +- 2B, and 1/(2 sqrt(A - C))."""
    a, b, cc = np.moveaxis(coeffs, -1, 0)
    alpha = 1.0 / (2.0 * np.sqrt(4.0 * (a + cc + 2.0 * b)))
    beta = 1.0 / (2.0 * np.sqrt(4.0 * (a + cc - 2.0 * b)))
    s = 1.0 / (2.0 * np.sqrt(a - cc))
    return (
        alpha[..., None] * np.array([1.0, 1.0, 1.0, 1.0])
        + beta[..., None] * np.array([1.0, -1.0, 1.0, -1.0])
        + s[..., None] * np.array([1.0, 0.0, -1.0, 0.0])
    )


@st.composite
def triples_up_to_the_limit(draw):
    """Admissible (A, B, C) whose 4 (A + C + 2B) is drawn log-uniformly from 1e-290 up to the float limit."""
    b, c, a = sorted(draw(st.lists(st.floats(1e-3, 1.0), min_size=3, max_size=3, unique=True)))
    scale = 10.0 ** draw(st.floats(-290.0, 308.25)) / (4.0 * (a + c + 2.0 * b))
    return a * scale, b * scale, c * scale


class TestSpectralSeedWeights:
    @settings(max_examples=300, deadline=None)
    @given(triples_up_to_the_limit())
    def test_bit_identical_to_the_first_formula(self, coeffs):
        # 0.25 / sqrt(y) and 1 / (2 sqrt(4 y)) round the same real number, wherever 4 y is finite.
        a, b, c = coeffs
        assume(is_admissible(CirculantCoeffs(a, b, c)) and math.isfinite(4.0 * (a + c + 2.0 * b)))
        coeffs = np.array(coeffs)
        assert _spectral_seeds(coeffs).tobytes() == _spectral_seeds_as_first_written(coeffs).tobytes()
