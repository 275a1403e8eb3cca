"""Pointwise q-action, metric assembly, and independence criteria."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant4 import (
    CirculantCoeffs,
    RunConfig,
    apply_q,
    closed_form_frame,
    det_qorbit,
    identity_suite,
    inner,
    is_admissible,
    make_custom_family,
    make_family,
    metric_det_closed,
    metric_eigenvalues,
    metric_matrix,
    pyramid_report,
    q_section_curvatures,
    qbase_polynomial,
    qbase_predicate,
    spectral_frame,
)
from circulant4.algebra import Q_MATRIX
from circulant4.fields import eval_jets

# s spans the q-fixed line, u the line q negates, r one vector of the plane q turns by a right angle.
S, U, R = np.ones(4), np.array([1.0, -1.0, 1.0, -1.0]), np.array([1.0, 0.0, -1.0, 0.0])

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
vec4 = st.tuples(finite, finite, finite, finite)


class TestApplyQ:
    def test_shift(self):
        assert np.array_equal(apply_q([1, 2, 3, 4], 1), [2, 3, 4, 1])

    def test_fourth_power_is_identity(self):
        assert np.array_equal(apply_q([1, 0, 0, 0], 4), [1, 0, 0, 0])

    def test_fixed_vector(self):
        assert np.array_equal(apply_q([1, 1, 1, 1], 1), [1, 1, 1, 1])

    def test_q4_identity_exact_integer(self):
        q4 = np.linalg.matrix_power(Q_MATRIX, 4)
        assert np.array_equal(q4, np.eye(4, dtype=np.int64))

    def test_q_and_q2_differ_from_plus_minus_identity(self):
        eye = np.eye(4, dtype=np.int64)
        for power in (1, 2):
            qk = np.linalg.matrix_power(Q_MATRIX, power)
            assert not np.array_equal(qk, eye)
            assert not np.array_equal(qk, -eye)

    def test_negative_and_large_k(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(apply_q(x, -1), apply_q(x, 3))
        assert np.array_equal(apply_q(x, 7), apply_q(x, 3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            apply_q([np.nan, 0, 0, 0])

    @pytest.mark.parametrize("x,shape", [([1, 2, 3], "(3,)"), ([[1, 2, 3, 4]], "(1, 4)")])
    def test_rejects_wrong_shape(self, x, shape):
        with pytest.raises(ValueError, match=f"^expected 4 components, got shape {re.escape(shape)}$"):
            apply_q(x)


class TestMetricMatrix:
    def test_first_row(self):
        g = metric_matrix(CirculantCoeffs(3, 1, 2))
        assert np.array_equal(g[0], [3, 1, 2, 1])

    def test_identity_coeffs(self):
        assert np.array_equal(metric_matrix(CirculantCoeffs(1, 0, 0)), np.eye(4))

    def test_symmetric_and_circulant(self):
        g = metric_matrix(CirculantCoeffs(3.7, -1.2, 0.4))
        assert np.array_equal(g, g.T)
        for i in range(4):
            for j in range(4):
                assert g[i, j] == g[(i + 1) % 4, (j + 1) % 4]

    def test_det_matches_lu(self):
        c = CirculantCoeffs(3, 1, 2)
        assert metric_det_closed(c) == pytest.approx(np.linalg.det(metric_matrix(c)), rel=1e-12)


class TestDeterminant:
    def test_example_value(self):
        # (3-2)^2 * ((3+2)^2 - 4) = 1 * 21
        assert metric_det_closed(CirculantCoeffs(3, 1, 2)) == 21

    def test_a_equals_c_vanishes(self):
        assert metric_det_closed(CirculantCoeffs(2.5, 0.3, 2.5)) == 0

    def test_sum_squared_equals_4b2_vanishes(self):
        # (3+1)^2 = 4*2^2
        assert metric_det_closed(CirculantCoeffs(3, 2, 1)) == 0

    def test_against_lu_oracle_bulk(self):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            c = CirculantCoeffs(*rng.uniform(-10, 10, size=3))
            lu = np.linalg.det(metric_matrix(c))
            assert abs(metric_det_closed(c) - lu) <= 1e-10 * max(1.0, abs(lu))

    @pytest.mark.parametrize("c", [(1e200, 1e199, 5e199), (1.2e154, 1e150, 1e151)], ids=["power", "product"])
    def test_overflowing_determinant_raises_naming_the_coefficients(self, c):
        # Python's float ** raised OverflowError for the first; * gave inf for the second.
        message = f"(A, B, C) = {list(c)}: its closed-form determinant overflows a float"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                metric_det_closed(CirculantCoeffs(*c))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                metric_det_closed(CirculantCoeffs(*np.array(c)))


class TestEigenvalues:
    def test_example(self):
        assert np.array_equal(metric_eigenvalues(CirculantCoeffs(3, 1, 2)), [7, 3, 1, 1])

    def test_identity(self):
        assert np.array_equal(metric_eigenvalues(CirculantCoeffs(1, 0, 0)), [1, 1, 1, 1])

    def test_matches_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = CirculantCoeffs(*rng.uniform(-10, 10, size=3))
            expected = np.sort(np.linalg.eigvalsh(metric_matrix(c)))
            assert np.allclose(np.sort(metric_eigenvalues(c)), expected, atol=1e-10)

    def test_positive_under_admissibility(self):
        rng = np.random.default_rng(6)
        count = 0
        while count < 1000:
            b, c, a = np.sort(rng.uniform(0.01, 10, size=3))
            coeffs = CirculantCoeffs(a, b, c)
            if not is_admissible(coeffs):
                continue
            count += 1
            assert np.all(metric_eigenvalues(coeffs) > 0)
            np.linalg.cholesky(metric_matrix(coeffs))  # must not raise

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_overflowing_sum_is_inf_without_a_warning(self, cast):
        # numpy scalars warned "overflow encountered in scalar add" where Python floats gave inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eigenvalues = metric_eigenvalues(CirculantCoeffs(*map(cast, (1.7e308, 1e307, 5e307))))
        assert eigenvalues.tolist() == [math.inf, math.inf, 1.7e308 - 5e307, 1.7e308 - 5e307]

    def test_product_equals_determinant(self):
        c = CirculantCoeffs(4.2, -0.7, 1.9)
        assert np.prod(metric_eigenvalues(c)) == pytest.approx(metric_det_closed(c), rel=1e-12)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ((3, 1, 2), True),
            ((3, 2, 2), False),  # B = C breaks strictness
            ((2, 1, 3), False),  # C > A
            ((3, 0, 2), False),  # B = 0
            ((3, -1, 2), False),
        ],
    )
    def test_chain(self, coeffs, expected):
        assert is_admissible(CirculantCoeffs(*coeffs)) is expected

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    def test_non_finite_a_is_not_admissible(self, a):
        c = CirculantCoeffs(a, 1, 2)
        assert is_admissible(c) is False
        for frame in (spectral_frame, closed_form_frame):
            with pytest.raises(ValueError, match="violate 0 < B < C < A"):
                frame(c)

    @pytest.mark.parametrize("coeffs,suffix", [
        ((math.inf, 1, 2), "A = inf (need A finite)"),
        ((math.nan, 1, 2), "C = 2.0, A = nan (need C < A)"),
        ((3, math.nan, 2), "B = nan (need 0 < B)"),
        ((3, 1, math.nan), "B = 1.0, C = nan (need B < C)"),
    ])
    def test_non_finite_triple_is_refused_everywhere_with_one_text(self, coeffs, suffix):
        assert is_admissible(CirculantCoeffs(*coeffs)) is False
        custom = make_custom_family(lambda p: coeffs, lambda p: np.zeros((3, 4)), lambda p: np.zeros((3, 4, 4)))
        refusals = [
            (lambda: make_family("constant", coeffs), "constant: "),
            (lambda: eval_jets(custom, np.zeros((1, 4))), "inadmissible at [0.0, 0.0, 0.0, 0.0]: "),
            (lambda: spectral_frame(coeffs), f"coefficients {coeffs} violate 0 < B < C < A: "),
            (lambda: closed_form_frame(coeffs), f"coefficients {coeffs} violate 0 < B < C < A: "),
        ]
        for refuse, prefix in refusals:
            with pytest.raises(ValueError) as info:
                refuse()
            assert str(info.value) == prefix + suffix


class TestInner:
    def test_reads_entries(self):
        c = CirculantCoeffs(3, 1, 2)
        e1, e2, e3 = np.eye(4)[:3]
        assert inner(c, e1, e2) == 1
        assert inner(c, e1, e3) == 2
        assert inner(c, e1, e1) == 3

    def test_symmetric(self):
        c = CirculantCoeffs(3.3, 0.9, 2.1)
        x = [1.0, -2.0, 0.5, 3.0]
        y = [0.3, 0.7, -1.1, 2.2]
        assert inner(c, x, y) == pytest.approx(inner(c, y, x), rel=1e-14)

    @given(coeffs=st.tuples(finite, finite, finite), x=vec4, y=vec4)
    @settings(max_examples=300, deadline=None)
    def test_q_invariance(self, coeffs, x, y):
        c = CirculantCoeffs(*coeffs)
        base = inner(c, x, y)
        shifted = inner(c, apply_q(x), apply_q(y))
        assert abs(shifted - base) <= 1e-12 * (1 + abs(base))


class TestQBasePredicate:
    def test_basis_vector(self):
        assert qbase_predicate([1, 0, 0, 0])
        assert qbase_polynomial([1, 0, 0, 0]) == 1

    def test_all_ones_degenerate(self):
        assert not qbase_predicate([1, 1, 1, 1])

    def test_zero_coordinate_sum_degenerate(self):
        # x + qx + q^2 x + q^3 x = 0, so the orbit cannot span
        assert not qbase_predicate([1, -1, 0, 0])
        assert det_qorbit([1, -1, 0, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_alternating_degenerate(self):
        assert not qbase_predicate([1, 0, 1, 0])

    @pytest.mark.parametrize("x", [[1e200, 0, -1e200, 0], [1e200, 1, 0, 0]], ids=["nan", "inf"])
    def test_overflowing_polynomial_raises_naming_x(self, x):
        # The exact polynomial of the first is 0 (x1 - x2 + x3 - x4 = 0); its float is inf * 0 = NaN, and NaN != 0.
        message = f"x = {[float(v) for v in x]}: its independence polynomial overflows a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qbase_predicate(x)

    @pytest.mark.parametrize("x", [[1e200, 0, -1e200, 0], [1e200, 1, 0, 0]], ids=["nan", "inf"])
    def test_overflowing_polynomial_value_raises_naming_x(self, x):
        # The polynomial itself goes through the same check, not only the predicate built on it.
        message = f"x = {[float(v) for v in x]}: its independence polynomial overflows a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qbase_polynomial(x)

    @pytest.mark.parametrize("x,accepted", [
        ([1, 0, 0, 0], True),
        ([1, 1, 1, 1], False),
        ([1, 1, 1, 1.0000000001], False),  # P(x) = -4.0e-30 against (x.x)^2 = 16
        ([1e-80, 0, 0, 0], True),  # P(x) = 1e-320 is subnormal, its floor 1e-332 underflows to 0
        ([1e-100, 0, 0, 0], False),  # P(x) underflows to 0
        (S + 1e-6 * U + 1e-3 * R, True),  # |P(x)| / (x.x)^2 = 4e-12
        (S + 1e-7 * U + 1e-3 * R, False),  # |P(x)| / (x.x)^2 = 4e-13
    ], ids=["e1", "ones", "reproducer", "tiny-e1", "underflow-e1", "ratio-4e-12", "ratio-4e-13"])
    def test_config_library_predicate_and_pyramid_decide_alike(self, x, accepted):
        # Each refusal names the seed its own way, then gives one reason text; no decider warns.
        x = [float(v) for v in x]
        spec, point = make_family("s_wave", (2.0, 0.1, 3.0, 1.0)), [0.3, -0.2, 0.5, 0.1]
        deciders = [
            (f"seeds[0] = {x}", lambda: RunConfig({"family": {"name": "s_wave", "params": list(spec.params)},
                                                   "points": [point], "seeds": [x]})),
            (f"seeds[0] = {x}", lambda: q_section_curvatures(spec, point, x)),
            (f"seeds[0] = {x}", lambda: identity_suite(spec, point, x)),
            ("seed vector", lambda: pyramid_report(CirculantCoeffs(3, 1, 2), x)),
        ]
        reasons = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qbase_predicate(x) is accepted
            for prefix, decide in deciders:
                try:
                    decide()
                    reasons.append(None)
                except ValueError as exc:  # ConfigError is a ValueError
                    assert str(exc).startswith(f"{prefix} ")
                    reasons.append(str(exc)[len(prefix) + 1:])
        if accepted:
            assert reasons == [None] * len(deciders)
        else:
            assert len(set(reasons)) == 1
            assert reasons[0].startswith(("does not generate a q-base", "is nearly degenerate: "))

    def test_orbit_determinant_examples(self):
        assert abs(det_qorbit([1, 0, 0, 0])) == pytest.approx(1.0, rel=1e-14)
        assert det_qorbit([1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("x", [[1e-310, 0, 0, 0], [5e-324, 0, 0, 0], [1e-100, 0, 0, 0]],
                             ids=["subnormal", "smallest-subnormal", "tiny"])
    def test_underflowing_orbit_determinant_is_zero_without_a_warning(self, x):
        # numpy's det is sign exp(log |det|); for a subnormal x it took log 0 and warned of a division by zero.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert det_qorbit(x) == 0.0

    @pytest.mark.parametrize("x", [[1e100, 0, 0, 0], [1e80, 1, 2, 3]], ids=["e1", "mixed"])
    def test_overflowing_orbit_determinant_raises_naming_x(self, x):
        # numpy's det warned of an overflow and returned -inf.
        message = f"x = {[float(v) for v in x]}: its orbit determinant overflows a float"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                det_qorbit(x)

    def test_orbit_determinant_near_the_float_limit(self):
        assert abs(det_qorbit([1e77, 0, 0, 0])) == pytest.approx(1e308, rel=1e-12)

    def test_polynomial_matches_determinant_in_exact_arithmetic(self):
        # The polynomial equals +-det of the orbit matrix; check exactly
        # over rationals with a cofactor-expansion determinant.
        def frac_det(m):
            if len(m) == 1:
                return m[0][0]
            total = Fraction(0)
            for col in range(len(m)):
                minor = [row[:col] + row[col + 1 :] for row in m[1:]]
                total += (-1) ** col * m[0][col] * frac_det(minor)
            return total

        rng = np.random.default_rng(11)
        for _ in range(50):
            x = [Fraction(int(v), 7) for v in rng.integers(-20, 20, size=4)]
            rows = [[x[(j + k) % 4] for j in range(4)] for k in range(4)]
            det = frac_det(rows)
            x1, x2, x3, x4 = x
            poly = ((x1 - x3) ** 2 + (x2 - x4) ** 2) * (x1 - x2 + x3 - x4) * (x1 + x2 + x3 + x4)
            assert abs(det) == abs(poly)

    def test_predicate_agrees_with_determinant_threshold(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            x = rng.uniform(-1, 1, size=4)
            scale = np.max(np.abs(x))
            big_det = abs(det_qorbit(x)) > 1e-10 * scale**4
            assert qbase_predicate(x) == big_det
