"""Coefficient-field families, jets, and the parallelism residual."""

import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant4 import (
    RunConfig,
    coeffs_at,
    eval_jet,
    make_custom_family,
    make_family,
    metric_matrix,
    parallel_residual,
    run_verify,
)
from circulant4 import curvature, fields
from circulant4.fields import eval_jets, gradient_residual
from circulant4.reporting import DEFAULT_TOLERANCES

S_WAVE = (2.0, 0.1, 3.0, 1.0)
CONTROL = (3.0, 0.1, 1.0, 2.0)


class TestMakeFamily:
    def test_constant_valid(self):
        make_family("constant", (3, 1, 2))

    def test_constant_invalid(self):
        with pytest.raises(ValueError, match="C < A"):
            make_family("constant", (2, 1, 3))

    def test_s_wave_valid(self):
        make_family("s_wave", S_WAVE)

    def test_s_wave_negative_b_rejected(self):
        with pytest.raises(ValueError, match="0 < B"):
            make_family("s_wave", (2, 0.1, 1, -3))

    def test_s_wave_b_overlapping_c_rejected(self):
        with pytest.raises(ValueError, match="B < C"):
            make_family("s_wave", (2, 0.1, 3, 1.9))

    def test_s_wave_c_overlapping_a_rejected(self):
        with pytest.raises(ValueError, match="C < A"):
            make_family("s_wave", (2, 0.1, 2.1, 1))

    def test_control_valid(self):
        make_family("control", CONTROL)

    def test_control_wave_reaching_c_rejected(self):
        with pytest.raises(ValueError, match="C < A"):
            make_family("control", (2.05, 0.1, 1, 2))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_family("sombrero", (1, 2, 3))

    @pytest.mark.parametrize("params,mode,message", [
        ((3, 1, 2), "symbolic", "derivative_mode must be 'analytic' or 'finite_difference', got 'symbolic'"),
        ((3, 1), "analytic", "constant family takes params (A0, B0, C0)"),
    ])
    def test_bad_mode_or_param_count_refused(self, params, mode, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_family("constant", params, derivative_mode=mode)

    def test_custom_requires_all_derivatives(self):
        with pytest.raises(ValueError):
            make_custom_family(lambda p: (3, 1, 2), None, None)


def least_inverse_gap():
    """The least A - C whose 4 / (A - C), the bound of the closed-form inverse metric, is a finite float."""
    gap = 4.0 / sys.float_info.max
    while not math.isfinite(4.0 / gap):
        gap = math.nextafter(gap, 1.0)
    while math.isfinite(4.0 / math.nextafter(gap, 0.0)):
        gap = math.nextafter(gap, 0.0)
    return gap


INVERSE_REASON = "{}: A - C falls to {} on the chart, so the inverse metric overflows a float (need 4 / (A - C) finite)"


class TestInverseMetricRule:
    """make_family refuses a family whose chart-wide least A - C leaves 4 / (A - C) infinite, in both modes."""

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_at_the_bound_the_geometry_is_finite_and_unwarned(self, mode):
        gap = least_inverse_gap()
        spec = make_family("constant", (2.0 * gap, gap / 2.0, gap), mode)  # 2 gap - gap is gap exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = curvature.point_geometry(spec, [0.1, 0.2, 0.3, 0.4])
        assert np.isfinite(geo.gamma).all() and np.isfinite(geo.r).all()

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_just_past_the_bound_is_refused(self, mode):
        gap = math.nextafter(least_inverse_gap(), 0.0)
        message = INVERSE_REASON.format("constant", gap)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_family("constant", (2.0 * gap, gap / 2.0, gap), mode)

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    def test_subnormal_family_and_a_wave_family_at_the_bound(self, mode):
        with pytest.raises(ValueError, match=f"^{re.escape(INVERSE_REASON.format('constant', 1e-320))}$"):
            make_family("constant", (3e-320, 1e-320, 2e-320), mode)
        # s_wave's chart-wide A - C is 0.6333... times its scale, so 2^-1022 of the defaults is refused and
        # 2^-1021 taken, with a finite connection.
        with pytest.raises(ValueError, match="^s_wave: A - C falls to "):
            make_family("s_wave", [p * 2.0**-1022 for p in S_WAVE], mode)
        spec = make_family("s_wave", [p * 2.0**-1021 for p in S_WAVE], mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geo = curvature.point_geometry(spec, [0.1, 0.2, 0.3, 0.4])
        assert np.isfinite(geo.gamma).all() and np.isfinite(geo.r).all()


class TestEvalJet:
    def test_constant_jet_is_flat(self):
        jet = eval_jet(make_family("constant", (3, 1, 2)), [0.4, -1, 2, 0])
        assert tuple(jet.value) == (3, 1, 2)
        assert np.all(jet.grads == 0)
        assert np.all(jet.hessians == 0)

    def test_control_single_variable_dependence(self):
        jet = eval_jet(make_family("control", CONTROL), [0, 0, 0, 0])
        expected = np.zeros((3, 4))
        expected[0, 0] = 0.1  # only dA/dx1 is nonzero at the origin
        assert np.allclose(jet.grads, expected, atol=1e-15)

    def test_s_wave_values(self):
        spec = make_family("s_wave", S_WAVE)
        a, b, c = eval_jet(spec, [0, 0, 0, 0]).value
        assert (a, b, c) == (3.0, 1.0, 2.0)

    def test_gradients_in_difference_plane(self):
        spec = make_family("s_wave", S_WAVE)
        jet = eval_jet(spec, [0.3, -0.2, 0.5, 0.1])
        ones = np.ones(4)
        for row in jet.grads:
            assert row @ ones == pytest.approx(0.0, abs=1e-15)

    def test_hessians_symmetric(self):
        for mode in ("analytic", "finite_difference"):
            spec = make_family("s_wave", S_WAVE, derivative_mode=mode)
            jet = eval_jet(spec, [0.7, 0.1, -0.4, 1.2])
            tol = 1e-15 if mode == "analytic" else 1e-8
            assert np.allclose(jet.hessians, jet.hessians.transpose(0, 2, 1), atol=tol)

    def test_coeffs_at_custom_family_is_value_fn_as_floats(self):
        spec = make_custom_family(lambda p: (3, np.float64(1.0 + 0.01 * p[2] ** 2), np.float32(2.0)),
                                  lambda p: np.zeros((3, 4)), lambda p: np.zeros((3, 4, 4)))
        coeffs = coeffs_at(spec, [0.3, -0.2, 0.5, 0.1])
        assert [type(v) for v in coeffs] == [float] * 3
        assert tuple(coeffs) == (3.0, 1.0 + 0.01 * 0.5 ** 2, 2.0)

    def test_inadmissible_point_names_inequality(self):
        spec = make_custom_family(
            lambda p: (1.0, 2.0, 3.0),
            lambda p: np.zeros((3, 4)),
            lambda p: np.zeros((3, 4, 4)),
        )
        with pytest.raises(ValueError, match="C < A"):
            eval_jet(spec, [0, 0, 0, 0])

    def test_analytic_vs_fd_agreement(self):
        rng = np.random.default_rng(31)
        for name, params in (("s_wave", S_WAVE), ("control", CONTROL)):
            analytic = make_family(name, params)
            fd = make_family(name, params, derivative_mode="finite_difference")
            for _ in range(100):
                p = rng.uniform(-2, 2, size=4)
                ja = eval_jet(analytic, p)
                jf = eval_jet(fd, p)
                assert np.max(np.abs(ja.grads - jf.grads)) <= 1e-8
                assert np.max(np.abs(ja.hessians - jf.hessians)) <= 1e-6


class TestGradientRelations:
    """The gradient form of parallelism, d_i A = d_{i+2} C and d_i B = (d_{i+1} C + d_{i+3} C)/2, against nabla q
    from the connection, on random jets with zero Hessians: jets built from the relations satisfy both, and
    generic jets, whose gradients of A and B are free, satisfy neither."""

    @staticmethod
    def jets(related):
        rng = np.random.default_rng(19)
        b, c_minus_b, a_minus_c = rng.uniform([0.1, 0.5, 0.5], [1.0, 2.0, 2.0], size=(2000, 3)).T
        a, c = b + c_minus_b + a_minus_c, b + c_minus_b  # 0 < B < C < A, eigenvalues A - C and A + C - 2B >= 0.5
        grad_c = rng.normal(size=(2000, 4))
        if related:  # the shifts written with np.roll, not through ORBIT_INDEX
            grad_a = np.roll(grad_c, -2, axis=1)
            grad_b = (np.roll(grad_c, -1, axis=1) + np.roll(grad_c, -3, axis=1)) / 2
        else:
            grad_a, grad_b = rng.normal(size=(2, 2000, 4))
        return np.stack([a, b, c], axis=1), np.stack([grad_a, grad_b, grad_c], axis=1)

    @staticmethod
    def nabla_q(coeffs, grads):
        """Max |(nabla_i q)_j^k| = |Gamma^k_{i,j+1} - Gamma^{k-1}_{ij}| per jet, Gamma from the connection."""
        g, (dg, ddg) = metric_matrix(coeffs), curvature._metric_arrays(grads, np.zeros(grads.shape + (4,)))
        gamma, _ = curvature._connection(dg, ddg, np.linalg.inv(g))  # gamma[..., k, i, j]
        return np.max(np.abs(np.roll(gamma, -1, axis=-1) - np.roll(gamma, 1, axis=-3)), axis=(1, 2, 3))

    def test_related_jets_are_parallel_by_both_checks(self):
        coeffs, grads = self.jets(related=True)
        assert np.max(gradient_residual(grads)) <= 1e-14
        assert np.max(self.nabla_q(coeffs, grads)) <= 1e-14

    def test_generic_jets_fail_both_checks(self):
        coeffs, grads = self.jets(related=False)
        assert np.min(gradient_residual(grads)) >= 0.1
        assert np.min(self.nabla_q(coeffs, grads)) >= 0.1


class TestParallelResidual:
    def test_constant_is_exactly_zero(self):
        assert parallel_residual(make_family("constant", (3, 1, 2)), [1, 2, 3, 4]) == 0.0

    def test_s_wave_is_parallel(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(32)
        for _ in range(50):
            assert parallel_residual(spec, rng.uniform(-3, 3, size=4)) <= 1e-12

    def test_s_wave_fd_mode(self):
        spec = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
        rng = np.random.default_rng(33)
        for _ in range(20):
            assert parallel_residual(spec, rng.uniform(-3, 3, size=4)) <= 1e-7

    def test_control_violates_parallelism(self):
        spec = make_family("control", CONTROL)
        # grad C = 0 forces the residual to |dA/dx1| = kappa at the origin
        assert parallel_residual(spec, [0, 0, 0, 0]) == pytest.approx(0.1, rel=1e-12)
        assert parallel_residual(spec, [0, 0, 0, 0]) >= 0.05


_V = np.array([1.0, 0.0, -1.0, 0.0])
_W = np.array([0.0, 1.0, 0.0, -1.0])


def _oracle_jet(name, params, v):
    """Values, gradients and Hessians of s_wave and control written out by hand, one point at a time:
    the formulas the family table replaced, kept as an independent reference."""
    grads, hessians = np.zeros((3, 4)), np.zeros((3, 4, 4))
    if name == "s_wave":
        c0, eps, a0, b0 = params
        r, t = v @ _V, v @ _W
        f = eps * (np.sin(r) + np.sin(t) / 2.0 + np.sin(r + t) / 3.0)
        fr = eps * (np.cos(r) + np.cos(r + t) / 3.0)
        ft = eps * (np.cos(t) / 2.0 + np.cos(r + t) / 3.0)
        frr = -eps * (np.sin(r) + np.sin(r + t) / 3.0)
        ftt = -eps * (np.sin(t) / 2.0 + np.sin(r + t) / 3.0)
        frt = -eps * np.sin(r + t) / 3.0
        grads[2] = fr * _V + ft * _W
        hessians[2] = frr * np.outer(_V, _V) + ftt * np.outer(_W, _W) + frt * (np.outer(_V, _W) + np.outer(_W, _V))
        grads[0], hessians[0] = -grads[2], -hessians[2]
        return np.array([a0 - f, b0, c0 + f]), grads, hessians
    a0, kappa, b0, c0 = params
    grads[0, 0] = kappa * np.cos(v[0])
    hessians[0, 0, 0] = -kappa * np.sin(v[0])
    return np.array([a0 + kappa * np.sin(v[0]), b0, c0]), grads, hessians


def _worst_against_oracle(name, params, points):
    """Max over points of |table - oracle| / max(1, |oracle|), values, gradients and Hessians together."""
    values, grads, hessians = eval_jets(make_family(name, params), np.array(points))
    worst = 0.0
    for n, p in enumerate(points):
        for ours, theirs in zip((values[n], grads[n], hessians[n]), _oracle_jet(name, params, np.array(p))):
            worst = max(worst, np.max(np.abs(ours - theirs) / np.maximum(1.0, np.abs(theirs))))
    return worst


_coord = st.floats(-4.0, 4.0, allow_nan=False)
_points = st.lists(st.tuples(_coord, _coord, _coord, _coord), min_size=1, max_size=8)
_amplitude = st.floats(-0.2, 0.2, allow_nan=False)
_CUSTOM = make_custom_family(
    lambda p: (3.0 + 0.1 * np.sin(p[0] * p[1]), 1.0 + 0.01 * p[2] ** 2, 2.0),
    lambda p: np.array([[0.1 * np.cos(p[0] * p[1]) * p[1], 0.1 * np.cos(p[0] * p[1]) * p[0], 0, 0],
                        [0, 0, 0.02 * p[2], 0], [0, 0, 0, 0]]),
    lambda p: np.arange(48.0).reshape(3, 4, 4) * p[3],
)


class TestFamilyTable:
    @settings(max_examples=60, deadline=None)
    @given(points=_points, eps=_amplitude, kappa=_amplitude)
    def test_analytic_jet_matches_hand_written_formulas(self, points, eps, kappa):
        assert _worst_against_oracle("s_wave", (2.0, eps, 3.0, 1.0), points) <= 1e-15
        assert _worst_against_oracle("control", (3.0, kappa, 1.0, 2.0), points) <= 1e-15

    @pytest.mark.parametrize("spec", [
        *(make_family(name, params, derivative_mode=mode)
          for name, params in (("constant", (3, 1, 2)), ("s_wave", S_WAVE), ("control", CONTROL))
          for mode in ("analytic", "finite_difference")),
        _CUSTOM,
    ], ids=lambda spec: f"{spec.family}-{spec.derivative_mode}")
    def test_block_rows_are_single_point_jets_bit_for_bit(self, spec):
        points = np.random.default_rng(34).uniform(-3, 3, size=(40, 4))
        values, grads, hessians = eval_jets(spec, points)
        for n, p in enumerate(points):
            jet = eval_jet(spec, p)
            assert values[n].tobytes() == np.array(jet.value).tobytes()
            assert grads[n].tobytes() == jet.grads.tobytes()
            assert hessians[n].tobytes() == jet.hessians.tobytes()

    @pytest.mark.parametrize("name,params,field,value", [
        ("s_wave", S_WAVE, "divisors", [1.0, 2.0, 4.0]),
        ("s_wave", S_WAVE, "direction", [-1.0, 0.0, 0.5]),
        ("s_wave", S_WAVE, "modes", [[1, 0], [0, 1], [1, -1]]),
        ("control", CONTROL, "divisors", [2.0]),
        ("control", CONTROL, "direction", [0.0, 0.0, 1.0]),
    ])
    def test_a_planted_table_fault_is_caught(self, monkeypatch, name, params, field, value):
        points = np.random.default_rng(35).uniform(-3, 3, size=(20, 4)).tolist()
        assert _worst_against_oracle(name, params, points) <= 1e-15
        row = fields._FAMILIES[name]
        planted = row._replace(waves=(row.waves[0]._replace(**{field: np.array(value)}),))
        monkeypatch.setitem(fields._FAMILIES, name, planted)
        assert _worst_against_oracle(name, params, points) > 1e-3

    def test_make_family_bounds_follow_the_table(self):
        # |eps| (1 + 1/2 + 1/3) = 0.55 for eps = 0.3: C up to 2.55 against A from 2.6 - 0.55.
        with pytest.raises(ValueError, match=r"^s_wave: C = 2\.55, A = 2\.05\d* \(need C < A\)$"):
            make_family("s_wave", (2.0, 0.3, 2.6, 1.0))
        make_family("s_wave", (2.0, 0.3, 3.2, 1.0))
        with pytest.raises(ValueError, match=r"^control: C = 2\.0, A = 1\.9\d* \(need C < A\)$"):
            make_family("control", (2.4, -0.5, 1.0, 2.0))


# s_wave's row with control's wave added on a fifth param, its own amplitude: params (c0, eps, a0, b0, kappa).
TWO_WAVES = (2.0, 0.1, 3.2, 1.0, 0.05)


def _two_wave_row(**second):
    s_wave, control = fields._FAMILIES["s_wave"], fields._FAMILIES["control"]
    extra = control.waves[0]._replace(amp=4, **{k: np.array(v) for k, v in second.items()})
    return s_wave._replace(names=s_wave.names + ("kappa",), waves=s_wave.waves + (extra,))


def _two_wave_worst(params, points):
    """Max over points of |table - closed form| / max(1, |closed form|) for the two-wave row, whose closed
    form is the hand-written s_wave jet plus the hand-written control jet on a zero base."""
    c0, eps, a0, b0, kappa = params
    values, grads, hessians = eval_jets(make_family("s_wave", params), np.array(points))
    worst = 0.0
    for n, p in enumerate(points):
        s_wave, control = _oracle_jet("s_wave", (c0, eps, a0, b0), p), _oracle_jet("control", (0, kappa, 0, 0), p)
        for ours, left, right in zip((values[n], grads[n], hessians[n]), s_wave, control):
            worst = max(worst, np.max(np.abs(ours - (left + right)) / np.maximum(1.0, np.abs(left + right))))
    return worst


class TestSeveralWaves:
    def test_values_and_derivatives_sum_over_the_waves(self, monkeypatch):
        monkeypatch.setitem(fields._FAMILIES, "s_wave", _two_wave_row())
        points = np.random.default_rng(36).uniform(-3, 3, size=(40, 4))
        assert _two_wave_worst(TWO_WAVES, points) <= 1e-14
        analytic = eval_jets(make_family("s_wave", TWO_WAVES), points)
        fd = eval_jets(make_family("s_wave", TWO_WAVES, derivative_mode="finite_difference"), points)
        assert np.max(np.abs(analytic[0] - fd[0])) <= 1e-14
        assert np.max(np.abs(analytic[1] - fd[1])) <= 1e-8
        assert np.max(np.abs(analytic[2] - fd[2])) <= 1e-6

    @pytest.mark.parametrize("field,value", [("divisors", [2.0]), ("direction", [0.0, 0.0, 1.0])])
    def test_a_planted_second_wave_fault_is_caught(self, monkeypatch, field, value):
        monkeypatch.setitem(fields._FAMILIES, "s_wave", _two_wave_row(**{field: value}))
        points = np.random.default_rng(37).uniform(-3, 3, size=(20, 4))
        assert _two_wave_worst(TWO_WAVES, points) > 1e-3

    def test_make_family_bounds_sum_the_spreads(self, monkeypatch):
        # s_wave's spread |eps| (1 + 1/2 + 1/3) in A and C, plus |kappa| in A: A from 3.2 - 0.55 - 0.7 = 1.95
        # against C up to 2.55.  With kappa = 0 the same base is admissible.
        monkeypatch.setitem(fields._FAMILIES, "s_wave", _two_wave_row())
        make_family("s_wave", (2.0, 0.3, 3.2, 1.0, 0.0))
        with pytest.raises(ValueError) as info:
            make_family("s_wave", (2.0, 0.3, 3.2, 1.0, -0.7))
        c_hi, a_lo = re.fullmatch(r"s_wave: C = (\S+), A = (\S+) \(need C < A\)", str(info.value)).groups()
        assert float(c_hi) == pytest.approx(2.0 + 0.3 * 11 / 6, rel=1e-15)
        assert float(a_lo) == pytest.approx(3.2 - 0.3 * 11 / 6 - 0.7, rel=1e-15)


def _fd_error_ratios(monkeypatch, name, params):
    """Max |finite difference - closed form| of the gradients and of the Hessians over 200 points, at
    FD_STEP 1.6e-2, 8e-3, 4e-3 and 2e-3: the (3, 2) ratios of each error to the next."""
    points = np.random.default_rng(38).uniform(-3, 3, size=(200, 4))
    _, grads, hessians = eval_jets(make_family(name, params), points)
    fd = make_family(name, params, derivative_mode="finite_difference")
    errors = []
    for step in (1.6e-2, 8e-3, 4e-3, 2e-3):
        monkeypatch.setattr(fields, "FD_STEP", step)
        _, fd_grads, fd_hessians = eval_jets(fd, points)
        errors.append([np.max(np.abs(fd_grads - grads)), np.max(np.abs(fd_hessians - hessians))])
    errors = np.array(errors)
    return errors[:-1] / errors[1:]


class TestFiniteDifferenceRule:
    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    def test_errors_fall_fourfold_per_halving(self, monkeypatch, name, params):
        # Central differences are second order: halving the step quarters the truncation error.
        assert np.all(np.abs(_fd_error_ratios(monkeypatch, name, params) - 4.0) <= 0.1)

    def test_a_planted_one_sided_difference_fails(self, monkeypatch):
        central = fields._stencil_jet

        def one_sided(spec, pts):
            values, _, hessians = central(spec, pts)
            ahead = fields._values(spec, pts[:, None] + fields.FD_STEP * np.eye(4))
            return values, np.swapaxes((ahead - values[:, None]) / fields.FD_STEP, 1, 2), hessians

        monkeypatch.setattr(fields, "_stencil_jet", one_sided)
        ratios = _fd_error_ratios(monkeypatch, "s_wave", S_WAVE)
        assert not np.all(np.abs(ratios - 4.0) <= 0.1)
        assert np.all(np.abs(ratios[:, 0] - 2.0) <= 0.1)  # first order in the gradients

    def test_fd_identity_suite_passes_with_margin(self):
        # The benchmark's finite-difference config at the rng_seed with the largest identity residual over
        # 0-19999, 1.22e-7; with the Hessians' old step of 1e-4 it read 1.08e-6 here and failed section_tol 1e-6.
        report = run_verify(RunConfig({
            "family": {"name": "s_wave", "params": list(S_WAVE)},
            "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [4] * 4},
            "seeds": "random:1", "rng_seed": 5828, "derivative_mode": "finite_difference",
        }))
        summary = report["summary"]
        assert summary["status"] == "pass"
        assert summary["max_identity_residual"] <= DEFAULT_TOLERANCES["section_tol"] / 5

    @pytest.mark.parametrize("x1", [1.0, 1e3, 1e6, 1e9, 1e12])
    def test_control_fails_nabla_q_zero_short_of_the_refused_range(self, x1):
        # Below 2^42 the step moves x1, so the control's finite differences see its wave and it stays non-parallel.
        report = run_verify(RunConfig({
            "family": {"name": "control", "params": [4.0, 0.5, 1.0, 2.0]}, "points": [[x1, 0.2, 0.1, 0.4]],
            "seeds": "random:8", "rng_seed": 7, "derivative_mode": "fd",
        }))
        assert report["summary"]["criteria"]["nabla_q_zero"] == "fail"


STEP_REASON = "x{} +- 0.0003, the finite-difference step, rounds to x{} = {}, so its finite differences read 0"


class TestUnevaluablePoints:
    """eval_jets refuses, naming the first such point, a wave phase that overflows and, in finite_difference mode,
    a coordinate that a wave reads and that FD_STEP leaves as it is; with warnings as errors, so none is made."""

    @staticmethod
    def refusal(name, params, mode, points):
        points = np.array(points, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                eval_jets(make_family(name, params, mode), points)
        return str(info.value)

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("point", [[1e308, 0.0, -1e308, 0.0], [1e308, 1e308, 0.0, 0.0]], ids=["r", "r+t"])
    def test_overflowing_wave_phase(self, mode, point):
        text = self.refusal("s_wave", S_WAVE, mode, [[0.1, 0.2, 0.3, 0.4], point])
        assert text == f"points[1] = {point}: a wave phase of s_wave overflows a float"

    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @pytest.mark.parametrize("point", [[1e308, 0.0, -1e308, 0.0], [1e308, 1e308, 0.0, 0.0]], ids=["r", "r+t"])
    def test_coeffs_at_refuses_an_overflowing_wave_phase(self, mode, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                coeffs_at(make_family("s_wave", S_WAVE, mode), point)
        assert str(info.value) == f"point {point}: a wave phase of s_wave overflows a float"

    @pytest.mark.parametrize("point", [[1e13, 0.2, 0.1, 0.4], [0.1, 0.2, 0.3, 2.0**60]])
    def test_coeffs_at_takes_no_step_rule(self, point):
        # coeffs_at takes no difference, so a coordinate that FD_STEP leaves as it is is no reason to refuse.
        spec = make_family("s_wave", S_WAVE, "finite_difference")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coeffs_at(spec, point) == coeffs_at(make_family("s_wave", S_WAVE), point)

    @pytest.mark.parametrize("name,params,point,axis", [
        ("control", (4.0, 0.5, 1.0, 2.0), [1e13, 0.2, 0.1, 0.4], 1),
        ("control", CONTROL, [-(2.0**42), 0.2, 0.1, 0.4], 1),
        ("s_wave", S_WAVE, [0.1, 0.2, 0.3, 2.0**60], 4),
    ])
    def test_coordinate_the_step_leaves_as_it_is(self, name, params, point, axis):
        text = self.refusal(name, params, "finite_difference", [point])
        assert text == f"points[0] = {point}: " + STEP_REASON.format(axis, axis, point[axis - 1]) + (
            f" (need a smaller |x{axis}| or analytic mode)")

    @pytest.mark.parametrize("name,params,mode,point", [
        ("control", CONTROL, "finite_difference", [np.nextafter(2.0**42, 0.0), 0.2, 0.1, 0.4]),
        ("control", CONTROL, "finite_difference", [0.1, 1e300, -1e300, 1e300]),  # control reads x1 alone
        ("constant", (3.0, 1.0, 2.0), "finite_difference", [1e300, 1e300, 1e300, 1e300]),
        ("s_wave", S_WAVE, "analytic", [1e13, 2.0**60, 0.3, 0.4]),
        ("s_wave", S_WAVE, "analytic", [8e307, 0.0, -8e307, 0.0]),
    ])
    def test_accepted(self, name, params, mode, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, _, _ = eval_jets(make_family(name, params, mode), np.array([point]))
        assert np.isfinite(values).all()
