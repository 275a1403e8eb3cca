"""The connection and (0,4) curvature of ``curvature._connection`` against an independent derivation.

``_parent_connection`` is the package's previous ``_connection``, kept here as a
reference: it raises an index to Gamma^k_ij, differentiates g^{-1} and the
Christoffel bracket, and lowers the (1,3) tensor with g.  The package now
forms R_ijkl from the second derivatives of g and one product of the symbols
of the first and second kind, so the two share no step past the bracket.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from circulant4 import make_custom_family, make_family, metric_matrix
from circulant4.curvature import PointGeometry, _connection, _metric_arrays
from circulant4.fields import eval_jets

S_WAVE = (2.0, 0.1, 3.0, 1.0)
CONTROL = (3.0, 0.1, 1.0, 2.0)
CONSTANT = (3.0, 1.0, 2.0)
MODES = ["analytic", "finite_difference"]


def _parent_connection(g, dg, ddg, ginv):
    """The package's previous _connection: Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij),
    d_a Gamma^k_ij through d_a g^{kl} = -g^{km} d_a g_mn g^{nl}, and R_ijkl = g_lm R^m_kji."""
    bracket = np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg) - dg
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, bracket)
    dginv = -np.einsum("...km,...amn,...nl->...akl", ginv, dg, ginv)
    dbracket = np.einsum("...aijl->...alij", ddg) + np.einsum("...ajil->...alij", ddg) - ddg
    dgamma = 0.5 * (
        np.einsum("...akl,...lij->...akij", dginv, bracket)
        + np.einsum("...kl,...alij->...akij", ginv, dbracket)
    )
    upper = (
        np.einsum("...jmik->...ijkm", dgamma)
        - np.einsum("...imjk->...ijkm", dgamma)
        + np.einsum("...mjn,...nik->...ijkm", gamma, gamma)
        - np.einsum("...min,...njk->...ijkm", gamma, gamma)
    )
    return gamma, np.einsum("...lm,...ijkm->...ijkl", g, upper)


def _assert_close(actual, expected):
    """Within 1e-12 max(1, max |expected|)."""
    assert np.max(np.abs(actual - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def _unit_arrays(shape):
    return hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0))


def _sine_family(amps, waves, phases):
    """Custom (A, B, C) = (6, 2, 4) + amps * sin(waves x + phases); 0 < B < C < A for |amps| <= 1/2."""
    base = np.array([6.0, 2.0, 4.0])

    def value(p):
        return tuple(base + amps * np.sin(waves @ p + phases))

    def grad(p):
        return (amps * np.cos(waves @ p + phases))[:, None] * waves

    def hess(p):
        return -(amps * np.sin(waves @ p + phases))[:, None, None] * (waves[:, :, None] * waves[:, None, :])

    return make_custom_family(value, grad, hess)


_point = hnp.arrays(float, 4, elements=st.floats(-3.0, 3.0))


class TestParentOracle:
    @settings(max_examples=60, deadline=None)
    @given(m=_unit_arrays((4, 4)), dg=_unit_arrays((4, 4, 4)), ddg=_unit_arrays((4, 4, 4, 4)))
    def test_connection_on_random_metrics(self, m, dg, ddg):
        # g = m m^T + I has eigenvalues in [1, 17]; dg is symmetric in (i, j), ddg in (a, b) and (i, j).
        g = m @ m.T + np.eye(4)
        dg = dg + np.swapaxes(dg, 1, 2)
        ddg = ddg + np.swapaxes(ddg, 0, 1)
        ddg = ddg + np.swapaxes(ddg, 2, 3)
        ginv = np.linalg.inv(g)
        _assert_close(_connection(dg, ddg, ginv)[1], _parent_connection(g, dg, ddg, ginv)[1])

    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL), ("constant", CONSTANT)])
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=15, deadline=None)
    @given(points=st.lists(_point, min_size=1, max_size=5))
    def test_point_geometry_of_built_in_families(self, name, params, mode, points):
        self._check(make_family(name, params, mode), np.array(points))

    @settings(max_examples=15, deadline=None)
    @given(amps=hnp.arrays(float, 3, elements=st.floats(-0.5, 0.5)),
           waves=hnp.arrays(float, (3, 4), elements=st.floats(-2.0, 2.0)),
           phases=hnp.arrays(float, 3, elements=st.floats(-3.0, 3.0)),
           points=st.lists(_point, min_size=1, max_size=5))
    def test_point_geometry_of_custom_sine_family(self, amps, waves, phases, points):
        # A custom family's derivatives are its callables' in either mode, so one mode covers it.
        self._check(_sine_family(amps, waves, phases), np.array(points))

    @staticmethod
    def _check(spec, points):
        geo = PointGeometry.from_field(spec, points)
        coeffs, grads, hessians = eval_jets(spec, points)
        g, (dg, ddg) = metric_matrix(coeffs), _metric_arrays(grads, hessians)
        gamma, r = _parent_connection(g, dg, ddg, np.linalg.inv(g))
        _assert_close(geo.gamma[geo.rows], gamma)
        _assert_close(geo.r[geo.rows], r)


# Three fixed chart points per family and mode for the extended-precision check.  On s_wave the earlier
# route (_parent_connection) is off by 6.2e-17 (analytic) and 8.5e-17 (finite-difference) here.
_ACCURACY_POINTS = np.array([[0.5, 1.6, 1.1, -1.1], [-0.8, 1.5, -2.0, 1.3], [1.2, -0.1, -0.8, -0.9]])


def _reference_riemann(mp, g, dg, ddg):
    """R_ijkl at mp's working precision from float arrays g, dg, ddg, as a nested list of mpf."""
    g, dg, ddg = (np.vectorize(mp.mpf, otypes=[object])(a) for a in (g, dg, ddg))
    ginv = mp.matrix(g.tolist()) ** -1
    first = np.array([[[(dg[i, j, l] + dg[j, i, l] - dg[l, i, j]) / 2 for j in range(4)]
                       for i in range(4)] for l in range(4)])  # Gamma_{l,ij}
    gamma = np.array([[[mp.fsum(ginv[k, l] * first[l, i, j] for l in range(4)) for j in range(4)]
                       for i in range(4)] for k in range(4)])
    return [[[[(ddg[j, k, i, l] + ddg[i, l, j, k] - ddg[i, k, j, l] - ddg[j, l, i, k]) / 2
               + mp.fsum(first[m, j, k] * gamma[m, i, l] - first[m, i, k] * gamma[m, j, l] for m in range(4))
               for l in range(4)] for k in range(4)] for j in range(4)] for i in range(4)]


class TestExtendedPrecision:
    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    @pytest.mark.parametrize("mode", MODES)
    def test_riemann_within_6e17_of_40_digit_value(self, name, params, mode):
        # R from the same float jet, evaluated at 40 digits; the error is relative to max(1, max |R|).
        mpmath = pytest.importorskip("mpmath")
        spec = make_family(name, params, mode)
        geo = PointGeometry.from_field(spec, _ACCURACY_POINTS)
        coeffs, grads, hessians = eval_jets(spec, _ACCURACY_POINTS)
        g, (dg, ddg) = metric_matrix(coeffs), _metric_arrays(grads, hessians)
        with mpmath.workdps(40):
            for n, row in enumerate(geo.rows):
                exact = np.array(_reference_riemann(mpmath, g[n], dg[n], ddg[n]), dtype=object)
                error = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(geo.r[row].ravel(), exact.ravel()))
                assert error <= 6e-17 * max(1.0, max(abs(float(v)) for v in exact.ravel()))


class TestBlockComposition:
    @pytest.mark.parametrize("mode", MODES)
    def test_row_bits_do_not_depend_on_the_block(self, mode):
        # A 256-point block, as in a verify run, against each point alone.
        spec = make_family("s_wave", S_WAVE, mode)
        points = np.random.default_rng(91).uniform(-3.0, 3.0, size=(256, 4))
        block = PointGeometry.from_field(spec, points)
        for point, row in zip(points, block.rows):
            alone = PointGeometry.from_field(spec, point[None])
            assert block.gamma[row].tobytes() == alone.gamma[0].tobytes()
            assert block.r[row].tobytes() == alone.r[0].tobytes()
