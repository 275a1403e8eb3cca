"""Connection, curvature tensor, q-sections, and the identity suite."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant4 import (
    christoffel,
    coeffs_at,
    identity_suite,
    make_family,
    metric_matrix,
    nabla_q_residual,
    q_invariance_residual,
    q_section_curvatures,
    qbase_polynomial,
    riemann,
    sectional,
)
from circulant4.algebra import ORBIT_INDEX
from circulant4.curvature import (
    PointGeometry,
    _connection,
    _metric_arrays,
    random_qbase_seeds,
    symmetry_residuals,
)
from circulant4.fields import eval_jets

S_WAVE = (2.0, 0.1, 3.0, 1.0)
CONTROL = (3.0, 0.1, 1.0, 2.0)
CONSTANT = (3.0, 1.0, 2.0)


def sample_points(rng, n):
    return rng.uniform(-2, 2, size=(n, 4))


class TestSignConvention:
    def test_unit_sphere_sections_are_positive(self):
        # Product metric diag(1, sin^2 x1, 1, 1): the (x1, x2) plane is a
        # unit 2-sphere, so its sectional curvature must be +1.
        theta = 1.0
        g = np.diag([1.0, np.sin(theta) ** 2, 1.0, 1.0])
        dg = np.zeros((4, 4, 4))
        ddg = np.zeros((4, 4, 4, 4))
        dg[0, 1, 1] = 2 * np.sin(theta) * np.cos(theta)
        ddg[0, 0, 1, 1] = 2 * np.cos(2 * theta)
        r = _connection(dg, ddg, np.linalg.inv(g))[1]
        mu = r[0, 1, 0, 1] / (g[0, 0] * g[1, 1])
        assert mu == pytest.approx(1.0, rel=1e-12)


class TestChristoffel:
    def test_constant_family_is_flat(self):
        gamma = christoffel(make_family("constant", CONSTANT), [1, 2, 3, 4])
        assert np.all(gamma == 0)

    def test_symmetric_in_lower_indices(self):
        gamma = christoffel(make_family("s_wave", S_WAVE), [0.3, -0.2, 0.5, 0.1])
        assert np.allclose(gamma, gamma.transpose(0, 2, 1), atol=1e-12)

    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    def test_metric_compatibility(self, name, params):
        # d_a g_ij - Gamma^l_ai g_lj - Gamma^l_aj g_il = 0
        spec = make_family(name, params)
        rng = np.random.default_rng(41)
        points = sample_points(rng, 10)
        coeffs, grads, hessians = eval_jets(spec, points)
        gs, (dgs, _) = metric_matrix(coeffs), _metric_arrays(grads, hessians)
        for p, g, dg in zip(points, gs, dgs):
            gamma = christoffel(spec, p)
            nabla_g = (
                dg
                - np.einsum("lai,lj->aij", gamma, g)
                - np.einsum("laj,il->aij", gamma, g)
            )
            assert np.max(np.abs(nabla_g)) <= 1e-12


class TestNablaQ:
    def test_constant_family_exactly_zero(self):
        assert nabla_q_residual(make_family("constant", CONSTANT), [0, 0, 0, 0]) == 0.0

    def test_parallel_family_analytic(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(42)
        for p in sample_points(rng, 20):
            assert nabla_q_residual(spec, p) <= 1e-9

    def test_parallel_family_fd(self):
        spec = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
        rng = np.random.default_rng(43)
        for p in sample_points(rng, 10):
            assert nabla_q_residual(spec, p) <= 1e-6

    def test_control_family_is_not_parallel(self):
        assert nabla_q_residual(make_family("control", CONTROL), [0, 0, 0, 0]) > 1e-3


class TestRiemann:
    def test_constant_family_vanishes(self):
        assert np.all(riemann(make_family("constant", CONSTANT), [0.5, 0.5, 0.5, 0.5]) == 0)

    def test_classical_symmetries_analytic(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(44)
        for p in sample_points(rng, 10):
            res = symmetry_residuals(riemann(spec, p))
            assert max(res.values()) <= 1e-9

    def test_classical_symmetries_fd(self):
        spec = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
        rng = np.random.default_rng(45)
        for p in sample_points(rng, 5):
            res = symmetry_residuals(riemann(spec, p))
            assert max(res.values()) <= 1e-6

    def test_fd_matches_analytic(self):
        analytic = make_family("s_wave", S_WAVE)
        fd = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
        rng = np.random.default_rng(46)
        for p in sample_points(rng, 10):
            diff = np.max(np.abs(riemann(analytic, p) - riemann(fd, p)))
            assert diff <= 1e-5

    def test_parallel_family_is_curved(self):
        # The equality checks must not be vacuous: curvature is nonzero.
        assert np.max(np.abs(riemann(make_family("s_wave", S_WAVE), [0.3, -0.2, 0.5, 0.1]))) > 1e-3


class TestQInvariance:
    def test_constant_family(self):
        spec = make_family("constant", CONSTANT)
        vectors = np.eye(4)
        assert q_invariance_residual(spec, [0, 0, 0, 0], vectors) == 0.0

    def test_parallel_family(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(47)
        for p in sample_points(rng, 10):
            vectors = rng.normal(size=(4, 4))
            assert q_invariance_residual(spec, p, vectors) <= 1e-8

    def test_control_family_breaks_invariance(self):
        spec = make_family("control", CONTROL)
        rng = np.random.default_rng(48)
        worst = max(
            q_invariance_residual(spec, p, rng.normal(size=(4, 4)))
            for p in sample_points(rng, 10)
        )
        assert worst > 1e-6  # negative control: invariance genuinely fails

    @pytest.mark.parametrize("scales", [(1e100, 1e100, 1e100, 1e100), (1e160, 1e160, 1.0, 1.0)],
                             ids=["all", "x-and-y"])
    def test_overflowing_contraction_is_refused_without_a_warning(self, scales):
        # The contraction overflowed to inf, inf - inf made a NaN residual, and max() dropped it: the
        # control family, whose residual here is 0.1125, read as perfectly q-invariant.
        spec, p = make_family("control", (4.0, 0.5, 1.0, 2.0)), [0.3, -0.2, 0.5, 0.1]
        vectors = np.array([[1, 0.2, -0.3, 0.4], [0.1, 1, 0.5, -0.2], [1, 0, 0, 0], [0, 1, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q_invariance_residual(spec, p, vectors) == pytest.approx(0.1125, abs=1e-4)
            scaled = vectors * np.array(scales)[:, None]
            message = f"x, y, z, u = {scaled.tolist()}: R(x, y, q^k z, q^k u) overflows a float"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                q_invariance_residual(spec, p, scaled)


class TestSectional:
    def test_flat_sections(self):
        spec = make_family("constant", CONSTANT)
        assert sectional(spec, [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]) == 0.0

    def test_degenerate_section_rejected(self):
        spec = make_family("constant", CONSTANT)
        with pytest.raises(ValueError, match="degenerate"):
            sectional(spec, [0, 0, 0, 0], [1, 2, 0, 0], [2, 4, 0, 0])

    def test_plane_invariance(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(49)
        for p in sample_points(rng, 5):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            mu1 = sectional(spec, p, x, y)
            mu2 = sectional(spec, p, 2 * x, y + 3 * x)
            assert mu2 == pytest.approx(mu1, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("k", [-60, -20, 20, 60])
    def test_scaled_vectors_give_the_same_curvature(self, k):
        # Scaling by 2^k is exact, so the verdict and the curvature are too: short vectors span a section.
        spec, p, (x, y) = make_family("s_wave", S_WAVE), [0.3, -0.2, 0.5, 0.1], np.eye(4)[:2]
        assert sectional(spec, p, 2.0**k * x, 2.0**k * y) == sectional(spec, p, x, y)

    @pytest.mark.parametrize("k", [-60, -20, 0, 20, 60])
    def test_nearly_parallel_section_rejected_at_every_scale(self, k):
        spec, p, (x, y) = make_family("s_wave", S_WAVE), [0.3, -0.2, 0.5, 0.1], np.eye(4)[:2]
        with pytest.raises(ValueError, match="^degenerate 2-section: Gram determinant "):
            sectional(spec, p, 2.0**k * x, 2.0**k * (x + 1e-9 * y))

    def test_overflowing_gram_products_rejected(self):
        # g(x, x) is about 2e400: refused by name, with no numpy warning (pytest makes one an error).
        spec, p, (x, y) = make_family("s_wave", S_WAVE), [0.3, -0.2, 0.5, 0.1], np.eye(4)[:2]
        with pytest.raises(ValueError, match=r"^2-section: Gram products overflow a float \(g\(x,x\) g\(y,y\) = inf"):
            sectional(spec, p, 1e200 * x, 1e200 * y)

    def test_underflowing_gram_products_read_as_degenerate(self):
        # g(x, x) g(y, y) is about 1e-640, which underflows to 0: the message shows that product.
        spec, p, (x, y) = make_family("s_wave", S_WAVE), [0.3, -0.2, 0.5, 0.1], np.eye(4)[:2]
        message = "degenerate 2-section: Gram determinant 0.0 below tolerance (g(x,x) g(y,y) = 0.0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sectional(spec, p, 1e-160 * x, 1e-160 * y)


class TestQSections:
    def test_flat_family_all_zero(self):
        rep = q_section_curvatures(make_family("constant", CONSTANT), [0, 0, 0, 0], [1, 0.2, 0.1, -0.3])
        assert np.all(rep.mu == 0)

    def test_rejects_degenerate_seed(self):
        spec = make_family("constant", CONSTANT)
        with pytest.raises(ValueError, match="q-base"):
            q_section_curvatures(spec, [0, 0, 0, 0], [1, 1, 1, 1])

    @pytest.mark.parametrize("seed", [[1e200, 0, -1e200, 0], [1e200, 1, 0, 0]], ids=["nan", "inf"])
    def test_rejects_seed_whose_polynomial_overflows(self, seed):
        # x1 - x2 + x3 - x4 = 0 makes the first a non-q-base whose polynomial is inf * 0 = NaN, not 0.
        spec = make_family("s_wave", S_WAVE)
        message = f"seeds[0] = {[float(v) for v in seed]}: its independence polynomial overflows a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q_section_curvatures(spec, [0, 0, 0, 0], seed)

    @pytest.mark.parametrize("check", [q_section_curvatures, identity_suite])
    def test_rejects_seed_whose_gram_determinant_overflows_without_a_warning(self, check):
        # 1e77 e1 passes the q-base rule (ratio 1), but g(x, x)^2 ~ 1e308 g_11^2 overflows: the determinants
        # are inf and inf - inf, which would make mu [0, nan, 0, 0, nan, 0] after three numpy warnings.
        spec = make_family("s_wave", S_WAVE)
        message = ("seeds[0] = [1e+77, 0.0, 0.0, 0.0]: a q-section Gram determinant is inf "
                   "(need a positive finite float)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                check(spec, [0.3, -0.2, 0.5, 0.1], [1e77, 0.0, 0.0, 0.0])

    def test_denominators_positive(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(50)
        for seed in random_qbase_seeds(rng, 20):
            rep = q_section_curvatures(spec, [0.1, 0.2, -0.1, 0.4], seed)
            assert np.all(rep.denominators > 0)

    def test_equalities_for_parallel_family(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(51)
        for p in sample_points(rng, 10):
            for seed in random_qbase_seeds(rng, 3):
                rep = q_section_curvatures(spec, p, seed)
                assert rep.equality_residual <= 1e-6 * (1 + abs(rep.mu[0]))
                assert rep.zero_residual <= 1e-6

    def test_control_family_report_is_produced(self):
        # No equality asserted for a non-parallel structure; the residuals
        # are simply recorded (and are typically far from zero).
        spec = make_family("control", CONTROL)
        rng = np.random.default_rng(52)
        seeds = random_qbase_seeds(rng, 5)
        reps = [q_section_curvatures(spec, [0.3, 0.1, -0.2, 0.5], s) for s in seeds]
        assert len(reps) == 5


@pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
@pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL), ("constant", CONSTANT)])
class TestScaleRelations:
    """Exact relations of the geometry pass under rescaling, on every built-in family in both derivative modes:
    a power of 2 scales a float exactly, so these hold bit for bit, and the q-shift of the seeds permutes the
    six q-sections."""

    SEEDS = random_qbase_seeds(np.random.default_rng(61), 16)

    @staticmethod
    def geometry(name, params, mode, scale=1.0):
        points = sample_points(np.random.default_rng(60), 40)
        return PointGeometry.from_field(make_family(name, [p * scale for p in params], derivative_mode=mode), points)

    def test_seed_scale_leaves_mu_bit_identical(self, name, params, mode):
        geo = self.geometry(name, params, mode)
        mu = geo.seed_checks(self.SEEDS)[0].mu
        for k in (-3, 1, 5):
            assert geo.seed_checks(self.SEEDS * 2.0**k)[0].mu.tobytes() == mu.tobytes(), f"seeds x 2^{k}"

    def test_params_times_4_keep_gamma_and_scale_r_and_mu(self, name, params, mode):
        geo, scaled = self.geometry(name, params, mode), self.geometry(name, params, mode, 4.0)
        assert scaled.rows.tolist() == geo.rows.tolist()
        assert scaled.gamma.tobytes() == geo.gamma.tobytes()
        assert scaled.r.tobytes() == (4.0 * geo.r).tobytes()
        mu = geo.seed_checks(self.SEEDS)[0].mu
        assert scaled.seed_checks(self.SEEDS)[0].mu.tobytes() == (mu / 4.0).tobytes()

    def test_q_shifted_seeds_permute_mu(self, name, params, mode):
        # The sections of qx are {qx,q2x}, {qx,q3x}, {x,qx}, {q2x,q3x}, {q2x,x}, {q3x,x}: mu4, mu5, mu1, mu6, mu2, mu3.
        geo = self.geometry(name, params, mode)
        mu = geo.seed_checks(self.SEEDS)[0].mu
        shifted = geo.seed_checks(self.SEEDS[:, ORBIT_INDEX[1]])[0].mu
        assert np.max(np.abs(shifted - mu[..., [3, 4, 0, 5, 1, 2]])) <= 1e-12 * np.max(np.abs(mu))


class TestRandomSeeds:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 1000])
    def test_batched_draws_are_the_per_draw_loop(self, n):
        for rng_seed in range(10):
            rng = np.random.default_rng(rng_seed)
            expected = []
            while len(expected) < n:
                x = rng.uniform(-1.0, 1.0, size=4)
                if abs(qbase_polynomial(x)) >= 1e-3:
                    expected.append(x)
            batched = np.random.default_rng(rng_seed)
            assert random_qbase_seeds(batched, n).tobytes() == np.stack(expected).tobytes()
            assert batched.bit_generator.state == rng.bit_generator.state


class TestIdentitySuite:
    def test_flat_family_all_zero(self):
        res = identity_suite(make_family("constant", CONSTANT), [0, 0, 0, 0], [1, 0.2, 0.1, -0.3])
        assert max(res.values()) == 0.0

    def test_contains_all_groups(self):
        res = identity_suite(make_family("constant", CONSTANT), [0, 0, 0, 0], [1, 0.2, 0.1, -0.3])
        assert len(res) >= 17
        for group in "abcdef":
            assert any(name.startswith(group) for name in res)

    def test_parallel_family_residuals(self):
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(53)
        for p in sample_points(rng, 5):
            for seed in random_qbase_seeds(rng, 4):
                res = identity_suite(spec, p, seed)
                assert max(res.values()) <= 1e-6

    def test_vanishing_diagonal_identity(self):
        # R(x, q^2 x, x, q^2 x) = 0 is the zero claim of the first group.
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(54)
        for seed in random_qbase_seeds(rng, 10):
            res = identity_suite(spec, [0.4, -0.1, 0.2, 0.8], seed)
            assert res["a_diag_q2"] <= 1e-6


class TestPipelineImplication:
    def test_parallel_implies_equality_chain(self):
        # nabla q = 0 (to tol) must propagate through curvature invariance,
        # the identity suite, and the section equalities (to 10x tol).
        spec = make_family("s_wave", S_WAVE)
        rng = np.random.default_rng(55)
        tol = 1e-9
        for p in sample_points(rng, 5):
            assert nabla_q_residual(spec, p) <= tol
            vectors = rng.normal(size=(4, 4))
            assert q_invariance_residual(spec, p, vectors) <= 10 * tol
            seed = random_qbase_seeds(rng, 1)[0]
            assert max(identity_suite(spec, p, seed).values()) <= 10 * tol
            rep = q_section_curvatures(spec, p, seed)
            assert rep.equality_residual <= 10 * tol
            assert rep.zero_residual <= 10 * tol


# Oracle for the seed-level path: the identity suite written out as direct
# contractions of the Riemann tensor with q-iterates of the seed, each
# entry being lhs - rhs (or the value of a zero claim).
ORACLE_IDENTITIES = {
    "a_diag_q3": lambda rr: rr(0, 1, 0, 1) - rr(0, 3, 0, 3),
    "a_diag_q2": lambda rr: rr(0, 2, 0, 2),
    "b_mixed_1": lambda rr: rr(0, 1, 0, 2),
    "b_mixed_2": lambda rr: rr(0, 2, 1, 2),
    "b_mixed_3": lambda rr: rr(0, 3, 2, 0),
    "b_mixed_4": lambda rr: rr(0, 3, 1, 3),
    "c_chain_1": lambda rr: -rr(0, 1, 0, 3) - rr(0, 1, 1, 2),
    "c_chain_2": lambda rr: rr(0, 1, 1, 2) - rr(0, 1, 2, 3),
    "c_chain_3": lambda rr: rr(0, 1, 2, 3) - rr(0, 1, 0, 1),
    "d_mixed_1": lambda rr: rr(0, 2, 1, 3),
    "d_mixed_2": lambda rr: rr(0, 2, 2, 3),
    "d_mixed_3": lambda rr: rr(1, 2, 1, 3),
    "e_chain_1": lambda rr: -rr(0, 3, 1, 2) + rr(0, 3, 2, 3),
    "e_chain_2": lambda rr: -rr(0, 3, 2, 3) - rr(1, 2, 2, 3),
    "e_chain_3": lambda rr: rr(1, 2, 2, 3) - rr(0, 1, 0, 1),
    "e_zero": lambda rr: rr(1, 3, 2, 3),
    "f_diag_zero": lambda rr: rr(1, 3, 1, 3),
    "f_diag_1": lambda rr: rr(1, 2, 1, 2) - rr(2, 3, 2, 3),
    "f_diag_2": lambda rr: rr(2, 3, 2, 3) - rr(0, 1, 0, 1),
}
ORACLE_SECTIONS = [(0, 1), (0, 2), (3, 0), (1, 2), (1, 3), (2, 3)]

_coord = st.floats(-2.0, 2.0, allow_nan=False)
_seed_coord = st.floats(-1.0, 1.0, allow_nan=False)


def _close(value, expected):
    return abs(value - expected) <= 1e-13 * max(1.0, abs(expected))


class TestOrbitBasisAgainstDirectContraction:
    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.tuples(_coord, _coord, _coord, _coord),
        x=st.tuples(_seed_coord, _seed_coord, _seed_coord, _seed_coord).filter(
            lambda x: abs(qbase_polynomial(x)) >= 1e-3
        ),
    )
    def test_mu_and_identities_match_einsum(self, name, params, p, x):
        spec = make_family(name, params)
        r = riemann(spec, p)
        g = metric_matrix(coeffs_at(spec, p))
        v = [np.roll(np.asarray(x, dtype=float), -k) for k in range(4)]

        def rr(a, b, c, d):
            return float(np.einsum("ijkl,i,j,k,l->", r, v[a], v[b], v[c], v[d]))

        rep = q_section_curvatures(spec, p, x)
        for mu, (a, b) in zip(rep.mu, ORACLE_SECTIONS):
            denom = (v[a] @ g @ v[a]) * (v[b] @ g @ v[b]) - (v[a] @ g @ v[b]) ** 2
            assert _close(mu, rr(a, b, a, b) / denom)

        res = identity_suite(spec, p, x)
        norm = max(1.0, abs(rr(0, 1, 0, 1)))
        assert list(res) == list(ORACLE_IDENTITIES)
        for key, claim in ORACLE_IDENTITIES.items():
            assert _close(res[key], abs(claim(rr)) / norm)
