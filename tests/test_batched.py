"""The block pass over points and seeds against per-point evaluation."""

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulant4 import (
    RunConfig,
    identity_suite,
    make_custom_family,
    make_family,
    metric_eigenvalues,
    metric_matrix,
    nabla_q_residual,
    parallel_residual,
    q_section_curvatures,
    qbase_polynomial,
    riemann,
    run_verify,
    spectral_frame,
    verify_frame,
)
from circulant4.curvature import (
    IDENTITY_NAMES,
    SYMMETRY_NAMES,
    PointGeometry,
    symmetry_residuals,
)
from circulant4.algebra import _circulant_inverse
from circulant4.fields import coeffs_at, eval_jet, eval_jets, gradient_residual
from circulant4.frames import spectral_frame_residuals
from circulant4 import curvature, fields, reporting
from circulant4.reporting import _BLOCK_POINTS
from conftest import random_admissible

S_WAVE = (2.0, 0.1, 3.0, 1.0)
CONTROL = (3.0, 0.1, 1.0, 2.0)

_coord = st.floats(-2.0, 2.0, allow_nan=False)
_point = st.tuples(_coord, _coord, _coord, _coord)
_seed_coord = st.floats(-1.0, 1.0, allow_nan=False)
_seed = st.tuples(_seed_coord, _seed_coord, _seed_coord, _seed_coord).filter(
    lambda x: abs(qbase_polynomial(x)) >= 1e-3
)


def _close(value, expected, rel=1e-13):
    return np.all(np.abs(np.asarray(value) - expected) <= rel * np.maximum(1.0, np.abs(expected)))


def _scalar_record(spec, point, seed):
    """The per-(point, seed) values of a verify record, from the scalar API."""
    c = coeffs_at(spec, point)
    sections = q_section_curvatures(spec, point, seed)
    return {
        "coeffs": list(c),
        "parallel_residual": parallel_residual(spec, point),
        "nabla_q_residual": nabla_q_residual(spec, point),
        "symmetry_residuals": list(symmetry_residuals(riemann(spec, point)).values()),
        "frame_residual": verify_frame(c, spectral_frame(c)).max_deviation,
        "mu": list(sections.mu),
        "equality_residual": sections.equality_residual,
        "zero_residual": sections.zero_residual,
        "identity_residuals": list(identity_suite(spec, point, seed).values()),
    }


class TestBlockAgainstScalar:
    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(_point, min_size=1, max_size=5), seeds=st.lists(_seed, min_size=1, max_size=3))
    def test_block_matches_per_point_views(self, name, params, points, seeds):
        spec = make_family(name, params)
        geo = PointGeometry.from_field(spec, np.array(points))
        sections, identities = geo.seed_checks(seeds)
        symmetry = geo.symmetry_residuals()
        frame = spectral_frame_residuals(geo.coeffs)
        assert sections.mu[geo.rows].shape == (len(points), len(seeds), 6)
        assert identities[geo.rows].shape == (len(points), len(seeds), len(IDENTITY_NAMES))
        for n, p in enumerate(points):
            m = geo.rows[n]
            for s, x in enumerate(seeds):
                expected = _scalar_record(spec, p, x)
                assert _close(geo.coeffs[m], expected["coeffs"])
                assert _close(gradient_residual(geo.grads)[m], expected["parallel_residual"])
                assert _close(geo.nabla_q_residual()[m], expected["nabla_q_residual"])
                assert _close(symmetry[m], expected["symmetry_residuals"])
                assert _close(frame[m], expected["frame_residual"])
                assert _close(sections.mu[m, s], expected["mu"])
                assert _close(sections.equality_residual[m, s], expected["equality_residual"])
                assert _close(sections.zero_residual[m, s], expected["zero_residual"])
                assert _close(identities[m, s], expected["identity_residuals"])

    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    def test_run_verify_across_a_block_boundary(self, name, params):
        # _BLOCK_POINTS + 3 points: one full block and a partial one, so
        # the last 6 records (the last 3 points) come from the second block.
        rng = np.random.default_rng(71)
        n_points = _BLOCK_POINTS + 3
        cfg = {
            "family": {"name": name, "params": list(params)},
            "points": rng.uniform(-2, 2, size=(n_points, 4)).tolist(),
            "seeds": "random:2",
            "rng_seed": 72,
        }
        config = RunConfig(cfg)
        records = run_verify(config)["records"]
        assert [(r["point_index"], r["seed_index"]) for r in records] == [
            (i, j) for i in range(n_points) for j in range(2)
        ]
        for r in records[2 * (_BLOCK_POINTS - 2):]:
            expected = _scalar_record(config.family, r["point"], r["seed"])
            assert r["point"] == cfg["points"][r["point_index"]]
            assert _close([r["coeffs"][k] for k in "ABC"], expected["coeffs"])
            assert list(r["symmetry_residuals"]) == SYMMETRY_NAMES
            assert list(r["identity_residuals"]) == IDENTITY_NAMES
            for key in ("parallel_residual", "nabla_q_residual", "frame_residual", "mu",
                        "equality_residual", "zero_residual"):
                assert _close(r[key], expected[key]), key
            assert _close(list(r["symmetry_residuals"].values()), expected["symmetry_residuals"])
            assert _close(list(r["identity_residuals"].values()), expected["identity_residuals"])

    def test_block_shrinks_with_the_seed_count(self, monkeypatch):
        # With at most 6 (point, seed) pairs per block, 3 seeds give blocks
        # of 2 points; the records must not depend on the blocking.
        cfg = {
            "family": {"name": "s_wave", "params": list(S_WAVE)},
            "points": np.random.default_rng(76).uniform(-2, 2, size=(7, 4)).tolist(),
            "seeds": "random:3",
            "rng_seed": 77,
        }
        whole = run_verify(RunConfig(cfg))["records"]
        blocks = []
        original = PointGeometry.from_field.__func__

        def counting(cls, spec, points):
            blocks.append(len(points))
            return original(cls, spec, points)

        monkeypatch.setattr(reporting, "_BLOCK_PAIRS", 6)
        monkeypatch.setattr(PointGeometry, "from_field", classmethod(counting))
        split = run_verify(RunConfig(cfg))["records"]
        assert blocks == [2, 2, 2, 1]
        assert [list(r) for r in split] == [list(r) for r in whole]
        for a, b in zip(split, whole):
            assert _close(a["mu"], b["mu"]) and _close(list(a["identity_residuals"].values()),
                                                      list(b["identity_residuals"].values()))


def _seed_check_bytes(geo, seeds):
    sections, identities = geo.seed_checks(seeds)
    return [np.asarray(a).tobytes() for a in (*vars(sections).values(), identities)]


class TestSeedChunks:
    @pytest.mark.parametrize("pairs", [12, 3])
    def test_chunked_projection_is_one_projection_bit_for_bit(self, monkeypatch, pairs):
        # Five distinct rows: 12 pairs project the seven seeds 2, 2, 2, 1 at a time; 3 pairs one at a time.
        geo = PointGeometry.from_field(make_family("s_wave", S_WAVE),
                                       np.random.default_rng(78).uniform(-2, 2, size=(5, 4)))
        seeds = curvature.random_qbase_seeds(np.random.default_rng(79), 7)
        whole = _seed_check_bytes(geo, seeds)
        monkeypatch.setattr(curvature, "_BLOCK_PAIRS", pairs)
        assert len(geo.rows) == 5 and _seed_check_bytes(geo, seeds) == whole

    def test_peak_memory_is_bounded_however_many_seeds(self):
        # 5.06 kB per seed when all seeds were projected at once: 82.8 MB here.
        geo = PointGeometry.from_field(make_family("s_wave", S_WAVE), np.array([[0.3, -0.2, 0.5, 0.1]]))
        seeds = np.random.default_rng(80).uniform(-1, 1, size=(16384, 4))
        tracemalloc.start()
        try:
            geo.seed_checks(seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


# Multiples of 1/8 in [-2, 2]: sums and differences of these are exact, so shifting a point by
# (t, u, t, u) keeps x1 - x3 and x2 - x4 bit for bit.
_eighths = st.integers(-16, 16).map(lambda k: k / 8)
_dyadic_point = st.tuples(_eighths, _eighths, _eighths, _eighths)


def _jet_bytes(spec, point):
    return b"".join(part.tobytes() for part in eval_jets(spec, np.array([point], dtype=float)))


class TestDistinctJets:
    @pytest.mark.parametrize("name,params,count,mode,seeds,rows", [
        ("control", CONTROL, 4, "analytic", "random:8", [4]),
        ("s_wave", S_WAVE, 2, "analytic", "random:8", [9]),
        ("s_wave", S_WAVE, 4, "finite_difference", "random:1", [81]),
    ])
    def test_connection_gets_one_row_per_distinct_jet(self, monkeypatch, name, params, count, mode, seeds, rows):
        # control depends on a point only through x1, which takes 4 values on the 4^4 grid, all in
        # one block of 256 points; s_wave depends on x1 - x3 and x2 - x4, which take 3 x 3 values on
        # the 2^4 grid.  The 256 points of the 4^4 grid hold 81 distinct finite-difference jets, which
        # blocks of 64 points would split into 135 rows over four calls.
        seen = []
        original = curvature._connection

        def counting(dg, ddg, ginv):
            seen.append(len(ginv))
            return original(dg, ddg, ginv)

        monkeypatch.setattr(curvature, "_connection", counting)
        run_verify(RunConfig({
            "family": {"name": name, "params": list(params)},
            "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [count] * 4},
            "seeds": seeds,
            "rng_seed": 78,
            "derivative_mode": mode,
        }))
        assert seen == rows

    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    @pytest.mark.parametrize("mode", ["analytic", "finite_difference"])
    @settings(max_examples=15, deadline=None)
    @given(base=st.lists(_dyadic_point, min_size=1, max_size=3),
           copies=st.lists(st.tuples(st.integers(0, 2), _eighths, _eighths), min_size=1, max_size=3),
           seeds=st.lists(_seed, min_size=1, max_size=2), data=st.data())
    def test_records_of_equal_jets_are_equal(self, name, params, mode, base, copies, seeds, data):
        # Each copy repeats a base point, shifted by (t, u, t, u); a zero shift is a plain repeat.
        points = base + [tuple(np.add(base[i % len(base)], (t, u, t, u))) for i, t, u in copies]
        points = data.draw(st.permutations(points))
        config = RunConfig({"family": {"name": name, "params": list(params)}, "points": [list(p) for p in points],
                            "seeds": [list(x) for x in seeds], "derivative_mode": mode})
        records = run_verify(config)["records"]
        first = {}  # jet bytes -> the records of the first point with that jet
        for n, p in enumerate(points):
            mine = records[n * len(seeds):(n + 1) * len(seeds)]
            others = first.setdefault(_jet_bytes(config.family, p), mine)
            for r, other in zip(mine, others):
                # json spells each float by its repr, which tells every finite bit pattern apart.
                same = [json.dumps({k: v for k, v in rec.items() if k not in ("point", "point_index")}, sort_keys=True)
                        for rec in (r, other)]
                assert same[0] == same[1]
                assert r["identity_residuals"] is other["identity_residuals"] and r["mu"] is other["mu"]
        for r in records:
            expected = _scalar_record(config.family, r["point"], r["seed"])
            assert _close([r["coeffs"][k] for k in "ABC"], expected["coeffs"])
            for key in ("parallel_residual", "nabla_q_residual", "frame_residual", "mu",
                        "equality_residual", "zero_residual"):
                assert _close(r[key], expected[key]), key
            assert _close(list(r["symmetry_residuals"].values()), expected["symmetry_residuals"])
            assert _close(list(r["identity_residuals"].values()), expected["identity_residuals"])

    def test_jets_differing_in_the_sign_of_a_zero_are_separate_rows(self):
        spec = make_custom_family(
            lambda p: (3.0, 1.0, 2.0),
            lambda p: np.full((3, 4), -0.0 if p[0] > 0.5 else 0.0),
            lambda p: np.zeros((3, 4, 4)),
        )
        geo = PointGeometry.from_field(spec, np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0], [0.0, 1, 0, 0]]))
        assert geo.rows.tolist() == [0, 1, 0]
        assert len(geo.coeffs) == len(geo.r) == 2
        assert np.signbit(geo.grads[1]).all() and not np.signbit(geo.grads[0]).any()


def _loop_fd_jet(spec, v):
    """Reference: the finite-difference jet as one scalar coeffs_at call per stencil point."""
    v = np.asarray(v, dtype=float)
    k = fields.FD_STEP
    e = k * np.eye(4)

    def f(p):
        return np.array(coeffs_at(spec, p))

    f0 = f(v)
    grads, hess = np.zeros((3, 4)), np.zeros((3, 4, 4))
    for i in range(4):
        grads[:, i] = (f(v + e[i]) - f(v - e[i])) / (2 * k)
        for j in range(i, 4):
            if i == j:
                d2 = (f(v + e[i]) - 2 * f0 + f(v - e[i])) / k**2
            else:
                d2 = (f(v + e[i] + e[j]) - f(v + e[i] - e[j]) - f(v - e[i] + e[j]) + f(v - e[i] - e[j])) / (4 * k**2)
            hess[:, i, j] = d2
            hess[:, j, i] = d2
    return grads, hess


class TestFiniteDifferenceJet:
    @pytest.mark.parametrize("name,params", [("s_wave", S_WAVE), ("control", CONTROL)])
    @pytest.mark.parametrize("fd_step", [fields.FD_STEP, 1e-3])
    def test_bit_identical_to_scalar_stencil_loop(self, name, params, fd_step, monkeypatch):
        monkeypatch.setattr(fields, "FD_STEP", fd_step)
        spec = make_family(name, params, derivative_mode="finite_difference")
        rng = np.random.default_rng(73)
        for p in list(rng.uniform(-3, 3, size=(200, 4))) + [np.zeros(4), np.array([-0.0, 1.0, -0.0, 2.5])]:
            jet = eval_jet(spec, p)
            grads, hess = _loop_fd_jet(spec, p)
            assert np.array_equal(jet.grads, grads)
            assert np.array_equal(jet.hessians, hess)


def _exact_inverse(g):
    """Gauss-Jordan inverse in exact rational arithmetic."""
    n = len(g)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return np.array([[float(x) for x in row[n:]] for row in m])


class TestCirculantInverse:
    def test_matches_lu_inverse(self):
        # np.linalg.inv is accurate to about eps * cond(g), so the
        # tolerance scales with the condition number.
        rng = np.random.default_rng(74)
        coeffs = [random_admissible(rng) for _ in range(2000)]
        ours = _circulant_inverse(np.array(coeffs))
        for c, inv in zip(coeffs, ours):
            lam = metric_eigenvalues(c)
            lu = np.linalg.inv(metric_matrix(c))
            assert np.max(np.abs(inv - lu)) <= 1e-14 * (lam.max() / lam.min()) * np.max(np.abs(lu))

    def test_matches_exact_rational_inverse(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            c = random_admissible(rng)
            exact = _exact_inverse(metric_matrix(c).tolist())
            ours = _circulant_inverse(np.array(c))
            assert np.max(np.abs(ours - exact)) <= 1e-15 * np.max(np.abs(exact))


class TestInadmissiblePointInBlock:
    def test_error_names_the_offending_point(self):
        # A = 3 - x1 breaks C < A from x1 = 1 on; the sixth of ten points is the first there.
        spec = make_custom_family(
            lambda p: (3.0 - p[0], 1.0, 2.0),
            lambda p: np.zeros((3, 4)),
            lambda p: np.zeros((3, 4, 4)),
        )
        points = [[0.1 * i, 0.0, 0.0, 0.0] for i in range(5)] + [[1.5, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]
        points += [[0.0, 0.1 * i, 0.0, 0.0] for i in range(3)]
        config = RunConfig({
            "family": {"name": "constant", "params": [3.0, 1.0, 2.0]},
            "points": points,
            "seeds": [[1.0, 0.0, 0.0, 0.0]],
        })
        config.family = spec
        with pytest.raises(ValueError) as info:
            run_verify(config)
        assert str(info.value) == "inadmissible at [1.5, 0.0, 0.0, 0.0]: C = 2.0, A = 1.5 (need C < A)"
