"""Acceptance gate: twelve verification criteria, one pass/fail line each.

Each criterion prints a single summary line (visible with ``pytest -s`` or
in captured output) and asserts its stated tolerance.  The suite is
property-based at desk scale and targets well under a minute of runtime.
"""

import collections
import filecmp
import json
import math

import numpy as np
import pytest

from circulant4 import (
    CirculantCoeffs,
    closed_form_frame,
    identity_suite,
    inner,
    make_family,
    nabla_q_residual,
    pyramid_report,
    q_invariance_residual,
    q_section_curvatures,
    qbase_polynomial,
    qbase_predicate,
    spectral_frame,
    verify_frame,
)
from circulant4.algebra import Q_MATRIX, det_qorbit
from circulant4.cli import main
from circulant4.curvature import random_qbase_seeds, riemann, symmetry_residuals
from conftest import random_admissible

S_WAVE = (2.0, 0.1, 3.0, 1.0)
CONTROL = (3.0, 0.1, 1.0, 2.0)

# Circulant offset table: g[i, j] is row entry (j - i) mod 4.
_OFFSETS = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _batch_metrics(coeffs):
    """Stack of metric matrices for an (n, 3) array of (A, B, C) triples."""
    rows = coeffs[:, [0, 1, 2, 1]]  # first circulant row (A, B, C, B)
    return rows[:, _OFFSETS]


def _batch_inner(gs, x, y):
    return np.einsum("nij,ni,nj->n", gs, x, y)


def test_criterion_01_q_algebra():
    q = Q_MATRIX.astype(int)
    ok = (
        np.array_equal(np.linalg.matrix_power(q, 4), np.eye(4, dtype=int))
        and not np.array_equal(q, np.eye(4, dtype=int))
        and not np.array_equal(q, -np.eye(4, dtype=int))
        and not np.array_equal(q @ q, np.eye(4, dtype=int))
        and not np.array_equal(q @ q, -np.eye(4, dtype=int))
    )
    _report(1, "q-algebra (q^4 = id, q and q^2 not scalar)", ok, "exact integer")


def test_criterion_02_metric_q_invariance():
    rng = np.random.default_rng(101)
    n = 10_000
    coeffs = rng.uniform(-5, 5, size=(n, 3))
    x = rng.normal(size=(n, 4))
    y = rng.normal(size=(n, 4))
    gs = _batch_metrics(coeffs)
    gxy = _batch_inner(gs, x, y)
    gq = _batch_inner(gs, np.roll(x, -1, axis=1), np.roll(y, -1, axis=1))
    rel = np.max(np.abs(gq - gxy) / np.maximum(1.0, np.abs(gxy)))
    _report(2, "g(qx, qy) = g(x, y) on 10^4 random (c, x, y)", rel <= 1e-12,
            f"max rel residual {rel:.2e}")


def test_criterion_03_determinant_formula():
    rng = np.random.default_rng(102)
    n = 10_000
    coeffs = rng.uniform(-5, 5, size=(n, 3))
    a, b, c = coeffs.T
    closed = (a - c) ** 2 * ((a + c) ** 2 - 4 * b**2)
    lu = np.linalg.det(_batch_metrics(coeffs))
    rel = np.max(np.abs(closed - lu) / np.maximum(1.0, np.abs(lu)))
    _report(3, "closed-form determinant vs LU oracle on 10^4 coeffs",
            rel <= 1e-10, f"max rel error {rel:.2e}")


def test_criterion_04_positive_definiteness():
    rng = np.random.default_rng(103)
    n = 10_000
    coeffs = np.array([random_admissible(rng) for _ in range(n)])
    gs = _batch_metrics(coeffs)
    eigs = np.linalg.eigvalsh(gs)
    all_positive = bool(np.all(eigs > 0))
    try:
        np.linalg.cholesky(gs)
        factorized = True
    except np.linalg.LinAlgError:
        factorized = False
    _report(4, "positive definiteness of 10^4 admissible metrics",
            all_positive and factorized,
            f"min eigenvalue {eigs.min():.2e}, cholesky {'ok' if factorized else 'failed'}")


def test_criterion_05_qbase_predicate_vs_determinant():
    rng = np.random.default_rng(104)
    vectors = list(rng.normal(size=(10_000, 4)))
    degenerate = [np.array(v, dtype=float) for v in
                  ([1, 1, 1, 1], [1, 0, 1, 0], [1, -1, 0, 0])]
    agree = 0
    total = 0
    for v in vectors + degenerate:
        scale = max(1.0, float(np.max(np.abs(v))))
        det_nonzero = abs(det_qorbit(v)) > 1e-10 * scale**4
        agree += qbase_predicate(v) == det_nonzero
        total += 1
    for v in degenerate:
        assert qbase_polynomial(v) == 0.0
    _report(5, "independence polynomial vs orbit determinant",
            agree == total, f"{agree}/{total} agree, degenerate cases exact zero")


def test_criterion_06_orthonormal_frame_existence():
    rng = np.random.default_rng(105)
    sample = [random_admissible(rng) for _ in range(1_000)]
    # Near-degenerate gaps C - B and A - C down to 1e-3.
    for gap in (1e-1, 1e-2, 1e-3):
        sample.append(CirculantCoeffs(2 + gap, 1, 2))       # A - C = gap
        sample.append(CirculantCoeffs(3, 1, 1 + gap))       # C - B = gap
        sample.append(CirculantCoeffs(1 + 2 * gap, gap, 2 * gap))
    worst = 0.0
    statuses = collections.Counter()
    for c in sample:
        res = verify_frame(c, spectral_frame(c))
        worst = max(worst, res.max_deviation / (1e-12 * (1 + c.a)))
        statuses[closed_form_frame(c).status] += 1
    tally = ", ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
    _report(6, "spectral frame residual <= 1e-12(1+A), closed-form audit runs",
            worst <= 1.0, f"worst residual ratio {worst:.3f}; statuses: {tally}")


def test_criterion_07_parallelism():
    rng = np.random.default_rng(106)
    points = rng.uniform(-2, 2, size=(50, 4))
    analytic = make_family("s_wave", S_WAVE)
    fd = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
    worst_an = max(nabla_q_residual(analytic, p) for p in points)
    worst_fd = max(nabla_q_residual(fd, p) for p in points)
    control = nabla_q_residual(make_family("control", CONTROL), np.zeros(4))
    ok = worst_an <= 1e-9 and worst_fd <= 1e-6 and control >= 1e-3
    _report(7, "nabla q = 0 for the parallel family (analytic + FD), control nonzero",
            ok, f"analytic {worst_an:.2e}, fd {worst_fd:.2e}, control {control:.2e}")


def test_criterion_08_curvature_q_invariance():
    rng = np.random.default_rng(107)
    spec = make_family("s_wave", S_WAVE)
    fd = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
    points = rng.uniform(-2, 2, size=(20, 4))
    worst_an = worst_fd = 0.0
    for p in points:
        for _ in range(5):
            vectors = rng.normal(size=(4, 4))
            worst_an = max(worst_an, q_invariance_residual(spec, p, vectors))
    for p in points[:5]:
        for _ in range(5):
            vectors = rng.normal(size=(4, 4))
            worst_fd = max(worst_fd, q_invariance_residual(fd, p, vectors))
    ok = worst_an <= 1e-8 and worst_fd <= 1e-5
    _report(8, "R(qx, qy, qz, qw) = R(x, y, z, w) for the parallel family",
            ok, f"analytic {worst_an:.2e}, fd {worst_fd:.2e}")


def test_criterion_09_section_equalities():
    rng = np.random.default_rng(108)
    spec = make_family("s_wave", S_WAVE)
    points = rng.uniform(-2, 2, size=(20, 4))
    worst_eq = worst_zero = worst_identity = 0.0
    suite_size = None
    for p in points:
        for seed in random_qbase_seeds(rng, 5):
            rep = q_section_curvatures(spec, p, seed)
            worst_eq = max(worst_eq, rep.equality_residual / (1 + abs(rep.mu[0])))
            worst_zero = max(worst_zero, rep.zero_residual)
            res = identity_suite(spec, p, seed)
            suite_size = len(res)
            worst_identity = max(worst_identity, max(res.values()))
    ok = (worst_eq <= 1e-6 and worst_zero <= 1e-6
          and worst_identity <= 1e-6 and suite_size >= 17)
    _report(9, "q-section curvature equalities, zeros, and identity suite",
            ok, f"equalities {worst_eq:.2e}, zeros {worst_zero:.2e}, "
                f"{suite_size} identities max {worst_identity:.2e}")


def test_criterion_10_riemann_symmetries():
    rng = np.random.default_rng(109)
    analytic = make_family("s_wave", S_WAVE)
    fd = make_family("s_wave", S_WAVE, derivative_mode="finite_difference")
    points = rng.uniform(-2, 2, size=(10, 4))
    worst_sym = 0.0
    worst_diff = 0.0
    for p in points:
        r_an = riemann(analytic, p)
        worst_sym = max(worst_sym, max(symmetry_residuals(r_an).values()))
        worst_diff = max(worst_diff, float(np.max(np.abs(r_an - riemann(fd, p)))))
    ok = worst_sym <= 1e-9 and worst_diff <= 1e-5
    _report(10, "Riemann symmetries and first Bianchi; FD agreement",
            ok, f"symmetry {worst_sym:.2e}, fd-vs-analytic {worst_diff:.2e}")


def test_criterion_11_pyramid():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(1_000):
        c = random_admissible(rng)
        x = random_qbase_seeds(rng, 1)[0]
        rep = pyramid_report(c, x)
        L, N, S = x, np.roll(x, -1), np.roll(x, -2)

        def cos_at(v, p, q):
            a, b = p - v, q - v
            return inner(c, a, b) / math.sqrt(inner(c, a, a) * inner(c, b, b))

        worst = max(worst,
                    abs(rep.cos_gamma - cos_at(L, N, S)),
                    abs(rep.cos_delta - cos_at(N, L, S)),
                    rep.angle_sum_residual)
    c = CirculantCoeffs(3, 1, 2)
    rep = pyramid_report(c, spectral_frame(c))
    equilateral = max(abs(rep.cos_gamma - 0.5), abs(rep.cos_delta - 0.5))
    ok = worst <= 1e-9 and equilateral <= 1e-9
    _report(11, "pyramid angles vs law-of-cosines oracle; equilateral faces",
            ok, f"oracle residual {worst:.2e}, equilateral deviation {equilateral:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "family": {"name": "s_wave", "params": list(S_WAVE)},
        "points": [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1]],
        "seeds": "random:3",
        "rng_seed": 2024,
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["verify", "--config", str(config_path), "--out", str(out1)])
    code2 = main(["verify", "--config", str(config_path), "--out", str(out2)])
    identical = filecmp.cmp(out1, out2, shallow=False)
    ok = code1 == 0 and code2 == 0 and identical
    _report(12, "repeated verify runs emit byte-identical reports", ok,
            f"exit codes {code1}/{code2}, byte-identical={identical}")
