"""Workload definitions, the frozen reference and the per-call correctness check.

Each workload is one `circulant4 verify` config.  Only `rng_seed` varies
with the benchmark's `--seed`; everything else is fixed here so that two
commits measured with the same seed run the same inputs.

The reference below is a vectorised re-derivation of the seed code's
q-section curvatures: analytic jets of the `s_wave` and `control` families,
the metric's second-derivative form of the (0,4) Riemann tensor, and the
seed sampler of `random:N`.  It shares no code with `circulant4`, so a
change to the program cannot move the reference with it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

PASS_ALL = {
    "riemann_symmetries": "pass",
    "spectral_frame": "pass",
    "nabla_q_zero": "pass",
    "section_equalities": "pass",
    "section_zeros": "pass",
    "identity_suite": "pass",
}
NOT_APPLICABLE = "not applicable (non-parallel)"
NON_PARALLEL = {
    "riemann_symmetries": "pass",
    "spectral_frame": "pass",
    "nabla_q_zero": "fail",
    "section_equalities": NOT_APPLICABLE,
    "section_zeros": NOT_APPLICABLE,
    "identity_suite": NOT_APPLICABLE,
}

# Analytic mu against the reference: the run's own curvature_tol.
ANALYTIC_MU_TOL = 1e-9
# Finite-difference mu against the analytic reference: the FD/analytic
# tolerance of the acceptance gate, independent of the FD step policy.
FD_MU_TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    params: tuple
    grid_count: int
    n_seeds: int
    derivative_mode: str
    output_format: str
    expected_status: str
    expected_criteria: Dict[str, str]

    @property
    def records(self) -> int:
        return self.grid_count ** 4 * self.n_seeds

    def config(self, rng_seed: int) -> Dict[str, Any]:
        """The generated `verify` config for one benchmark seed."""
        return {
            "family": {"name": self.family, "params": list(self.params)},
            "grid": {"min": [-1.0] * 4, "max": [1.0] * 4, "count": [self.grid_count] * 4},
            "seeds": f"random:{self.n_seeds}",
            "rng_seed": rng_seed,
            "derivative_mode": self.derivative_mode,
            "output": {"format": self.output_format},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="seeds_heavy",
            family="s_wave", params=(2.0, 0.1, 3.0, 1.0), grid_count=2, n_seeds=64,
            derivative_mode="analytic", output_format="json",
            expected_status="pass", expected_criteria=PASS_ALL,
        ),
        Workload(
            name="points_fd",
            family="s_wave", params=(2.0, 0.1, 3.0, 1.0), grid_count=4, n_seeds=1,
            derivative_mode="finite_difference", output_format="json",
            expected_status="pass", expected_criteria=PASS_ALL,
        ),
        Workload(
            name="control_csv",
            family="control", params=(4.0, 0.5, 1.0, 2.0), grid_count=4, n_seeds=8,
            derivative_mode="analytic", output_format="csv",
            expected_status="fail", expected_criteria=NON_PARALLEL,
        ),
    )
}


# ---------------------------------------------------------------- reference

def grid_points(count: int) -> np.ndarray:
    """Cartesian product of `count` equispaced values on [-1, 1], last axis fastest."""
    axis = np.linspace(-1.0, 1.0, count)
    return np.array(list(itertools.product(axis, axis, axis, axis)))


def reference_seeds(rng_seed: int, n: int, min_poly: float = 1e-3) -> np.ndarray:
    """The seed sampler of `random:N`: uniform draws on [-1,1]^4 with |P(x)| >= min_poly,
    where P(x) = det of the q-orbit (x, qx, q^2x, q^3x)."""
    rng = np.random.default_rng(rng_seed)
    seeds = []
    while len(seeds) < n:
        x = rng.uniform(-1.0, 1.0, size=4)
        if abs(np.linalg.det(orbit(x))) >= min_poly:
            seeds.append(x)
    return np.stack(seeds)


def orbit(x: np.ndarray) -> np.ndarray:
    """Rows x, qx, q^2x, q^3x for the cyclic shift (qx)_i = x_{i+1}."""
    return np.stack([np.roll(x, -k, axis=-1) for k in range(4)], axis=-2)


def _field_jets(family: str, params: tuple, pts: np.ndarray):
    """Values (N,3), gradients (N,3,4), Hessians (N,3,4,4) of (A, B, C)."""
    n = len(pts)
    val = np.zeros((n, 3))
    grad = np.zeros((n, 3, 4))
    hess = np.zeros((n, 3, 4, 4))
    if family == "s_wave":
        c0, eps, a0, b0 = params
        v = np.array([1.0, 0.0, -1.0, 0.0])
        w = np.array([0.0, 1.0, 0.0, -1.0])
        r, t = pts @ v, pts @ w
        f = eps * (np.sin(r) + np.sin(t) / 2 + np.sin(r + t) / 3)
        fr = eps * (np.cos(r) + np.cos(r + t) / 3)
        ft = eps * (np.cos(t) / 2 + np.cos(r + t) / 3)
        frr = -eps * (np.sin(r) + np.sin(r + t) / 3)
        ftt = -eps * (np.sin(t) / 2 + np.sin(r + t) / 3)
        frt = -eps * np.sin(r + t) / 3
        df = fr[:, None] * v + ft[:, None] * w
        ddf = (frr[:, None, None] * np.outer(v, v) + ftt[:, None, None] * np.outer(w, w)
               + frt[:, None, None] * (np.outer(v, w) + np.outer(w, v)))
        val[:] = np.stack([a0 - f, np.full(n, b0), c0 + f], axis=1)
        grad[:, 0], grad[:, 2] = -df, df
        hess[:, 0], hess[:, 2] = -ddf, ddf
    elif family == "control":
        a0, kappa, b0, c0 = params
        val[:] = np.stack([a0 + kappa * np.sin(pts[:, 0]), np.full(n, b0), np.full(n, c0)], axis=1)
        grad[:, 0, 0] = kappa * np.cos(pts[:, 0])
        hess[:, 0, 0, 0] = -kappa * np.sin(pts[:, 0])
    else:
        raise ValueError(f"no reference for family {family!r}")
    return val, grad, hess


def reference_mu(family: str, params: tuple, pts: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """mu[p, s, 6]: sectional curvatures of the six q-sections, in report order."""
    val, grad, hess = _field_jets(family, params, pts)
    # g_ij is A, B, C, B by circulant offset (j - i) mod 4.
    field = np.array([0, 1, 2, 1])[(np.arange(4)[None, :] - np.arange(4)[:, None]) % 4]
    g = val[:, field]                                   # (N,i,j)
    dg = grad[:, field].transpose(0, 3, 1, 2)           # (N,a,i,j)
    ddg = hess[:, field].transpose(0, 3, 4, 1, 2)       # (N,a,b,i,j)
    ginv = np.linalg.inv(g)
    # Christoffel symbols of the first kind, Gamma_{l,ij}, then Gamma^k_ij.
    first = 0.5 * (np.einsum("nijl->nlij", dg) + np.einsum("njil->nlij", dg) - dg)
    gamma = np.einsum("nkl,nlij->nkij", ginv, first)
    # R_ijkl = 1/2 (d_j d_k g_il + d_i d_l g_jk - d_i d_k g_jl - d_j d_l g_ik)
    #          + g_mo (Gamma^m_jk Gamma^o_il - Gamma^m_ik Gamma^o_jl)
    # oriented, as in the report, so that R(x, y, x, y) > 0 on a round sphere.
    d2 = (np.einsum("njkil->nijkl", ddg) + np.einsum("niljk->nijkl", ddg)
          - np.einsum("nikjl->nijkl", ddg) - np.einsum("njlik->nijkl", ddg))
    quad = (np.einsum("nmo,nmjk,noil->nijkl", g, gamma, gamma)
            - np.einsum("nmo,nmik,nojl->nijkl", g, gamma, gamma))
    riem = 0.5 * d2 + quad
    vs = orbit(seeds)                                   # (S,k,4)
    pairs = [(0, 1), (0, 2), (3, 0), (1, 2), (1, 3), (2, 3)]
    a = vs[:, [p[0] for p in pairs]]                    # (S,6,4)
    b = vs[:, [p[1] for p in pairs]]
    num = np.einsum("nijkl,sui,suj,suk,sul->nsu", riem, a, b, a, b, optimize=True)
    gaa = np.einsum("nij,sui,suj->nsu", g, a, a)
    gbb = np.einsum("nij,sui,suj->nsu", g, b, b)
    gab = np.einsum("nij,sui,suj->nsu", g, a, b)
    return num / (gaa * gbb - gab ** 2)


# ---------------------------------------------------------------- checking

@dataclass(frozen=True)
class Expectation:
    """What every verify call of one workload and benchmark seed must produce."""

    workload: Workload
    points: np.ndarray
    seeds: np.ndarray
    mu: np.ndarray          # analytic reference, (points * seeds, 6)
    mu_tol: float

    @classmethod
    def build(cls, workload: Workload, rng_seed: int) -> "Expectation":
        points = grid_points(workload.grid_count)
        seeds = reference_seeds(rng_seed, workload.n_seeds)
        mu = reference_mu(workload.family, workload.params, points, seeds).reshape(-1, 6)
        tol = FD_MU_TOL if workload.derivative_mode == "finite_difference" else ANALYTIC_MU_TOL
        return cls(workload, points, seeds, mu, tol)


def _check_rows(exp: Expectation, point_index, seed_index, point, seed, mu) -> List[str]:
    """Record count, (point, seed) order and mu against the reference."""
    n_seeds = len(exp.seeds)
    n = len(exp.points) * n_seeds
    if len(point_index) != n:
        return [f"{len(point_index)} records, expected {n}"]
    problems = []
    order = np.arange(n)
    if not (np.array_equal(point_index, order // n_seeds) and np.array_equal(seed_index, order % n_seeds)):
        problems.append("records are not in (point, seed) order")
    elif not (np.array_equal(point, exp.points[order // n_seeds])
              and np.array_equal(seed, exp.seeds[order % n_seeds])):
        problems.append("record points or seeds differ from the workload's inputs")
    dev = np.abs(mu - exp.mu) / np.maximum(1.0, np.abs(exp.mu))
    bad = ~(dev <= exp.mu_tol)  # NaN is bad too
    if bad.any():
        worst = np.max(np.where(np.isnan(dev), np.inf, dev))
        problems.append(f"mu deviates from the reference by up to {worst:.3g} (> {exp.mu_tol:g}), "
                        f"first at record {int(np.argmax(bad.any(axis=1)))}")
    return problems


def _check_report(exp: Expectation, report: Dict[str, Any]) -> List[str]:
    w = exp.workload
    problems = []
    summary = report["summary"]
    if summary["status"] != w.expected_status:
        problems.append(f"status {summary['status']!r}, expected {w.expected_status!r}")
    if summary["criteria"] != w.expected_criteria:
        problems.append(f"criteria {summary['criteria']}, expected {w.expected_criteria}")
    recs = report["records"]
    problems += _check_rows(
        exp,
        np.array([r["point_index"] for r in recs]),
        np.array([r["seed_index"] for r in recs]),
        np.array([r["point"] for r in recs], dtype=float).reshape(-1, 4),
        np.array([r["seed"] for r in recs], dtype=float).reshape(-1, 4),
        np.array([r["mu"] for r in recs], dtype=float).reshape(-1, 6),
    )
    return problems


def _check_csv(exp: Expectation, text: str) -> List[str]:
    rows = list(csv.reader(io.StringIO(text)))
    col = {name: i for i, name in enumerate(rows[0])}
    body = rows[1:]

    def take(names, dtype=float):
        return np.array([[row[col[c]] for c in names] for row in body], dtype=dtype).reshape(len(body), -1)

    return _check_rows(
        exp,
        take(["point_index"], int)[:, 0],
        take(["seed_index"], int)[:, 0],
        take([f"point_{i}" for i in range(1, 5)]),
        take([f"seed_{i}" for i in range(1, 5)]),
        take([f"mu_{i}" for i in range(1, 7)]),
    )


def _guarded(check, exp: Expectation, data) -> List[str]:
    try:
        return check(exp, data)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def check_report(exp: Expectation, report: Dict[str, Any]) -> List[str]:
    """Problems with one verify call's report; empty if correct."""
    return _guarded(_check_report, exp, report)


def check_text(exp: Expectation, text: str) -> List[str]:
    """Problems with one verify call's serialised report; empty if correct."""
    if exp.workload.output_format == "json":
        problems = _guarded(lambda e, t: _check_report(e, json.loads(t)), exp, text)
    else:
        problems = _guarded(_check_csv, exp, text)
    return [f"serialised report: {p}" for p in problems]
