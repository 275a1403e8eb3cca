"""Curvature of a parallel structure and the batch verification pipeline.

For a parallel shift structure the six sectional curvatures of the
2-sections spanned by pairs from a q-base {x, qx, q^2 x, q^3 x} collapse
to a single value plus two exact zeros:

    mu{x,qx} = mu{q^3x,x} = mu{qx,q^2x} = mu{q^2x,q^3x},
    mu{x,q^2x} = mu{qx,q^3x} = 0.

This script computes the Riemann tensor for the built-in parallel
family, checks its classical symmetries, evaluates the six q-section
curvatures, runs the curvature identity suite, and finishes with a full
batch run producing the canonical JSON report.
"""

import json

import numpy as np

from circulant4 import (
    RunConfig,
    identity_suite,
    make_family,
    q_section_curvatures,
    riemann,
    run_verify,
)
from circulant4.curvature import symmetry_residuals

np.set_printoptions(precision=6, suppress=True)

family = make_family("s_wave", (2.0, 0.1, 3.0, 1.0))
p = np.array([0.3, -0.2, 0.5, 0.1])

r = riemann(family, p)
print(f"max |R| at {p}: {np.max(np.abs(r)):.6f}  (the structure is curved)")
print("classical symmetry residuals:")
for name, value in symmetry_residuals(r).items():
    print(f"  {name:22s} {value:.2e}")

seed = np.array([1.0, 0.2, -0.3, 0.4])
rep = q_section_curvatures(family, p, seed)
labels = ["{x,qx}", "{x,q2x}", "{q3x,x}", "{qx,q2x}", "{qx,q3x}", "{q2x,q3x}"]
print("\nsix q-section curvatures:")
for label, mu in zip(labels, rep.mu):
    print(f"  mu{label:10s} = {mu: .8f}")
print(f"equality residual (four equal values): {rep.equality_residual:.2e}")
print(f"zero residual (two vanishing values):  {rep.zero_residual:.2e}")

res = identity_suite(family, p, seed)
print(f"\nidentity suite: {len(res)} residuals, max = {max(res.values()):.2e}")

print("\n--- batch verification ---")
config = RunConfig({
    "family": {"name": "s_wave", "params": [2.0, 0.1, 3.0, 1.0]},
    "points": [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1]],
    "seeds": "random:3",
    "rng_seed": 7,
})
report = run_verify(config)
print(json.dumps(report["summary"], indent=2, sort_keys=True))
