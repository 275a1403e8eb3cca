"""Orthonormal q-bases and the tetrahedron they span.

For admissible coefficients there is always a seed vector x whose orbit
{x, qx, q^2 x, q^3 x} is orthonormal under g.  The reliable construction
diagonalizes the circulant metric in the Fourier basis and scales the
three relevant eigenvector components (``spectral_frame``).  A second,
radical-formula construction is kept as an audited artifact
(``closed_form_frame``): it reports its intermediate quantities and a
status instead of a usable frame, because the closed-form expressions do
not reproduce an orthonormal orbit.

Any q-base also determines a triangular pyramid with apex at the origin
and base triangle through x, qx, q^2 x; its edges come in two lengths
and its face angles satisfy 2*gamma + delta = pi.
"""

import math

import numpy as np

from circulant4 import (
    CirculantCoeffs,
    closed_form_frame,
    pyramid_report,
    spectral_frame,
    verify_frame,
)

np.set_printoptions(precision=6, suppress=True)

c = CirculantCoeffs(3.0, 1.0, 2.0)
seed = spectral_frame(c)
res = verify_frame(c, seed)
print(f"coefficients A={c.a}, B={c.b}, C={c.c}")
print(f"spectral seed: {seed}")
print("Gram matrix of the orbit (should be the identity):")
print(res.gram)
print(f"max deviation from identity: {res.max_deviation:.2e}")

print("\n--- closed-form construction (audit) ---")
audit = closed_form_frame(CirculantCoeffs(4.0, 1.0, 2.0))
print(f"x2 = {audit.x2:.6f}, x1+x3 = {audit.sum_x1_x3:.6f}, "
      f"x1*x3 = {audit.prod_x1_x3:.6f}")
print(f"discriminant = {audit.discriminant:.6f}")
print(f"candidate seed: {audit.candidate}")
if audit.residual is not None:
    print(f"Gram deviation of candidate: {audit.residual.max_deviation:.3f}")
print(f"status: {audit.status}")

print("\n--- pyramid of a q-base ---")
rep = pyramid_report(c, [1, 0, 0, 0])
print("seed (1, 0, 0, 0):")
print(f"  cos(angle x, qx)   = {rep.cos_alpha:.6f}   (= B/A)")
print(f"  cos(angle x, q^2x) = {rep.cos_beta:.6f}   (= C/A)")
print(f"  long edge^2  = {rep.edge_sq_long:.6f}  (4 edges)")
print(f"  short edge^2 = {rep.edge_sq_short:.6f}  (2 edges)")
print(f"  base angle gamma = {math.degrees(math.acos(rep.cos_gamma)):.4f} deg")
print(f"  apex angle delta = {math.degrees(math.acos(rep.cos_delta)):.4f} deg")
print(f"  2*gamma + delta - pi = {rep.angle_sum_residual:.2e}")

rep = pyramid_report(c, seed)
print("orthonormal seed:")
print(f"  gamma = delta = {math.degrees(math.acos(rep.cos_gamma)):.4f} deg "
      "(equilateral faces)")
