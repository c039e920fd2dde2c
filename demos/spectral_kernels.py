"""
Eigenfamilies, projections, and operator functions
==================================================

Diagonalize a discrete Schrodinger operator, build spectral projections
with a calculus that mirrors measure theory, and synthesize operator
functions like the heat kernel directly from the family.
"""

import numpy as np
import scipy.linalg

from delsarte import (SchrodingerOp, Grid1D, congruence_residual, eigensolve,
                      kernel_from_measure, projection_measure)

g = Grid1D.dirichlet(0.0, np.pi, 300)
L = SchrodingerOp.free(g).matrix().A

# full family of orthonormal eigenvectors, solved from the operator's band
fam = eigensolve(L, hermitian=True)
print(f"orthonormal family of {len(fam)} modes, residual {fam.residual:.2e}")

# the Dirichlet spectrum is known in closed form
k = np.arange(1, 6)
exact = (2.0 - 2.0 * np.cos(k * np.pi / (g.n + 1))) / g.h ** 2
print("lowest eigenvalues vs closed form:")
for a, b in zip(fam.lambdas[:5], exact):
    print(f"  {a:.6f}  {b:.6f}")

# spectral projections multiply like indicator functions multiply
E_low = projection_measure(fam, lambda lam: lam < 1e4)
E_high = projection_measure(fam, lambda lam: lam > 3e3)
E_band = projection_measure(fam, lambda lam: 3e3 < lam < 1e4)
print(f"E_low E_high = E_band up to "
      f"{np.linalg.norm(E_low @ E_high - E_band):.2e}")
print(f"idempotency defect: {np.linalg.norm(E_band @ E_band - E_band):.2e}")

# operator functions: the heat kernel exp(-tL) against scipy's expm
t = 2e-4
K = kernel_from_measure(fam, lambda lam: np.exp(-t * lam))
ref = scipy.linalg.expm(-t * L)
print(f"heat kernel vs expm: {np.abs(K - ref).max():.2e}")

# f(L) commutes with L; the congruence residual quantifies it
print(f"commutation residual: {congruence_residual(K, L, L):.2e}")

# band selection pulls out just the modes inside a real interval
band = eigensolve(L, band=(0.0, 50.0), hermitian=True)
print(f"modes with eigenvalue in [0, 50]: {len(band)} "
      f"(closed form says 7)")
