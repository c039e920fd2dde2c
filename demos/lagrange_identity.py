"""
The bilinear concomitant and its divergence identity
====================================================

For a differential expression L and test fields phi, psi, the combination
conj(phi) (L psi) - conj(L* phi) psi is a pure divergence.  On the grid
that statement holds up to a residual that shrinks at the stencil order,
and the residual's total mass over a periodic box vanishes identically.
"""

import numpy as np

from delsarte import (DiffOp, FormField, Grid1D, ProductGrid, SurfaceRegion,
                      bilinear_concomitant, boundary, divergence_residual,
                      exterior_derivative, form_norm, surface_integral)

# first order: the concomitant of d/dx is the product conj(phi) psi itself
g = Grid1D.periodic(0.0, 2.0 * np.pi, 128)
pg = ProductGrid.line(g)
x = g.x
op = DiffOp(pg, {(1,): 1.0})
phi = np.exp(1j * x)[:, None]
psi = np.exp(2j * x)[:, None]
Z = bilinear_concomitant(op, phi, psi)
gap = np.abs(Z[0] - np.conj(phi[:, 0]) * psi[:, 0]).max()
print(f"Z vs conj(phi) psi for d/dx: {gap:.3e}")

# the divergence side uses a centered stencil, so even here the pointwise
# identity carries an O(h^2) discretization residual
rep = divergence_residual(op, phi, psi)
print(f"first-order residual (interior): {rep['interior_max']:.3e}")

# second order: the residual decays at the stencil order
print("convergence of the interior residual for L = -d^2 + cos(x):")
errs, ns = [], (64, 128, 256)
for n in ns:
    gn = Grid1D.periodic(0.0, 2.0 * np.pi, n)
    pgn = ProductGrid.line(gn)
    xn = gn.x
    opn = DiffOp(pgn, {(2,): -1.0, (0,): np.cos(xn).astype(complex)})
    ph = np.exp(1j * xn)[:, None]
    ps = np.cos(2.0 * xn).astype(complex)[:, None]
    rep = divergence_residual(opn, ph, ps)
    errs.append(float(rep['interior_max']))
    print(f"  n={n:4d}: {errs[-1]:.3e}")
slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
print(f"measured order: {slope:.2f}")

# the total residual mass over the periodic box is exactly zero:
# every column of the divergence matrix telescopes away
total = np.sum(rep['residual'])
print(f"total residual mass: {abs(total):.3e}")

# the discrete exterior derivative is nilpotent
g2 = ProductGrid((Grid1D.periodic(0.0, 1.0, 16),
                  Grid1D.periodic(0.0, 2.0, 16)), fiber_dim=1)
rng = np.random.default_rng(0)
f = FormField(g2, 0, {(): rng.standard_normal(g2.shape + (1,))})
ddf = exterior_derivative(exterior_derivative(f))
print(f"||d(df)||: {form_norm(ddf):.3e}")

# Stokes: integral of d(omega) over a block equals omega over its boundary
omega = FormField(g2, 1, {(0,): rng.standard_normal(g2.shape + (1,)),
                          (1,): rng.standard_normal(g2.shape + (1,))})
block = SurfaceRegion.cell_block(g2, (2, 3), (11, 12))
lhs = surface_integral(exterior_derivative(omega), block)
rhs = surface_integral(omega, boundary(block))
print(f"Stokes defect on a 2-D block: {abs(lhs - rhs):.3e}")
