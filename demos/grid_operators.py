"""
Grids, stencils, and discrete operators
=======================================

Build difference operators on 1-D grids, check their convergence order,
and watch formal adjoints and commutators behave like the calculus says
they should.
"""

import numpy as np

from delsarte import (DiffOp, Grid1D, ProductGrid, adjoint_defect, commutator,
                      derivative_matrix, discretize, formal_adjoint, inner)

# a Dirichlet grid keeps only interior nodes; h = (b - a) / (n + 1)
g = Grid1D.dirichlet(0.0, np.pi, 200)
print(f"grid: n={g.n}, h={g.h:.5f}, first node {g.x[0]:.5f}")

# second derivative, default order-2 stencil: eigenvalues of the Dirichlet
# Laplacian are known in closed form, so the matrix can be checked exactly
D2 = derivative_matrix(g, 2)
lam = np.sort(np.linalg.eigvalsh(-D2))
k = np.arange(1, 6)
exact = (2.0 - 2.0 * np.cos(k * np.pi / (g.n + 1))) / g.h ** 2
print("lowest Laplacian eigenvalues vs closed form:")
for a, b in zip(lam[:5], exact):
    print(f"  {a:.8f}  {b:.8f}")

# convergence order: apply d/dx to sin(x) at stencil orders 2 and 4
for order in (2, 4):
    errs = []
    for n in (100, 200, 400):
        gg = Grid1D.periodic(0.0, 2.0 * np.pi, n)
        D = derivative_matrix(gg, 1, scheme_order=order)
        errs.append(np.abs(D @ np.sin(gg.x) - np.cos(gg.x)).max())
    slope = np.polyfit(np.log([100, 200, 400]), np.log(errs), 1)[0]
    print(f"order-{order} stencil: measured slope {-slope:.2f}")

# a variable-coefficient expression L = a(x) d^2 + a'(x) d + q(x);
# with this coefficient pattern L = d (a d) + q is formally self-adjoint
gp = Grid1D.periodic(0.0, 2.0 * np.pi, 240)
pg = ProductGrid.line(gp)
x = gp.x
a = 1.0 + 0.3 * np.cos(x)
da = -0.3 * np.sin(x)
L = DiffOp(pg, {(2,): a.astype(complex), (1,): da.astype(complex),
                (0,): np.sin(x).astype(complex)})
A = discretize(L)
# the periodic wrap entries sit in the corners, so the band is full
print(f"assembled {A.A.shape} matrix, half-bandwidth {A.to_banded().shape[0] - 1}")
print(f"self-adjointness defect: {adjoint_defect(L):.3e}")

Lstar = formal_adjoint(L)
gap = np.linalg.norm(discretize(Lstar).A - A.A) / np.linalg.norm(A.A)
print(f"||A - A*|| / ||A||: {gap:.3e}")

# the commutator of d/dx with multiplication by x is neighbor averaging,
# not the identity the continuum Leibniz rule would suggest
gd = Grid1D.dirichlet(-1.0, 1.0, 50)
pgd = ProductGrid.line(gd)
D1 = discretize(DiffOp(pgd, {(1,): 1.0}))
X = discretize(DiffOp(pgd, {(0,): gd.x.astype(complex)}))
C = commutator(D1, X)
print(f"[d/dx, x] superdiagonal entry: {np.real(C[0, 1]):.3f}")

# weighted inner product: ||sin||^2 over one period is pi
print(f"h * sum sin^2 = {inner(pg, np.sin(x), np.sin(x)).real:.8f}"
      f"  (pi = {np.pi:.8f})")
