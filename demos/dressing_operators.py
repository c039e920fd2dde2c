"""
Triangular dressing operators
=============================

The kernels built here conjugate one operator into another while staying
triangular: everything the output knows at a node comes from input nodes
on one side of it.  Two constructions are shown: a closed-form kernel from
a finite eigenfamily, and a marching kernel that connects a free operator
to its soliton dressing.
"""

import numpy as np

from delsarte import (Grid1D, SchrodingerOp, DressingSeed, KernelData,
                      TransmutationData, adjoint_compat_check, darboux_once,
                      eigensolve, independence_check, kernel_from_measure,
                      locality_check, pair_intertwiner, transform_operator)

# --- family construction ---------------------------------------------------

g = Grid1D.dirichlet(0.0, np.pi, 120)
L = SchrodingerOp.free(g).matrix().A
fam = eigensolve(L, count=3, hermitian=True)
data = TransmutationData.from_family(g, L, fam.right, fam.left)

Mp = data.operator("+")
Minv = data.inverse("+")
eye = np.eye(g.n)
print(f"kernel strictly lower triangular: "
      f"{np.count_nonzero(np.triu(Mp.kernel, 0)) == 0}")
print(f"exact inverse defect: "
      f"{np.abs(Mp.matrix() @ Minv.matrix() - eye).max():.3e}")

# the running normalization interpolates between the endpoint values
K0 = data.omega_at(g.a)
K1 = data.omega_at(g.x[-1])
print(f"normalization at a:  diag {np.real(np.diag(K0))}")
print(f"normalization at b:  diag {np.real(np.diag(K1))}")

# adjoint compatibility couples the plus kernel to the adjoint of its
# inverse; the defect is a roundoff number
print(f"adjoint compatibility: {adjoint_compat_check(data):.3e}")

# sign independence holds when the kernel data commutes with L
full = eigensolve(L, hermitian=True)
Phi = kernel_from_measure(full, lambda lam: 0.4 / (1.0 + abs(lam)))
datak = KernelData(L, Phi)
gap, comm = independence_check(datak)
print(f"sign independence gap: {gap:.3e}  (commutation {comm:.3e})")

# --- marching construction -------------------------------------------------

gm = Grid1D.dirichlet(-10.0, 10.0, 240)
base = SchrodingerOp.free(gm)
dressed = darboux_once(base, DressingSeed.hyperbolic(gm, 1.0, "even"))
Lm = base.matrix().A
Tm = dressed.operator.matrix().A

om = pair_intertwiner(Lm, Tm, "+", grid=gm)
M = om.matrix()
resid = np.linalg.norm((M @ Lm - Tm @ M)[: gm.n - 1])
print(f"\nmarching kernel: intertwining residual (interior) "
      f"{resid / (np.linalg.norm(M) * np.linalg.norm(Lm)):.3e}")
print(f"condition number of 1 + K: {om.cond():.3e}")

# conjugating L by the kernel reproduces the dressed operator and keeps
# it tridiagonal: the transformation is local even though K is dense
Ltil = transform_operator(Lm, om)
print(f"interior rows match dressed operator: "
      f"{np.abs(Ltil[: gm.n - 1] - Tm[: gm.n - 1]).max():.3e}")
print(f"off-band leakage: {locality_check(Ltil, bandwidth=1):.3e}")
