"""Generalized de Rham complex of a commuting operator family.

Given pairwise-commuting operators L_1..L_r, one per grid axis, the twisted
differential  d_L beta = sum_j dt_j wedge (L_j beta)  squares to zero, and
the whole Hodge apparatus goes through on the grid: a star operation that
permutes components with a sign, the adjoint differential as a plain
conjugate transpose under the uniform node metric, the nonnegative operator
Delta = d'd + dd', and harmonic spaces whose dimensions reproduce the
product-topology Betti numbers (times the joint-kernel dimension of the
fiber generators for flat families L_j = D_j - A_j).

Period mappings pair closed forms with oriented cycles through a fiber
contraction against a dual-flat zero-form; on the torus with trivial fiber
the fundamental loops recover the axis periods exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (DegreeMismatchError, DiscretizationError,
                     NonCommutingFamilyError, NotClosedError)
from .grid_ops import Grid1D, OperatorMatrix, ProductGrid
from .lagrange import (FormField, _subsets, coboundary, d_matrix,
                       forward_diff_matrix, form_norm, surface_integral)

__all__ = [
    "GenComplex",
    "HarmonicReport",
    "plain_complex",
    "flat_complex",
    "flat_section",
    "dual_flat_section",
    "flat_dimension",
    "d_L",
    "hodge_star",
    "scalar_product",
    "laplace_hodge",
    "harmonic_space",
    "hodge_decompose",
    "skrypnik_map",
    "expected_betti",
]


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

@dataclass
class GenComplex:
    """A commuting family of axis operators acting on fiber-valued fields.

    ``axis_mats[j]`` is the matrix of L_j on flattened fields.  Pairwise
    commutation is checked on construction; it is what makes d_L nilpotent.
    The scalar product carries the uniform node weight ``grid.vol``.  The
    operators share one dtype, the common type of the inputs: real axis
    operators stay real, and so do the coboundary and Laplace-Hodge
    matrices built from them.
    """

    grid: ProductGrid
    axis_mats: list
    _dmats: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self.axis_mats) != self.grid.ndim:
            raise DiscretizationError("one axis operator per axis is required")
        d = self.grid.total_dim
        mats = [np.asarray(M) for M in self.axis_mats]
        dtype = np.result_type(*mats, float)
        self.axis_mats = [np.asarray(M, dtype=dtype) for M in mats]
        for M in self.axis_mats:
            if M.shape != (d, d):
                raise DiscretizationError(
                    f"axis operators must be {d} x {d} on flattened fields")
        for j in range(len(self.axis_mats)):
            for k in range(j + 1, len(self.axis_mats)):
                A, B = self.axis_mats[j], self.axis_mats[k]
                scale = np.linalg.norm(A) * np.linalg.norm(B)
                gap = np.linalg.norm(A @ B - B @ A)
                if not (gap <= 1e-12 * max(scale, 1.0)):
                    raise NonCommutingFamilyError(
                        f"axis operators {j} and {k} do not commute: "
                        f"residual {gap:.3e} vs scale {scale:.3e}")

    def apply_axis(self, j: int, arr: np.ndarray) -> np.ndarray:
        vec = self.grid.flatten_field(np.asarray(arr, dtype=complex))
        return self.grid.unflatten_field(self.axis_mats[j] @ vec)

    def d_matrix(self, degree: int) -> np.ndarray:
        if degree not in self._dmats:
            self._dmats[degree] = d_matrix(self.grid, degree, self.axis_mats)
        return self._dmats[degree]


def plain_complex(grid: ProductGrid) -> GenComplex:
    """The untwisted complex, L_j = D_j, with D_j the forward difference
    along axis j.

    Forward differences along distinct axes commute exactly, so d*d = 0 is
    structural, on periodic and Dirichlet axes alike: its entries cancel
    exactly, up to the fused multiply-add roundoff (about 1e-19 relative)
    that a BLAS product of the real matrices may leave.
    """
    mats = [forward_diff_matrix(grid, a) for a in range(grid.ndim)]
    return GenComplex(grid, mats)


def _matched_generator(g: Grid1D, A: np.ndarray) -> np.ndarray:
    """(exp(h A) - 1)/h: the fiber generator whose flat sections are the
    sampled continuum flat sections, exactly."""
    return (scipy.linalg.expm(g.h * A) - np.eye(A.shape[0])) / g.h


def flat_complex(grid: ProductGrid, generators: list) -> GenComplex:
    """Twisted complex L_j = D_j - Aeff_j with constant commuting fiber
    matrices A_j.

    The matched generator Aeff_j = (exp(h A_j)-1)/h stands in for A_j, so
    nodal samples of t -> exp(sum t_j A_j) v0 (see :func:`flat_section`)
    lie exactly in ker L_j.
    """
    N = grid.fiber_dim
    gens = [np.asarray(A, dtype=complex) for A in generators]
    if len(gens) != grid.ndim or any(A.shape != (N, N) for A in gens):
        raise DiscretizationError("one (N, N) generator per axis is required")
    mats = [forward_diff_matrix(grid, a)
            - np.kron(np.eye(grid.nnodes), _matched_generator(g, A))
            for a, (g, A) in enumerate(zip(grid.axes, gens))]
    return GenComplex(grid, mats)


def _march(grid: ProductGrid, steps: list, v0: np.ndarray) -> np.ndarray:
    """Nodal section v(i + e_a) = steps[a] v(i) started from v(0) = v0."""
    N = grid.fiber_dim
    v0 = np.asarray(v0, dtype=complex)
    out = np.zeros(grid.shape + (N,), dtype=complex)
    # cumulative powers along each axis in turn
    line = np.empty((grid.axes[0].n, N), dtype=complex)
    cur = v0.copy()
    for i in range(grid.axes[0].n):
        line[i] = cur
        cur = steps[0] @ cur
    if grid.ndim == 1:
        return line
    out[(slice(None),) + (0,) * (grid.ndim - 1)] = line
    for a in range(1, grid.ndim):
        idx_prev = [slice(None)] * grid.ndim
        idx_cur = [slice(None)] * grid.ndim
        for j in range(a + 1, grid.ndim):
            idx_prev[j] = 0
            idx_cur[j] = 0
        for i in range(1, grid.axes[a].n):
            idx_prev[a] = i - 1
            idx_cur[a] = i
            out[tuple(idx_cur)] = np.einsum(
                "uv,...v->...u", steps[a], out[tuple(idx_prev)])
    return out


def flat_section(grid: ProductGrid, generators: list, v0: np.ndarray) -> np.ndarray:
    """Sample t -> exp(t_1 A_1) ... exp(t_r A_r) v0 on the nodes."""
    steps = [scipy.linalg.expm(g.h * np.asarray(A, dtype=complex))
             for g, A in zip(grid.axes, generators)]
    return _march(grid, steps, v0)


def dual_flat_section(grid: ProductGrid, generators: list, w0: np.ndarray) -> np.ndarray:
    """Nodal section in the kernel of every adjoint axis operator of
    :func:`flat_complex`.

    The backward-difference recursion phi(i+1) = (1 + h Aeff_j^*)^{-1} phi(i)
    solves (D_j - Aeff_j)^* phi = 0 exactly on inner nodes; with the matched
    generator Aeff_j the step matrix is exp(-h A_j^*).
    """
    N = grid.fiber_dim
    steps = []
    for g, A in zip(grid.axes, generators):
        Ae = _matched_generator(g, np.asarray(A, dtype=complex))
        steps.append(np.linalg.inv(np.eye(N) + g.h * Ae.conj().T))
    return _march(grid, steps, w0)


def flat_dimension(generators: list) -> int:
    """Dimension of the joint kernel of the fiber generators."""
    gens = [np.asarray(A, dtype=complex) for A in generators]
    stacked = np.vstack(gens)
    s = np.linalg.svd(stacked, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    return int(np.sum(s <= 1e-10 * max(smax, 1.0)))


# ---------------------------------------------------------------------------
# differential, star, products
# ---------------------------------------------------------------------------

def d_L(c: GenComplex, beta: FormField) -> FormField:
    """Twisted exterior derivative sum_j dt_j wedge (L_j beta)."""
    ops = [lambda arr, j=j: c.apply_axis(j, arr) for j in range(c.grid.ndim)]
    return coboundary(beta, ops)


def _star_sign(S: tuple, k: int) -> int:
    return -1 if (sum(S) - (k * (k - 1)) // 2) % 2 else 1


def hodge_star(c: GenComplex, beta: FormField) -> FormField:
    """Component permutation with the orientation sign; unit volume form.

    star(dt_S) = sign * dt_{S^c} with sign the parity of (S, S^c) against
    the identity ordering; star(star(beta)) = (-1)^{k(r-k)} beta.
    """
    r = c.grid.ndim
    k = beta.degree
    comps = {}
    full = tuple(range(r))
    for S in _subsets(r, k):
        Sc = tuple(a for a in full if a not in S)
        comps[Sc] = _star_sign(S, k) * beta.component(S)
    return FormField(c.grid, r - k, comps)


def scalar_product(c: GenComplex, beta: FormField, gamma: FormField) -> complex:
    """Sum over components of the weighted node pairing; conjugate-linear
    in the first argument."""
    if beta.degree != gamma.degree:
        raise DegreeMismatchError(
            f"cannot pair a degree-{beta.degree} form with degree {gamma.degree}")
    return c.grid.vol * complex(np.vdot(beta.stack(), gamma.stack()))


def laplace_hodge(c: GenComplex, degree: int) -> OperatorMatrix:
    """Delta_k = d_k' d_k + d_{k-1} d_{k-1}' on stacked degree-k components.

    The adjoint is the literal conjugate transpose (the metric is a uniform
    scalar), so ker Delta = ker d  intersect  ker d' holds exactly.  The
    dtype is that of the complex's axis operators.
    """
    r = c.grid.ndim
    if not (0 <= degree <= r):
        raise DegreeMismatchError(f"degree {degree} outside 0..{r}")
    ncols = math.comb(r, degree) * c.grid.total_dim
    Delta = np.zeros((ncols, ncols), dtype=c.axis_mats[0].dtype)
    if degree < r:
        Dk = c.d_matrix(degree)
        Delta += Dk.conj().T @ Dk
    if degree > 0:
        Dm = c.d_matrix(degree - 1)
        Delta += Dm @ Dm.conj().T
    return OperatorMatrix(Delta)


# ---------------------------------------------------------------------------
# harmonic spaces and the decomposition
# ---------------------------------------------------------------------------

@dataclass
class HarmonicReport:
    """Null-space data of one Laplace-Hodge block.

    ``gap`` is the ratio between the smallest retained (nonzero) and the
    largest rejected (null) singular value; a dimension claim with
    ``gap < 1e4`` is flagged ambiguous rather than trusted.
    """

    degree: int
    dim: int
    gap: float
    basis: np.ndarray
    singular_values: np.ndarray
    ambiguous: bool

    def as_json(self, betti_expected: int | None = None) -> dict:
        out = {"degree": self.degree, "dim": self.dim, "gap": self.gap}
        if betti_expected is not None:
            out["betti_expected"] = betti_expected
        return out


def harmonic_space(c: GenComplex, degree: int) -> HarmonicReport:
    """Null space of Delta_degree: eigenvalues at most 1e-8 times the
    largest count as zero."""
    Delta = laplace_hodge(c, degree).A
    # Hermitian nonnegative by construction: d'd + dd'
    w, V = np.linalg.eigh((Delta + Delta.conj().T) / 2.0)
    w = np.abs(w)
    smax = float(w[-1]) if w.size else 0.0
    thr = 1e-8 * max(smax, 1e-300)
    null = w <= thr
    dim = int(np.count_nonzero(null))
    rejected = w[null]
    retained = w[~null]
    if retained.size == 0:
        gap = np.inf
    elif rejected.size == 0 or float(rejected.max()) == 0.0:
        gap = np.inf
    else:
        gap = float(retained.min() / rejected.max())
    return HarmonicReport(degree, dim, gap, V[:, null], w,
                          ambiguous=bool(gap < 1e4))


def hodge_decompose(c: GenComplex, beta: FormField):
    """(harmonic, exact, coexact) parts; mutually orthogonal, summing to beta.

    The exact part is the range projection of d_{k-1}, the coexact part the
    range projection of d_k', both by least squares; the harmonic remainder
    is what survives.
    """
    k = beta.degree
    v = beta.stack()
    grid = c.grid
    if k > 0:
        Dm = c.d_matrix(k - 1)
        w = np.linalg.lstsq(Dm, v, rcond=None)[0]
        exact = Dm @ w
    else:
        exact = np.zeros_like(v)
    if k < grid.ndim:
        Dk = c.d_matrix(k)
        u = np.linalg.lstsq(Dk.conj().T, v, rcond=None)[0]
        coexact = Dk.conj().T @ u
    else:
        coexact = np.zeros_like(v)
    harm = v - exact - coexact
    return (FormField.from_stack(grid, k, harm),
            FormField.from_stack(grid, k, exact),
            FormField.from_stack(grid, k, coexact))


# ---------------------------------------------------------------------------
# period mappings
# ---------------------------------------------------------------------------

def skrypnik_map(c: GenComplex, phi0: np.ndarray, psis: list,
                 cycles: list) -> np.ndarray:
    """Period matrix  P[i, j] = integral over cycle_i of <phi0, psi_j>.

    ``phi0`` is a zero-form in the kernel of the dual complex (constant for
    the trivial fiber); each psi_j must be d_L-closed.  The fiber indices
    are contracted pointwise, leaving scalar k-forms whose integrals over
    k-cycles are homology invariants.  A non-finite entry raises
    ``DiscretizationError`` in ``phi0`` and ``NotClosedError`` in a psi_j.
    """
    grid = c.grid
    phi0 = np.asarray(phi0, dtype=complex)
    if phi0.shape != grid.shape + (grid.fiber_dim,):
        phi0 = grid.unflatten_field(phi0)
    if not np.all(np.isfinite(phi0)):
        raise DiscretizationError(
            f"phi0 has {np.count_nonzero(~np.isfinite(phi0))} non-finite entries")
    scalar_grid = ProductGrid(grid.axes, 1)
    periods = np.zeros((len(cycles), len(psis)), dtype=complex)
    for j, psi in enumerate(psis):
        bad = sum(np.count_nonzero(~np.isfinite(a)) for a in psi.comps.values())
        if bad:
            raise NotClosedError(math.nan, f"form {j} has {bad} non-finite entries")
        res = form_norm(d_L(c, psi)) if psi.degree < grid.ndim else 0.0
        if not (res <= 1e-8 * max(form_norm(psi), 1e-30)):
            raise NotClosedError(res, f"form {j} is not closed: |d_L psi| = {res:.3e}")
        comps = {}
        for S in _subsets(grid.ndim, psi.degree):
            z = np.einsum("...n,...n->...", np.conj(phi0), psi.component(S))
            comps[S] = z[..., None]
        zform = FormField(scalar_grid, psi.degree, comps)
        for i, cyc in enumerate(cycles):
            periods[i, j] = surface_integral(zform, cyc)
    return periods


def expected_betti(grid: ProductGrid) -> tuple:
    """Betti numbers of the realized product complex.

    Periodic axes contribute circle factors; a Dirichlet axis (invertible
    forward difference under zero extension) kills all cohomology.
    """
    if any(g.boundary == "dirichlet" for g in grid.axes):
        return tuple(0 for _ in range(grid.ndim + 1))
    p = sum(1 for g in grid.axes if g.boundary == "periodic")
    return tuple(math.comb(p, k) for k in range(grid.ndim + 1))
