"""Generalized de Rham complex of a commuting operator family.

Given pairwise-commuting operators L_1..L_r, one per grid axis, the twisted
differential  d_L beta = sum_j dt_j wedge (L_j beta)  squares to zero, and
the whole Hodge apparatus goes through on the grid: the adjoint differential
as a plain conjugate transpose under the uniform node metric, the
nonnegative operator Delta = d'd + dd', and harmonic spaces whose
dimensions reproduce the product-topology Betti numbers (times the
joint-kernel dimension of the fiber generators for flat families
L_j = D_j - A_j).

A separable family (the plain complex, flat families with diagonal
generators) acts on axis j and fiber component u through the 1-D factor
B_{j,u} = D_j - alpha_{j,u} 1.  In the tensor bases of the factors'
singular vectors (left on the axes a component spans, right on the
others) every axis operator is diagonal (the Kuenneth formula), so the
commutation guard, the nilpotency residual and the harmonic spaces run
over one 1 x 1 block per node and fiber component, holding the singular
values; any other complex is the stack of one dense block.

Period mappings pair closed forms with oriented cycles through a fiber
contraction against a dual-flat zero-form; on the torus with trivial fiber
the fundamental loops recover the axis periods exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (DiscretizationError, NonCommutingFamilyError,
                     NotClosedError)
from .grid_ops import Grid1D, ProductGrid
from .lagrange import (FormField, _apply_d, _apply_factors, _axis_factors,
                       _check_degree, _subsets, d_matrix, forward_diff_matrix,
                       form_norm, surface_integral)

__all__ = [
    "GenComplex",
    "HarmonicReport",
    "plain_complex",
    "flat_complex",
    "flat_section",
    "dual_flat_section",
    "flat_dimension",
    "d_L",
    "harmonic_space",
    "hodge_decompose",
    "skrypnik_map",
    "expected_betti",
]


# ---------------------------------------------------------------------------
# the complex
# ---------------------------------------------------------------------------

class GenComplex:
    """A commuting family of axis operators acting on fiber-valued fields.

    A separable complex (:func:`plain_complex`, or :func:`flat_complex`
    with diagonal matched generators) holds only its 1-D factors
    ``_factors``, one (N, n_j, n_j) stack B_{j,u} = D_j - alpha_{j,u} 1 per
    axis, and no M x M array: :func:`d_L` applies them axis by axis.  Any
    other complex is given by its dense operators ``axis_mats``, the matrix
    of L_j on flattened fields each, and takes the dense one-block route.
    For a separable complex ``axis_mats`` is a cached densify step, the lift
    sum_u I (x) B_{j,u} (x) I (x) e_u e_u^T; it and :meth:`d_matrix` serve
    :func:`hodge_decompose`, criterion 7's brute-force SVD and the tests.

    Pairwise commutation is checked on construction, over the blocks of
    :attr:`_blocks`; it is what makes d_L nilpotent.  The scalar product
    carries the uniform node weight ``grid.vol``.  The operators share one
    dtype, the common type of the inputs: real axis operators stay real,
    and so does the coboundary matrix built from them.
    """

    def __init__(self, grid: ProductGrid, axis_mats: list | None = None, *,
                 _factors: list | None = None):
        self.grid = grid
        self._dmats = {}
        d = grid.total_dim
        if _factors is not None:
            dtype = np.result_type(*_factors, float)
            self._factors = [np.asarray(B, dtype=dtype) for B in _factors]
        elif axis_mats is None or len(axis_mats) != grid.ndim:
            raise DiscretizationError("one axis operator per axis is required")
        else:
            self._factors = None
            mats = [np.asarray(M) for M in axis_mats]
            dtype = np.result_type(*mats, float)
            # an instance attribute, in place of the densify step
            self.axis_mats = [np.asarray(M, dtype=dtype) for M in mats]
            for M in self.axis_mats:
                if M.shape != (d, d):
                    raise DiscretizationError(
                        f"axis operators must be {d} x {d} on flattened fields")
        # the blocks are unitarily equivalent to the dense operators, so
        # their norms are the dense ones; a non-finite entry leaves a NaN gap
        with np.errstate(invalid="ignore"):
            blocks = self._blocks
            for j in range(len(blocks)):
                for k in range(j + 1, len(blocks)):
                    A, B = blocks[j], blocks[k]
                    scale = np.linalg.norm(A) * np.linalg.norm(B)
                    gap = np.linalg.norm(A @ B - B @ A)
                    if not (gap <= 1e-12 * max(scale, 1.0)):
                        raise NonCommutingFamilyError(
                            f"axis operators {j} and {k} do not commute: "
                            f"residual {gap:.3e} vs scale {scale:.3e}")

    @cached_property
    def axis_mats(self) -> list:
        """The dense axis operators of a separable complex, lifted from its
        factors: B_{j,u} on axis j and fiber component u, zeros elsewhere."""
        grid, N = self.grid, self.grid.fiber_dim
        mats = []
        for a, B in enumerate(self._factors):
            pre, post = math.prod(grid.shape[:a]), math.prod(grid.shape[a + 1:])
            n = grid.shape[a]
            D = np.zeros((pre, n, post, N) * 2, dtype=B.dtype)
            p, i, j, q, u = np.ix_(range(pre), range(n), range(n), range(post), range(N))
            D[p, i, q, u, p, j, q, u] = B[u, i, j]
            mats.append(D.reshape(grid.total_dim, grid.total_dim))
        return mats

    def d_matrix(self, degree: int) -> np.ndarray:
        """The dense coboundary from ``degree``, cached: a densify step built
        from :attr:`axis_mats`."""
        if degree not in self._dmats:
            self._dmats[degree] = d_matrix(self.grid, degree, self.axis_mats)
        return self._dmats[degree]

    @cached_property
    def _svds(self) -> list:
        """(U, s, Vh) of each axis's stacked 1-D factors."""
        return [np.linalg.svd(B) for B in self._factors]

    @cached_property
    def _blocks(self) -> list:
        """The axis family as stacks of blocks: for a separable family, the
        (P N, 1, 1) singular values s_{j,u,i_j} of the factors at block
        (i, u), nodes in C order then the fiber; else each dense operator
        as a stack of one, (1, M, M)."""
        if self._factors is None:
            return [M[None] for M in self.axis_mats]
        r, shape = self.grid.ndim, self.grid.shape + (self.grid.fiber_dim,)
        return [np.broadcast_to(np.expand_dims(s.T, tuple(b for b in range(r) if b != a)), shape)
                .reshape(-1, 1, 1) for a, (_, s, _) in enumerate(self._svds)]


def plain_complex(grid: ProductGrid) -> GenComplex:
    """The untwisted complex, L_j = D_j, with D_j the forward difference
    along axis j, kept as its 1-D factors (no M x M array).

    Forward differences along distinct axes commute exactly, so d*d = 0 is
    structural, on periodic and Dirichlet axes alike: applied axis by axis
    (or as the product of the dense coboundaries) it vanishes up to the
    roundoff of the two orders of differencing.
    """
    return GenComplex(grid, _factors=_axis_factors(grid))


def _step(g: Grid1D, A: np.ndarray) -> np.ndarray:
    """exp(h A), the step of a flat section along the axis; not finite,
    without a warning, where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.linalg.expm(g.h * A)


def _matched_generator(g: Grid1D, A: np.ndarray) -> np.ndarray:
    """(exp(h A) - 1)/h: the fiber generator whose flat sections are the
    sampled continuum flat sections, exactly; not finite, without a
    warning, where exp(h A) overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (_step(g, A) - np.eye(A.shape[0])) / g.h


def _overflow_error(what: str, grid: ProductGrid, axis: int, A: np.ndarray,
                    part: str = "the matched generator") -> DiscretizationError:
    """The error for an axis whose generator A overflows ``part``, naming
    the caller, the axis and max |h A|."""
    return DiscretizationError(
        f"{what}: {part} of axis {axis} overflows, "
        f"max |h A| = {grid.axes[axis].h * np.max(np.abs(A)):.4g}")


def _finite(what: str, grid: ProductGrid, axis: int, A: np.ndarray,
            X: np.ndarray) -> np.ndarray:
    """X, the step or the matched generator of the generator A of one axis
    of ``grid``, after checking that it is finite; raises
    :class:`DiscretizationError` naming the axis and h A."""
    if not np.isfinite(X).all():
        raise _overflow_error(what, grid, axis, A)
    return X


def _overflowing_axis(grid: ProductGrid, eff: list) -> int | None:
    """The axis to blame when the operators L_j = D_j - Aeff_j are too large
    for the complex, else None.

    Each L_j has row and column sums of |entries| at most
    b_j = 2/h_j + max(||Aeff_j||_1, ||Aeff_j||_inf).  On M unknowns the
    commutation guard's Frobenius norms reach sqrt(M) b_j and
    2 sqrt(M) b_j b_k (j != k), and the Hodge Laplacian's entries and the
    partial sums of its products reach 2 (sum_j b_j)^2; when a square of
    one of them passes half the float range, the axis of the largest b_j
    is named."""
    with np.errstate(over="ignore"):
        b = np.array([2.0 / g.h + max(np.linalg.norm(E, 1), np.linalg.norm(E, np.inf))
                      for g, E in zip(grid.axes, eff)])
        cross = np.outer(b, b)
        np.fill_diagonal(cross, 0.0)
        M = grid.total_dim
        worst = max(2.0 * np.sum(b) ** 2, M * np.max(b) ** 2, 4.0 * M * np.max(cross) ** 2)
    return None if worst <= np.finfo(float).max / 2.0 else int(np.argmax(b))


def _fiber_generators(what: str, generators: list) -> list:
    """The fiber generators as complex arrays, after checking that they are
    finite, square and of one size; raises :class:`DiscretizationError`
    naming the caller and the shapes."""
    gens = [np.asarray(A, dtype=complex) for A in generators]
    shapes = [A.shape for A in gens]
    N = shapes[0][0] if shapes and shapes[0] else 0
    if (N == 0 or any(sh != (N, N) for sh in shapes)
            or not all(np.isfinite(A).all() for A in gens)):
        raise DiscretizationError(
            f"{what} needs finite square generators of one size, got {shapes}")
    return gens


def flat_complex(grid: ProductGrid, generators: list) -> GenComplex:
    """Twisted complex L_j = D_j - Aeff_j with constant commuting fiber
    matrices A_j.

    The matched generator Aeff_j = (exp(h A_j)-1)/h stands in for A_j, so
    nodal samples of t -> exp(sum t_j A_j) v0 (see :func:`flat_section`)
    lie exactly in ker L_j.  Diagonal Aeff_j give a separable family, kept
    as its 1-D factors D_j - Aeff_j[u, u] 1 with no M x M array; other
    generators give the dense operators of the one-block route.

    Raises :class:`DiscretizationError`, naming the axis and max |h A|,
    where a matched generator overflows, and where it is finite but its
    square does: the complex multiplies two axis operators in its
    commutation guard and its Hodge Laplacian (:func:`_overflowing_axis`).
    """
    gens = _fiber_generators("flat_complex", generators)
    N = grid.fiber_dim
    if len(gens) != grid.ndim or gens[0].shape != (N, N):
        raise DiscretizationError(
            f"flat_complex needs {grid.ndim} generators of shape ({N}, {N}), "
            f"got {[A.shape for A in gens]}")
    eff = [_finite("flat_complex", grid, a, A, _matched_generator(g, A))
           for a, (g, A) in enumerate(zip(grid.axes, gens))]
    if (a := _overflowing_axis(grid, eff)) is not None:
        raise _overflow_error("flat_complex", grid, a, gens[a],
                              "the square of the matched generator")
    if all(np.array_equal(E, np.diag(np.diag(E))) for E in eff):
        return GenComplex(grid, _factors=_axis_factors(grid, [np.diag(E) for E in eff]))
    return GenComplex(grid, [forward_diff_matrix(grid, a) - np.kron(np.eye(grid.nnodes), E)
                             for a, E in enumerate(eff)])


def _march(what: str, grid: ProductGrid, gens: list, v0: np.ndarray, step) -> np.ndarray:
    """Nodal section v(i) = S_{r-1}^(i_{r-1}) ... S_0^(i_0) v0 for the axis
    steps S_a = step(a, gens[a]), i.e. v(i + e_a) = S_a v(i) from
    v(0) = v0: each axis's step powers applied to the section of the axes
    before it in one product."""
    N, out = grid.fiber_dim, np.asarray(v0, dtype=complex)
    if len(gens) != grid.ndim or out.shape != (N,) or gens[0].shape != (N, N):
        raise DiscretizationError(
            f"{what} needs {grid.ndim} generators of shape ({N}, {N}) and a start "
            f"vector of shape ({N},), got {[A.shape for A in gens]} and {out.shape}")
    for a, A in enumerate(gens):
        S = step(a, A)
        powers = np.stack([np.linalg.matrix_power(S, i) for i in range(grid.axes[a].n)])
        out = np.einsum("iuv,...v->...iu", powers, out)
    return out


def flat_section(grid: ProductGrid, generators: list, v0: np.ndarray) -> np.ndarray:
    """Sample t -> exp(t_1 A_1) ... exp(t_r A_r) v0 on the nodes.

    The step exp(h A_j) = 1 + h Aeff_j along axis j is the one of the
    matched generator of :func:`flat_complex`; where it overflows, a
    :class:`DiscretizationError` names the axis and max |h A|, as
    :func:`flat_complex` and :func:`dual_flat_section` do."""
    return _march("flat_section", grid, _fiber_generators("flat_section", generators),
                  v0, lambda a, A: _finite("flat_section", grid, a, A,
                                           _step(grid.axes[a], A)))


def dual_flat_section(grid: ProductGrid, generators: list, w0: np.ndarray) -> np.ndarray:
    """Nodal section in the kernel of every adjoint axis operator of
    :func:`flat_complex`.

    The backward-difference recursion phi(i+1) = (1 + h Aeff_j^*)^{-1} phi(i)
    solves (D_j - Aeff_j)^* phi = 0 exactly on inner nodes; with the matched
    generator Aeff_j the step matrix is exp(-h A_j^*).
    """
    def step(a, A):
        E = _finite("dual_flat_section", grid, a, A, _matched_generator(grid.axes[a], A))
        return np.linalg.inv(np.eye(len(A)) + grid.axes[a].h * E.conj().T)
    return _march("dual_flat_section", grid,
                  _fiber_generators("dual_flat_section", generators), w0, step)


def flat_dimension(generators: list) -> int:
    """Dimension of the joint kernel of the fiber generators."""
    gens = _fiber_generators("flat_dimension", generators)
    stacked = np.vstack(gens)
    s = np.linalg.svd(stacked, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    return int(np.sum(s <= 1e-10 * max(smax, 1.0)))


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def d_L(c: GenComplex, beta: FormField) -> FormField:
    """Twisted exterior derivative sum_j dt_j wedge (L_j beta); its dtype is
    the common type of the axis operators and the form.

    A separable complex applies each 1-D factor along its own axis, per
    fiber component, at O(M sum_j n_j) cost and with no matrix; any other
    complex applies its cached dense coboundary matrix."""
    if c._factors is not None:
        return _apply_factors(c.grid, c._factors, beta)
    return _apply_d(c.grid, c.d_matrix(beta.degree), beta)


def _adjoint(D: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(D.conj(), -1, -2)


# ---------------------------------------------------------------------------
# harmonic spaces and the decomposition
# ---------------------------------------------------------------------------

@dataclass
class HarmonicReport:
    """Null-space data of one Laplace-Hodge block.

    ``singular_values`` holds every eigenvalue magnitude in ascending
    order.  ``gap`` is the smallest retained (nonzero) eigenvalue over the
    null threshold 1e-8 times the largest, inf when nothing is retained; it
    is measured against the threshold rather than the null eigenvalues,
    which are roundoff, and a dimension claim with ``gap < 1e4`` is flagged
    ambiguous rather than trusted.  ``basis`` holds orthonormal columns in
    the stacked layout of :meth:`FormField.stack`; for a separable complex
    (see :func:`harmonic_space`) they are tensor products of the 1-D
    factors' singular vectors, real for a real complex.
    """

    degree: int
    dim: int
    gap: float
    basis: np.ndarray
    singular_values: np.ndarray
    ambiguous: bool

    def as_json(self, betti_expected: int) -> dict:
        return {"degree": self.degree, "dim": self.dim, "gap": self.gap,
                "betti_expected": betti_expected}


def _singular_vector_lift(c: GenComplex, degree: int, index: np.ndarray) -> np.ndarray:
    """(len(index), C(r, k), M): block (i, u) of a separable complex in
    component S as the field (x)_{j in S} U_{j,u}[:, i_j] (x)_{j not in S}
    V_{j,u}[:, i_j] (x) e_u, axes in C order and the fiber last."""
    grid = c.grid
    *node, u = np.unravel_index(index, grid.shape + (grid.fiber_dim,))
    comps = []
    for S in _subsets(grid.ndim, degree):
        out = np.eye(grid.fiber_dim)[u]
        for a in reversed(range(grid.ndim)):
            U, _, Vh = c._svds[a]
            w = U[u, :, node[a]] if a in S else Vh[u, node[a], :].conj()
            out = (w[:, :, None] * out[:, None, :]).reshape(len(index), w.shape[1] * out.shape[1])
        comps.append(out)
    return np.stack(comps, axis=1)


def harmonic_space(c: GenComplex, degree: int) -> HarmonicReport:
    """Null space of Delta_k = d_k' d_k + d_{k-1} d_{k-1}': eigenvalues at
    most 1e-8 times the largest count as zero.

    The adjoint is the literal conjugate transpose (the metric is a uniform
    scalar), so ker Delta = ker d  intersect  ker d' holds exactly.  Delta
    is assembled block by block over :attr:`GenComplex._blocks` by the
    block rule of :func:`d_matrix`, and one stacked ``eigh`` solves it; the
    threshold applies to all eigenvalues at once.  A null vector of a
    separable complex's block holds one coefficient per component, which
    scales that component's singular-vector product; for the single dense
    block it is the form itself.

    Each coboundary stack is dropped once its Gram product is formed, the
    second product is added into Delta in place, and Delta is symmetrized
    into one temporary, halved in place and dropped after ``eigh``; so
    beside ``eigh``'s eigenvectors the solve holds two Delta-sized stacks
    at most.
    """
    r = c.grid.ndim
    _check_degree(r, degree)
    Delta = 0
    if degree < r:
        Dk = d_matrix(c.grid, degree, c._blocks)
        Delta = _adjoint(Dk) @ Dk
        del Dk
    if degree > 0:
        Dm = d_matrix(c.grid, degree - 1, c._blocks)
        # into d'd in place; at the top degree the sum is 0 + dd', a new array
        if degree < r:
            Delta += Dm @ _adjoint(Dm)
        else:
            Delta = Delta + Dm @ _adjoint(Dm)
        del Dm
    # Hermitian nonnegative by construction: d'd + dd'
    H = Delta + _adjoint(Delta)
    del Delta
    H /= 2.0
    w, V = np.linalg.eigh(H)
    del H
    w = np.abs(w)
    smax = float(w.max()) if w.size else 0.0
    thr = 1e-8 * max(smax, 1e-300)
    null = w <= thr
    retained = w[~null]
    gap = float(retained.min() / thr) if retained.size else np.inf
    index, cols = np.nonzero(null)
    C, b = math.comb(r, degree), c._blocks[0].shape[-1]
    Z = V[index, :, cols].reshape(len(index), C, b)
    if c._factors is not None:
        Z = Z * _singular_vector_lift(c, degree, index)
    basis = Z.reshape(len(index), C * c.grid.total_dim).T
    return HarmonicReport(degree, len(index), gap, basis,
                          np.sort(w, axis=None), ambiguous=bool(gap < 1e4))


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
    k-cycles are homology invariants.  A ``phi0`` of the wrong size or with
    a non-finite entry raises ``DiscretizationError``; a non-finite entry in
    a psi_j raises ``NotClosedError``.
    """
    grid = c.grid
    phi0 = np.asarray(phi0, dtype=complex)
    if phi0.size != grid.total_dim:
        raise DiscretizationError(
            f"phi0 has shape {phi0.shape}, want {grid.shape + (grid.fiber_dim,)}")
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
