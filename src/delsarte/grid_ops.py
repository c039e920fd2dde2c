"""Uniform grids and finite-difference realizations of differential expressions.

A differential expression  L = sum_alpha a_alpha(x) d^alpha  with N x N
matrix coefficients is discretized on a product of uniform 1-D grids by
centered stencils of a requested even order, whose weights are exact
mirror images (:func:`fd_weights`), so real even-order terms with constant
coefficients plus a real potential assemble to an exactly symmetric matrix.
The module also provides the formal adjoint

    L* = sum_alpha (-1)^|alpha| d^alpha ( conj(a_alpha)^T . )

expanded into coefficient form by the Leibniz rule, plus the commutator of
assembled matrices.

Flattening convention, shared by every module in the package: axis-major
(C order, last axis fastest), fiber index innermost.  Fields follow it by
plain C-order reshapes; axis operators follow it through two private
helpers, the only places its Kronecker structure is written down:
:func:`_apply_along` applies a 1-D matrix along one axis of a shaped field,
and :func:`_shift_pairs` lists the node pairs one stencil offset per axis
connects, so :func:`discretize` (and ``lagrange.forward_diff_matrix``)
writes each stencil weight straight onto the nonzeros of the operator
I x ... x D1 x ... x I x I_N on flattened fields.  The band of an
assembled matrix is likewise read in one place: :func:`_upper_band` packs
it from the matrix's own nonzeros, :func:`_is_hermitian` decides from it
whether the matrix is Hermitian, and :func:`_band_matvec` multiplies by it;
:func:`_operator_product` takes that route for narrow Hermitian operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DiscretizationError, GridError

__all__ = [
    "Grid1D",
    "ProductGrid",
    "DiffOp",
    "OperatorMatrix",
    "fd_weights",
    "derivative_matrix",
    "discretize",
    "formal_adjoint",
    "commutator",
    "adjoint_defect",
    "inner",
]


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid.

    Dirichlet grids keep only the interior nodes as unknowns (homogeneous
    boundary values are eliminated, never stored):  h = (b-a)/(n+1) and
    x_i = a + (i+1) h.  Periodic grids cover [a, b) with h = (b-a)/n.
    """

    a: float
    b: float
    n: int
    boundary: str  # "dirichlet" | "periodic"

    def __post_init__(self):
        if self.boundary not in ("dirichlet", "periodic"):
            raise GridError(f"unknown boundary kind {self.boundary!r}")
        if self.n < 5:
            raise GridError("grids need at least 5 unknowns")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise GridError(f"non-finite endpoint in [{self.a}, {self.b}]")
        if not (self.b > self.a):
            raise GridError("empty interval")

    @classmethod
    def dirichlet(cls, a: float, b: float, n: int) -> "Grid1D":
        return cls(float(a), float(b), int(n), "dirichlet")

    @classmethod
    def periodic(cls, a: float, b: float, n: int) -> "Grid1D":
        return cls(float(a), float(b), int(n), "periodic")

    @property
    def h(self) -> float:
        if self.boundary == "dirichlet":
            return (self.b - self.a) / (self.n + 1)
        return (self.b - self.a) / self.n

    @property
    def x(self) -> np.ndarray:
        if self.boundary == "dirichlet":
            return self.a + self.h * np.arange(1, self.n + 1)
        return self.a + self.h * np.arange(self.n)

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class ProductGrid:
    """Tensor product of 1-D grids with a C^N fiber on every node."""

    axes: tuple
    fiber_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.fiber_dim < 1:
            raise GridError("fiber dimension must be positive")

    @classmethod
    def line(cls, grid: Grid1D, fiber_dim: int = 1) -> "ProductGrid":
        return cls((grid,), fiber_dim)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(g.n for g in self.axes)

    @property
    def nnodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def total_dim(self) -> int:
        return self.nnodes * self.fiber_dim

    @property
    def vol(self) -> float:
        """Quadrature weight of a single node (product of spacings)."""
        return float(np.prod([g.h for g in self.axes]))

    def flatten_field(self, field_vals: np.ndarray) -> np.ndarray:
        return np.asarray(field_vals).reshape(self.total_dim)

    def unflatten_field(self, vec: np.ndarray) -> np.ndarray:
        return np.asarray(vec).reshape(self.shape + (self.fiber_dim,))


def inner(grid, u: np.ndarray, v: np.ndarray) -> complex:
    """Discrete L^2 pairing sum_nodes vol * conj(u).v (conjugate-linear in u)."""
    w = grid.vol if isinstance(grid, ProductGrid) else grid.h
    return w * complex(np.vdot(np.asarray(u).ravel(), np.asarray(v).ravel()))


def _apply_along(D1: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 1-D matrix along one axis of a shaped field (*shape[, N])."""
    return np.moveaxis(np.tensordot(D1, arr, axes=([1], [axis])), 0, axis)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def fd_weights(nodes: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on given nodes.

    Fornberg's recursion; works for one-sided and centered windows alike.
    On nodes symmetric about x0 the weights are made exact mirror images,
    w <- (w + (-1)^m w[::-1]) / 2, so that a centered stencil of even order
    assembles to an exactly symmetric matrix (the recursion alone leaves
    w_-k and w_k an ulp apart on many spacings).
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if m >= n:
        raise DiscretizationError("not enough stencil nodes for the derivative order")
    C = np.zeros((n, m + 1))
    C[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    C[i, k] = c1 * (k * C[i - 1, k - 1] - c5 * C[i - 1, k]) / c2
                C[i, 0] = -c1 * c5 * C[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                C[j, k] = (c4 * C[j, k] - k * C[j, k - 1]) / c3
            C[j, 0] = c4 * C[j, 0] / c3
        c1 = c2
    w = C[:, m]
    if np.array_equal(nodes - x0, x0 - nodes[::-1]):
        w = (w + (-1) ** m * w[::-1]) / 2
    return w


def stencil_half_width(order: int, scheme_order: int) -> int:
    """Half-width of the centered stencil for d^order at accuracy scheme_order."""
    return (order + 1) // 2 + scheme_order // 2 - 1


def _stencil(grid: Grid1D, order: int, scheme_order: int):
    """Offsets and weights of the centered stencil for d^order (order > 0)."""
    w = stencil_half_width(order, scheme_order)
    if 2 * w + 1 > grid.n:
        raise DiscretizationError("grid too small for the requested stencil")
    offsets = np.arange(-w, w + 1)
    return offsets, fd_weights(offsets * grid.h, 0.0, order)


def _shift_pairs(grid: ProductGrid, shifts: dict):
    """(rows, cols): the flattened node pairs (p, q) with q = p shifted by
    ``shifts[axis]`` nodes along each listed axis.  Periodic axes wrap;
    Dirichlet axes drop pairs that leave the index range."""
    coords = np.indices(grid.shape).reshape(grid.ndim, -1)
    keep = np.ones(coords.shape[1], dtype=bool)
    for axis, k in shifts.items():
        n = grid.axes[axis].n
        c = coords[axis] + k
        if grid.axes[axis].boundary == "periodic":
            c %= n
        else:
            keep &= (c >= 0) & (c < n)
        coords[axis] = c
    return np.flatnonzero(keep), np.ravel_multi_index(coords[:, keep], grid.shape)


def derivative_matrix(grid: Grid1D, order: int, scheme_order: int = 2,
                      one_sided_edges: bool = False) -> np.ndarray:
    """Dense differentiation matrix for d^order/dx^order on a 1-D grid.

    The :func:`discretize` matrix of the one-term expression d^order:
    centered stencils of the requested even accuracy order everywhere,
    periodic rows wrapping and Dirichlet rows dropping the entries that
    leave the index range (the zero extension of the eliminated boundary
    values).  With ``one_sided_edges`` the window is shifted to stay inside
    the domain instead (full accuracy for fields that do not vanish at the
    boundary; used for differentiating coefficient fields, never for
    operator assembly).
    """
    A = discretize(DiffOp(ProductGrid.line(grid), {(order,): 1.0}), scheme_order).A
    if one_sided_edges and grid.boundary == "dirichlet" and order > 0:
        # the shifted window covers every centered entry of its row
        n, w = grid.n, stencil_half_width(order, scheme_order)
        for i in (*range(w), *range(n - w, n)):
            start = min(max(i - w, 0), n - (2 * w + 1))
            cols = np.arange(start, start + 2 * w + 1)
            A[i, cols] = fd_weights(grid.x[cols], grid.x[i], order)
    return A


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """The result of :func:`discretize`: ``A`` is the dense matrix acting on
    flattened fields, with the dtype of the expression's coefficients."""

    A: np.ndarray

    @property
    def shape(self):
        return self.A.shape

    def to_banded(self) -> np.ndarray:
        """Upper banded storage of ``A`` (:func:`_upper_band`). Hermitian use only."""
        return _upper_band(self.A)


# ---------------------------------------------------------------------------
# differential expressions
# ---------------------------------------------------------------------------

def _normalize_coeff(grid: ProductGrid, value) -> np.ndarray:
    """Coerce a coefficient into a full (*shape, N, N) field of its own
    dtype (float64 at least, so real coefficients stay real)."""
    N = grid.fiber_dim
    target = grid.shape + (N, N)
    v = np.asarray(value)
    dtype = np.result_type(v, float)
    if v.shape == (N, N):
        return np.broadcast_to(v, target).astype(dtype)
    if v.ndim == 0 or v.shape == grid.shape:
        out = np.zeros(target, dtype=dtype)
        for k in range(N):
            out[..., k, k] = v
        return out
    if v.shape == target:
        return v.astype(dtype, copy=True)
    raise DiscretizationError(
        f"coefficient shape {v.shape} incompatible with grid {grid.shape} fiber {N}")


class DiffOp:
    """A multi-index differential expression sum_alpha a_alpha(x) d^alpha.

    ``terms`` maps multi-indices (tuples, one entry per grid axis) to
    coefficient fields of shape (*grid.shape, N, N).  Scalars, constant
    matrices, and scalar fields are accepted and promoted.
    """

    def __init__(self, grid: ProductGrid, terms: dict):
        self.grid = grid
        self.terms = {}
        for alpha, coeff in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != grid.ndim or any(a < 0 for a in alpha):
                raise DiscretizationError(f"bad multi-index {alpha}")
            c = _normalize_coeff(grid, coeff)
            if not np.all(np.isfinite(c)):
                raise DiscretizationError(f"non-finite coefficient at {alpha}")
            if alpha in self.terms:
                self.terms[alpha] = self.terms[alpha] + c
            else:
                self.terms[alpha] = c

    @property
    def order(self) -> tuple:
        """Per-axis differential order n(L)."""
        if not self.terms:
            return (0,) * self.grid.ndim
        return tuple(max(a[j] for a in self.terms) for j in range(self.grid.ndim))


def discretize(op: DiffOp, scheme_order: int = 2) -> OperatorMatrix:
    """Assemble the dense matrix of a differential expression.

    Each term contributes  M[a_alpha] . D^alpha,  coefficients multiplying
    from the left, where D^alpha is the product of the lifted axis
    derivatives (the identity for alpha = 0).  The stencil weights are
    written straight onto the nonzeros of D^alpha, term by term in sorted
    order, so no dense lift or product is formed.  The matrix takes the
    common dtype of the coefficients: float64 when all are real.  No
    bandwidth is recorded: :meth:`OperatorMatrix.to_banded` reads the band
    from the nonzeros, periodic wrap entries included.
    """
    if scheme_order not in (2, 4):
        raise DiscretizationError(f"unsupported scheme order {scheme_order}")
    grid = op.grid
    N = grid.fiber_dim
    nn = grid.nnodes
    M = grid.total_dim
    order = op.order
    for j, g in enumerate(grid.axes):
        need = 2 * stencil_half_width(max(order[j], 1), scheme_order) + 1
        if g.n < need:
            raise DiscretizationError("grid too small for the requested stencil")
    A = np.zeros((M, M), dtype=np.result_type(*op.terms.values(), float))
    blocks = A.reshape(nn, N, nn, N)  # blocks[p, :, q, :] couples nodes p and q
    for alpha, coeff in sorted(op.terms.items()):
        active = [axis for axis, k in enumerate(alpha) if k > 0]
        stencils = [zip(*_stencil(grid.axes[axis], alpha[axis], scheme_order))
                    for axis in active]
        a = coeff.reshape(nn, N, N)
        # one stencil offset per active axis; the weight of the product of
        # the lifted axis derivatives is the product of the axis weights
        for taps in itertools.product(*stencils):
            rows, cols = _shift_pairs(grid, {axis: k for axis, (k, _) in zip(active, taps)})
            weight = math.prod(wt for _, wt in taps)
            blocks[rows, :, cols, :] += a[rows] * weight
    return OperatorMatrix(A)


def _multi_binom(alpha, beta) -> int:
    return int(np.prod([math.comb(a, b) for a, b in zip(alpha, beta)]))


def _coeff_derivative(grid: ProductGrid, field_vals: np.ndarray, gamma, scheme_order: int) -> np.ndarray:
    """Differentiate a sampled coefficient field d^gamma a (per fiber entry).

    One-sided stencils near Dirichlet edges: coefficient fields carry no
    boundary condition, so zero extension would be wrong here.
    """
    out = field_vals
    for axis, k in enumerate(gamma):
        if k == 0:
            continue
        D = derivative_matrix(grid.axes[axis], k, scheme_order, one_sided_edges=True)
        out = _apply_along(D, out, axis)
    return out


def formal_adjoint(op: DiffOp, scheme_order: int = 2) -> DiffOp:
    """Coefficient form of L* = sum (-1)^|alpha| d^alpha ( conj(a_alpha)^T . ).

    Leibniz expansion: b_beta = sum_{alpha >= beta} (-1)^|alpha| C(alpha,beta)
    d^{alpha-beta}( conj(a_alpha)^T ), with the coefficient derivatives taken
    by grid stencils of the same accuracy order.
    """
    grid = op.grid
    new_terms: dict = {}
    for alpha, coeff in op.terms.items():
        g = np.conj(np.swapaxes(coeff, -1, -2))
        sign = (-1) ** sum(alpha)
        for beta in itertools.product(*[range(a + 1) for a in alpha]):
            gamma = tuple(a - b for a, b in zip(alpha, beta))
            term = sign * _multi_binom(alpha, beta) * _coeff_derivative(grid, g, gamma, scheme_order)
            if beta in new_terms:
                new_terms[beta] = new_terms[beta] + term
            else:
                new_terms[beta] = term
    return DiffOp(grid, new_terms)


def _as_matrix(A) -> np.ndarray:
    return A.A if isinstance(A, OperatorMatrix) else np.asarray(A)


def _upper_band(A: np.ndarray, max_width: int | None = None) -> np.ndarray | None:
    """Upper banded storage of a square matrix (the ``eig_banded`` layout):
    diagonals 0..bw, diagonal d in row bw - d from column d on, where bw is
    the largest |i - j| over the nonzero entries A[i, j].  A periodic or
    dense matrix is its own full band.  None, before any band is built,
    when bw exceeds ``max_width``."""
    n = A.shape[0]
    nonzero = np.flatnonzero(A != 0)
    if max_width is not None and nonzero.size > (2 * max_width + 1) * n:
        return None
    rows, cols = divmod(nonzero, n)
    bw = int(np.max(np.abs(cols - rows), initial=0))
    if max_width is not None and bw > max_width:
        return None
    ab = np.zeros((bw + 1, n), dtype=A.dtype)
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(A, offset=d)
    return ab


def _is_hermitian(A: np.ndarray, ab: np.ndarray, atol: float = 0.0) -> bool:
    """|A - A^H| <= atol entrywise (``np.allclose``, rtol 0), in O(bw n): A is
    zero beyond its upper band ``ab``, so each diagonal below meets its partner."""
    bw = ab.shape[0] - 1
    lower = np.zeros_like(ab)
    for d in range(bw + 1):
        lower[bw - d, d:] = np.diagonal(A, offset=-d)
    return bool(np.allclose(lower, ab.conj(), rtol=0.0, atol=atol))


# widest half-band an operator is multiplied through: at n = 600 the band
# product beats the dense one only for tridiagonal operators when BLAS is idle
_BAND_PRODUCT_WIDTH = 1


# rows of V a temporary of :func:`_band_matvec` spans, and rows or columns
# of a square array read at a time where a whole-array temporary is avoided
_BAND_ROWS = 64


def _band_matvec(ab: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A @ V for the Hermitian A held in upper banded storage ``ab`` (the
    :func:`_upper_band` layout); V is a vector or a block of columns.

    The off-diagonal terms are added in blocks of ``_BAND_ROWS`` rows, so
    beside the result a product holds one block's temporary; each entry
    takes its terms in the order of the whole-array sums, diagonal first
    and then, offset by offset, the one above before the one below."""
    bw, n = ab.shape[0] - 1, ab.shape[1]
    ab = ab.reshape(ab.shape + (1,) * (V.ndim - 1))
    out = ab[bw] * V
    for r0 in range(0, n, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, n)
        for d in range(1, bw + 1):
            hi, lo = min(r1, n - d), max(r0, d)
            if r0 < hi:
                out[r0:hi] += ab[bw - d, r0 + d:hi + d] * V[r0 + d:hi + d]
            if lo < r1:
                out[lo:r1] += ab[bw - d, lo:r1].conj() * V[lo - d:r1 - d]
    return out


def _operator_product(A: np.ndarray, X: np.ndarray, right: bool = False) -> np.ndarray:
    """A @ X, or X @ A when ``right``, for a square operator matrix A.

    A Hermitian A with a half-bandwidth of at most ``_BAND_PRODUCT_WIDTH``
    is multiplied through its band (:func:`_upper_band`, :func:`_band_matvec`),
    the right product as X A = (A X^H)^H; any other A (wider,
    non-Hermitian, periodic, dense) takes the dense product, and its band
    is never built.
    """
    ab = _upper_band(A, _BAND_PRODUCT_WIDTH)
    if ab is not None and _is_hermitian(A, ab):
        if right:
            return _band_matvec(ab, X.conj().T).conj().T
        return _band_matvec(ab, X)
    return X @ A if right else A @ X


def commutator(A, B) -> np.ndarray:
    """[A, B] = AB - BA of two operator matrices (arrays or
    :class:`OperatorMatrix`)."""
    MA, MB = _as_matrix(A), _as_matrix(B)
    if MA.shape != MB.shape:
        raise DiscretizationError("dimension mismatch in commutator")
    return MA @ MB - MB @ MA


def adjoint_defect(op: DiffOp, scheme_order: int = 2) -> float:
    """|| discretize(L*) - discretize(L)^dagger ||_F / ||L||_F."""
    A = discretize(op, scheme_order).A
    B = discretize(formal_adjoint(op, scheme_order), scheme_order).A
    return float(np.linalg.norm(B - A.conj().T) / np.linalg.norm(A))
