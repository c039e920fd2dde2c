"""Uniform grids and finite-difference realizations of differential expressions.

A differential expression  L = sum_alpha a_alpha(x) d^alpha  with N x N
matrix coefficients is discretized on a product of uniform 1-D grids by
centered stencils of a requested even order.  The module also provides the
formal adjoint

    L* = sum_alpha (-1)^|alpha| d^alpha ( conj(a_alpha)^T . )

expanded into coefficient form by the Leibniz rule, plus the commutator of
assembled matrices.

Flattening convention, shared by every module in the package: axis-major
(C order, last axis fastest), fiber index innermost.  Fields follow it by
plain C-order reshapes; axis operators follow it through two private
helpers, the only place its Kronecker structure is written down:
:func:`_lift` turns a 1-D matrix on one axis into  I x ... x D1 x ... x I x I_N
on flattened fields, and :func:`_apply_along` applies a 1-D matrix along one
axis of a shaped field.  Every axis operator in the package goes through one
of them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DiscretizationError, GridError
from .ioutil import load_matrix_csv, save_json, save_matrix_csv

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
    "save_diffop",
    "load_diffop",
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


def _lift(grid: ProductGrid, axis: int, D1: np.ndarray) -> np.ndarray:
    """I x ... x D1 x ... x I x I_N: a 1-D matrix on ``axis`` acting on
    flattened fields (axes before ``axis`` vary slower, the fiber fastest)."""
    before = int(np.prod(grid.shape[:axis]))
    after = int(np.prod(grid.shape[axis + 1:])) * grid.fiber_dim
    return np.kron(np.kron(np.eye(before), D1), np.eye(after))


def _apply_along(D1: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 1-D matrix along one axis of a shaped field (*shape[, N])."""
    return np.moveaxis(np.tensordot(D1, arr, axes=([1], [axis])), 0, axis)


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------

def fd_weights(nodes: np.ndarray, x0: float, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on given nodes.

    Fornberg's recursion; works for one-sided and centered windows alike.
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
    return C[:, m]


def stencil_half_width(order: int, scheme_order: int) -> int:
    """Half-width of the centered stencil for d^order at accuracy scheme_order."""
    return (order + 1) // 2 + scheme_order // 2 - 1


def derivative_matrix(grid: Grid1D, order: int, scheme_order: int = 2,
                      one_sided_edges: bool = False) -> np.ndarray:
    """Dense differentiation matrix for d^order/dx^order on a 1-D grid.

    Centered stencils of the requested even accuracy order everywhere.
    Periodic rows wrap.  Dirichlet rows drop stencil entries that leave the
    index range, which realizes the zero extension of the eliminated
    boundary values.  With ``one_sided_edges`` the window is shifted to stay
    inside the domain instead (full accuracy for fields that do not vanish
    at the boundary; used for differentiating coefficient fields, never for
    operator assembly).
    """
    if scheme_order not in (2, 4):
        raise DiscretizationError(f"unsupported scheme order {scheme_order}")
    n, h = grid.n, grid.h
    if order == 0:
        return np.eye(n)
    w = stencil_half_width(order, scheme_order)
    if 2 * w + 1 > n:
        raise DiscretizationError("grid too small for the requested stencil")
    offsets = np.arange(-w, w + 1)
    weights = fd_weights(offsets * h, 0.0, order)
    A = np.zeros((n, n))
    if grid.boundary == "periodic":
        for k, wt in zip(offsets, weights):
            A += wt * np.roll(np.eye(n), k, axis=1)
        return A
    for i in range(n):
        if one_sided_edges and (i - w < 0 or i + w >= n):
            start = min(max(i - w, 0), n - (2 * w + 1))
            cols = np.arange(start, start + 2 * w + 1)
            A[i, cols] = fd_weights(grid.x[cols], grid.x[i], order)
        else:
            for k, wt in zip(offsets, weights):
                j = i + k
                if 0 <= j < n:
                    A[i, j] = wt
    return A


# ---------------------------------------------------------------------------
# operator matrices
# ---------------------------------------------------------------------------

@dataclass
class OperatorMatrix:
    """Dense matrix acting on flattened grid functions plus bookkeeping.

    ``axis_bandwidths`` records, per axis, a bound on the stencil half-width
    in node units; None means no banded structure is claimed.
    """

    A: np.ndarray
    grid: ProductGrid | None = None
    axis_bandwidths: tuple | None = None
    boundary: str = ""

    def __post_init__(self):
        self.A = np.asarray(self.A)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise DiscretizationError("operator matrices must be square")

    @property
    def shape(self):
        return self.A.shape

    def adjoint(self) -> "OperatorMatrix":
        # uniform node weights: the discrete adjoint is the conjugate transpose
        return OperatorMatrix(self.A.conj().T, self.grid, self.axis_bandwidths, self.boundary)

    def __matmul__(self, other):
        B = other.A if isinstance(other, OperatorMatrix) else np.asarray(other)
        bw = None
        if self.axis_bandwidths is not None and isinstance(other, OperatorMatrix) \
                and other.axis_bandwidths is not None:
            bw = tuple(p + q for p, q in zip(self.axis_bandwidths, other.axis_bandwidths))
        return OperatorMatrix(self.A @ B, self.grid, bw, self.boundary)

    def __add__(self, other):
        B = other.A if isinstance(other, OperatorMatrix) else np.asarray(other)
        bw = None
        if self.axis_bandwidths is not None and isinstance(other, OperatorMatrix) \
                and other.axis_bandwidths is not None:
            bw = tuple(max(p, q) for p, q in zip(self.axis_bandwidths, other.axis_bandwidths))
        return OperatorMatrix(self.A + B, self.grid, bw, self.boundary)

    def __sub__(self, other):
        B = other.A if isinstance(other, OperatorMatrix) else np.asarray(other)
        return OperatorMatrix(self.A - B, self.grid, None, self.boundary)

    def __mul__(self, c):
        return OperatorMatrix(self.A * c, self.grid, self.axis_bandwidths, self.boundary)

    __rmul__ = __mul__

    def flat_bandwidth(self) -> int | None:
        """Bandwidth bound in the flattened index (1-D convenience)."""
        if self.axis_bandwidths is None or self.grid is None:
            return None
        strides = []
        s = self.grid.fiber_dim
        for n_ax in reversed(self.grid.shape):
            strides.append(s)
            s *= n_ax
        strides = list(reversed(strides))
        bw = self.grid.fiber_dim - 1
        for w, st in zip(self.axis_bandwidths, strides):
            bw += w * st
        return bw

    def to_banded(self) -> np.ndarray:
        """Upper banded storage (scipy ``eig_banded`` layout). Hermitian use only."""
        bw = self.flat_bandwidth()
        if bw is None:
            raise DiscretizationError("no bandwidth metadata on this operator")
        m = self.A.shape[0]
        ab = np.zeros((bw + 1, m), dtype=self.A.dtype)
        for d in range(bw + 1):
            ab[bw - d, d:] = np.diagonal(self.A, offset=d)
        return ab

    @staticmethod
    def from_banded(ab: np.ndarray, hermitian: bool = True) -> np.ndarray:
        """Inverse of :meth:`to_banded`; round-trips losslessly."""
        bw, m = ab.shape[0] - 1, ab.shape[1]
        A = np.zeros((m, m), dtype=ab.dtype)
        for d in range(bw + 1):
            idx = np.arange(m - d)
            A[idx, idx + d] = ab[bw - d, d:]
            if d > 0 and hermitian:
                A[idx + d, idx] = np.conj(ab[bw - d, d:])
        return A


# ---------------------------------------------------------------------------
# differential expressions
# ---------------------------------------------------------------------------

def _normalize_coeff(grid: ProductGrid, value) -> np.ndarray:
    """Coerce a coefficient into a full (*shape, N, N) complex field."""
    N = grid.fiber_dim
    target = grid.shape + (N, N)
    v = np.asarray(value)
    if v.ndim == 0:
        out = np.zeros(target, dtype=complex)
        for k in range(N):
            out[..., k, k] = v
        return out
    if v.shape == (N, N):
        return np.broadcast_to(v, target).astype(complex).copy()
    if v.shape == grid.shape:
        out = np.zeros(target, dtype=complex)
        for k in range(N):
            out[..., k, k] = v
        return out
    if v.shape == target:
        return v.astype(complex, copy=True)
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

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if other.grid is not self.grid and other.grid != self.grid:
            raise DiscretizationError("operands live on different grids")
        merged = {a: c.copy() for a, c in self.terms.items()}
        for a, c in other.terms.items():
            merged[a] = merged[a] + c if a in merged else c
        return DiffOp(self.grid, merged)

    def __mul__(self, scalar) -> "DiffOp":
        return DiffOp(self.grid, {a: c * scalar for a, c in self.terms.items()})

    __rmul__ = __mul__


def discretize(op: DiffOp, scheme_order: int = 2) -> OperatorMatrix:
    """Assemble the dense matrix of a differential expression.

    Each term contributes  M[a_alpha] . D^alpha,  coefficients multiplying
    from the left, where D^alpha is the product of the lifted axis
    derivatives (the identity for alpha = 0).
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
    A = np.zeros((M, M), dtype=complex)
    for alpha, coeff in sorted(op.terms.items()):
        lifts = [_lift(grid, axis, derivative_matrix(g, k, scheme_order))
                 for axis, (g, k) in enumerate(zip(grid.axes, alpha)) if k > 0]
        D = functools.reduce(np.matmul, lifts) if lifts else np.eye(M)
        a = coeff.reshape(nn, N, N)
        if N == 1:
            A += a[:, 0, 0, None] * D
        else:
            A += np.einsum("puw,pwm->pum", a, D.reshape(nn, N, M)).reshape(M, M)
    bws = tuple(stencil_half_width(order[j], scheme_order) if order[j] > 0 else 0
                for j in range(grid.ndim))
    return OperatorMatrix(A, grid, bws, grid.axes[0].boundary)


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


def commutator(A: OperatorMatrix, B: OperatorMatrix) -> OperatorMatrix:
    MA, MB = _as_matrix(A), _as_matrix(B)
    if MA.shape != MB.shape:
        raise DiscretizationError("dimension mismatch in commutator")
    grid = A.grid if isinstance(A, OperatorMatrix) else None
    return OperatorMatrix(MA @ MB - MB @ MA, grid, None,
                          A.boundary if isinstance(A, OperatorMatrix) else "")


def adjoint_defect(op: DiffOp, scheme_order: int = 2) -> float:
    """|| discretize(L*) - discretize(L)^dagger ||_F / ||L||_F."""
    A = discretize(op, scheme_order).A
    B = discretize(formal_adjoint(op, scheme_order), scheme_order).A
    return float(np.linalg.norm(B - A.conj().T) / np.linalg.norm(A))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_diffop(op: DiffOp, directory: str | Path, name: str = "diffop") -> Path:
    """Write {order, axes, coeffs:[{alpha, values_file}]} + one CSV per term."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = op.grid
    manifest = {
        "order": list(op.order),
        "fiber_dim": grid.fiber_dim,
        "axes": [{"a": g.a, "b": g.b, "n": g.n, "boundary": g.boundary} for g in grid.axes],
        "coeffs": [],
    }
    N = grid.fiber_dim
    for k, (alpha, coeff) in enumerate(sorted(op.terms.items())):
        fname = f"{name}_coeff_{k}.csv"
        save_matrix_csv(directory / fname, coeff.reshape(grid.nnodes, N * N))
        manifest["coeffs"].append({"alpha": list(alpha), "values_file": fname})
    path = directory / f"{name}.json"
    save_json(path, manifest)
    return path


def load_diffop(manifest_path: str | Path) -> DiffOp:
    manifest_path = Path(manifest_path)
    spec = json.loads(manifest_path.read_text(encoding="utf-8"))
    axes = tuple(Grid1D(ax["a"], ax["b"], ax["n"], ax["boundary"]) for ax in spec["axes"])
    grid = ProductGrid(axes, spec["fiber_dim"])
    N = grid.fiber_dim
    terms = {}
    for entry in spec["coeffs"]:
        vals = load_matrix_csv(manifest_path.parent / entry["values_file"])
        terms[tuple(entry["alpha"])] = vals.reshape(grid.shape + (N, N))
    return DiffOp(grid, terms)
