"""Lagrange identity, bilinear concomitants, and discrete surface calculus.

For L = sum_alpha a_alpha d^alpha the classical identity

    <phi, L psi> - <L* phi, psi> = sum_i d_i Z_i[phi, psi]

defines the bilinear concomitant Z.  Each term a_alpha d^alpha contributes,
along axis i and with g = a_alpha^H phi,

    Z_i += (-1)^(alpha_1+...+alpha_{i-1}) *
           sum_{j=0}^{alpha_i - 1} (-1)^j < d_i^j P_i g , d_i^{alpha_i-1-j} Q_i psi >

where P_i carries the full derivatives of the axes before i and Q_i those
after i (fixed axis order, axis 0 first).  Discretely every d is a centered
stencil of the requested order, so the identity holds at interior nodes with
residual O(h^scheme_order).

Separately, the module carries an exact piece of machinery: node-collocated
k-forms with a forward-difference exterior derivative, integer chains with
the transposed coboundary as boundary, and one-point (base corner) facet
quadrature.  In that pairing Stokes, <bd c, w> = <c, d w>, is an identity,
not an approximation, which is what makes telescoping sums and period
integrals reliable at roundoff level.

There is one exterior derivative, the block rule

    (d w)[T] = sum_{a in T} (-1)^{pos_T(a)} L_a w[T - a]

on the components: the forward differences L_a give
:func:`exterior_derivative`, and a commuting family gives ``derham.d_L``.
Where each L_a is a 1-D factor per fiber component, :func:`_apply_factors`
applies the rule axis by axis; :func:`d_matrix` is its dense form, the
matrix on stacked components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeMismatchError, DiscretizationError, GridError
from .grid_ops import (DiffOp, ProductGrid, _apply_along, _shift_pairs,
                       derivative_matrix, discretize, formal_adjoint)

__all__ = [
    "FormField",
    "SurfaceRegion",
    "bilinear_concomitant",
    "divergence_residual",
    "exterior_derivative",
    "boundary",
    "surface_integral",
    "d_matrix",
    "form_norm",
    "interior_mask",
    "forward_diff_matrix",
]


# ---------------------------------------------------------------------------
# k-forms
# ---------------------------------------------------------------------------

def _subsets(r: int, k: int) -> list:
    return list(itertools.combinations(range(r), k))


def _check_degree(r: int, degree: int) -> None:
    if not (0 <= degree <= r):
        raise DegreeMismatchError(f"degree {degree} out of range for {r} axes")


def _with_fiber(grid: ProductGrid, arr) -> np.ndarray:
    """A scalar field of shape grid.shape gains a trailing fiber axis."""
    arr = np.asarray(arr)
    return arr[..., None] if arr.shape == grid.shape else arr


@dataclass
class FormField:
    """Node-collocated k-form on a product grid.

    Components are indexed by strictly increasing axis subsets; each value
    has shape (*grid.shape, N) and keeps its data's dtype (real stays real,
    integers become float).  Missing subsets are implicitly (real) zero.
    """

    grid: ProductGrid
    degree: int
    comps: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_degree(self.grid.ndim, self.degree)
        shape = self.grid.shape + (self.grid.fiber_dim,)
        clean = {}
        for S, arr in self.comps.items():
            S = tuple(sorted(int(a) for a in S))
            if len(S) != self.degree or len(set(S)) != len(S):
                raise DegreeMismatchError(f"component subset {S} does not match degree")
            raw = np.asarray(arr)
            arr = _with_fiber(self.grid, raw)
            if arr.shape != shape:
                raise DiscretizationError(f"component {S} has shape {raw.shape}, want {shape}")
            clean[S] = arr.astype(np.result_type(arr, float))
        self.comps = clean

    def component(self, S) -> np.ndarray:
        S = tuple(sorted(S))
        shape = self.grid.shape + (self.grid.fiber_dim,)
        return self.comps.get(S, np.zeros(shape))

    def __add__(self, other: "FormField") -> "FormField":
        if other.degree != self.degree:
            raise DegreeMismatchError("cannot add forms of different degree")
        out = {S: arr.copy() for S, arr in self.comps.items()}
        for S, arr in other.comps.items():
            out[S] = out[S] + arr if S in out else arr
        return FormField(self.grid, self.degree, out)

    def stack(self) -> np.ndarray:
        """All components as one vector, subsets in lexicographic order."""
        return np.concatenate([self.component(S).ravel()
                               for S in _subsets(self.grid.ndim, self.degree)])

    @classmethod
    def from_stack(cls, grid: ProductGrid, degree: int, vec: np.ndarray) -> "FormField":
        _check_degree(grid.ndim, degree)
        subsets = _subsets(grid.ndim, degree)
        block = grid.total_dim
        vec = np.asarray(vec)
        want = (len(subsets) * block,)
        if vec.shape != want:
            raise DiscretizationError(
                f"stack of shape {vec.shape} does not fit a degree-{degree} form on "
                f"nodes x fiber {grid.shape + (grid.fiber_dim,)}: want {want}")
        comps = {S: vec[j * block:(j + 1) * block].reshape(grid.shape + (grid.fiber_dim,))
                 for j, S in enumerate(subsets)}
        return cls(grid, degree, comps)


def form_norm(form: FormField) -> float:
    v = form.stack()
    return float(np.sqrt(form.grid.vol) * np.linalg.norm(v))


# ---------------------------------------------------------------------------
# the exterior derivative
# ---------------------------------------------------------------------------

def forward_diff_matrix(grid: ProductGrid, axis: int) -> np.ndarray:
    """Forward difference along one axis as a matrix on flattened fields:
    1/h on the node pairs one step apart (wrapping on a periodic axis,
    dropped at the end of a Dirichlet one) and -1/h on the diagonal."""
    h = grid.axes[axis].h
    N = grid.fiber_dim
    D = np.zeros((grid.total_dim, grid.total_dim))
    blocks = D.reshape(grid.nnodes, N, grid.nnodes, N)
    rows, cols = _shift_pairs(grid, {axis: 1})
    fiber = np.arange(N)
    blocks[rows[:, None], fiber, cols[:, None], fiber] = 1.0 / h
    np.fill_diagonal(D, -1.0 / h)
    return D


def _axis_factors(grid: ProductGrid, alphas: list | None = None) -> list:
    """The 1-D factors D_j - alphas[j][u] 1 of the forward differences, one
    (N, n_j, n_j) stack per axis; zero shifts when ``alphas`` is None."""
    if alphas is None:
        alphas = [np.zeros(grid.fiber_dim)] * grid.ndim
    return [forward_diff_matrix(ProductGrid.line(g), 0)
            - np.asarray(alpha)[:, None, None] * np.eye(g.n)
            for g, alpha in zip(grid.axes, alphas)]


def _check_fits(grid: ProductGrid, form: FormField) -> None:
    """Raise unless ``form`` has a differential on ``grid``: a top-degree
    form or one on other nodes or another fiber is named."""
    if form.degree >= grid.ndim:
        raise DegreeMismatchError("top-degree forms have identically zero differential")
    have = form.grid.shape + (form.grid.fiber_dim,)
    want = grid.shape + (grid.fiber_dim,)
    if have != want:
        raise DiscretizationError(
            f"a form on nodes x fiber {have} does not fit a coboundary built for {want}")


def _apply_d(grid: ProductGrid, D: np.ndarray, form: FormField) -> FormField:
    """The (k+1)-form D @ form.stack() for a coboundary matrix D from degree
    k built on ``grid``: the one place a coboundary matrix meets a form."""
    _check_fits(grid, form)
    return FormField.from_stack(grid, form.degree + 1, D @ form.stack())


def _apply_factors(grid: ProductGrid, factors: list, form: FormField) -> FormField:
    """The block rule (d w)[T] = sum_{a in T} (-1)^{pos_T(a)} B_a w[T - a]
    for 1-D factors, ``factors[a]`` an (N, n_a, n_a) stack: B_{a,u} acts
    along axis a on fiber component u, at O(M sum_a n_a) cost and with no
    M x M matrix; :func:`d_matrix` of the lifted factors is its dense form.
    The dtype is the common type of the factors and the form."""
    _check_fits(grid, form)
    comps = {}
    for T in _subsets(grid.ndim, form.degree + 1):
        total = 0
        for j, a in enumerate(T):
            w = form.component(T[:j] + T[j + 1:])
            term = np.stack([_apply_along(B, w[..., u], a)
                             for u, B in enumerate(factors[a])], axis=-1)
            total = total - term if j % 2 else total + term
        comps[T] = total
    return FormField(grid, form.degree + 1, comps)


def exterior_derivative(form: FormField) -> FormField:
    """Plain forward-difference exterior derivative, applied axis by axis
    by :func:`_apply_factors`; :func:`d_matrix` is its dense form, whose
    products d_{k+1} d_k vanish exactly, so d d w vanishes up to the
    roundoff of the two orders of differencing."""
    return _apply_factors(form.grid, _axis_factors(form.grid), form)


def d_matrix(grid: ProductGrid, degree: int, axis_mats: list | None = None) -> np.ndarray:
    """Matrix of the coboundary from degree k to k+1 on stacked components;
    its dtype is the common type of the axis operators (real for the plain
    forward differences).  The degree runs over 0..r; from degree r the
    coboundary is the zero map into the empty degree r + 1.

    The axis operators may also be stacks (..., b, b) of blocks, such as
    the 1 x 1 singular-value blocks of a separable family; the block rule
    then builds one coboundary per stack entry, of shape
    (..., C(r, k+1) b, C(r, k) b)."""
    r = grid.ndim
    _check_degree(r, degree)
    if axis_mats is None:
        axis_mats = [forward_diff_matrix(grid, a) for a in range(r)]
    rows = _subsets(r, degree + 1)
    cols = _subsets(r, degree)
    lead, block = axis_mats[0].shape[:-2], axis_mats[0].shape[-1]
    D = np.zeros(lead + (len(rows) * block, len(cols) * block),
                 dtype=np.result_type(*axis_mats))
    for cj, S in enumerate(cols):
        for a in range(r):
            if a in S:
                continue
            T = tuple(sorted(S + (a,)))
            ri = rows.index(T)
            sign = (-1) ** T.index(a)
            D[..., ri * block:(ri + 1) * block, cj * block:(cj + 1) * block] = sign * axis_mats[a]
    return D


# ---------------------------------------------------------------------------
# oriented regions, boundary, integration
# ---------------------------------------------------------------------------

@dataclass
class SurfaceRegion:
    """Integer k-chain: ``coef[j, p]`` is the multiplicity of the k-facet
    with base node p spanned by the edges p -> p + e_a, a in the j-th axis
    subset (lexicographic order, as in :meth:`FormField.stack`).

    Orientation is the sign of the multiplicity; ``coef`` has shape
    (C(r, k), *grid.shape) and a signed integer dtype.  The constructors wrap
    bases on periodic axes, drop those out of range on Dirichlet axes, and
    add up repeated facets.
    """

    grid: ProductGrid
    dim: int
    coef: np.ndarray

    def __post_init__(self):
        _check_degree(self.grid.ndim, self.dim)
        self.coef = np.asarray(self.coef)
        want = (math.comb(self.grid.ndim, self.dim),) + self.grid.shape
        if self.coef.shape != want or not np.issubdtype(self.coef.dtype, np.signedinteger):
            raise GridError(f"{self.dim}-chain coefficients of shape {self.coef.shape} and "
                            f"dtype {self.coef.dtype}, want signed integers of shape {want}")

    @classmethod
    def _box(cls, grid: ProductGrid, dim: int, row: int, lo, hi) -> "SurfaceRegion":
        """Unit facets of subset ``row`` at every base in [lo, hi) per axis."""
        if not len(lo) == len(hi) == grid.ndim:
            raise GridError(f"corners {tuple(lo)} and {tuple(hi)} need one index per axis")
        coef = np.zeros((math.comb(grid.ndim, dim),) + grid.shape, dtype=np.int64)
        idx = []
        for g, l, h in zip(grid.axes, lo, hi):
            k = np.arange(l, h)
            idx.append(k % g.n if g.boundary == "periodic" else k[(k >= 0) & (k < g.n)])
        np.add.at(coef[row], np.ix_(*idx), 1)
        return cls(grid, dim, coef)

    @classmethod
    def cell_block(cls, grid: ProductGrid, lo: tuple, hi: tuple) -> "SurfaceRegion":
        """All top-dimensional cells with base corner in [lo, hi) per axis."""
        return cls._box(grid, grid.ndim, 0, lo, hi)

    @classmethod
    def axis_loop(cls, grid: ProductGrid, axis: int, base: tuple) -> "SurfaceRegion":
        """Fundamental cycle along a periodic axis through a base node."""
        g = grid.axes[axis]
        if g.boundary != "periodic":
            raise GridError("loops need a periodic axis")
        lo, hi = list(base), [b + 1 for b in base]
        lo[axis], hi[axis] = 0, g.n
        return cls._box(grid, 1, axis, lo, hi)


def boundary(region: SurfaceRegion) -> SurfaceRegion:
    """Oriented boundary chain, the transposed forward coboundary: for a in
    T and s = (-1)^pos_T(a), bd[T - a, p + e_a] += s c[T, p] on the node
    pairs :func:`grid_ops._shift_pairs` keeps and bd[T - a, p] -= s c[T, p].
    Internal facets cancel exactly; facets past a Dirichlet end are dropped.
    """
    grid, k = region.grid, region.dim
    if k == 0:
        raise DegreeMismatchError("a 0-chain has no boundary")
    subs = _subsets(grid.ndim, k - 1)
    out = np.zeros((len(subs), grid.nnodes), dtype=region.coef.dtype)
    for T, cT in zip(_subsets(grid.ndim, k), region.coef.reshape(len(region.coef), -1)):
        for j, a in enumerate(T):
            near, far = _shift_pairs(grid, {a: 1})
            bd, s = out[subs.index(T[:j] + T[j + 1:])], (-1) ** j * cT
            bd[far] += s[near]
            bd -= s
    return SurfaceRegion(grid, k - 1, out.reshape((len(subs),) + grid.shape))


def surface_integral(form: FormField, region: SurfaceRegion):
    """One-point (base corner) quadrature over an integer chain: the running
    sum, from zero and in C order over the chain's support, of the
    multiplicity times the facet volume times the form at the base.

    Pairs exactly with the forward-difference exterior derivative:
    surface_integral(d w, cells) == surface_integral(w, boundary(cells))
    as floating-point identities up to roundoff.
    """
    if form.degree != region.dim:
        raise DegreeMismatchError(
            f"cannot integrate a degree-{form.degree} form over a {region.dim}-chain")
    grid = form.grid
    if region.grid.shape != grid.shape:
        raise GridError(f"a chain on nodes {region.grid.shape} does not fit a form "
                        f"on nodes {grid.shape}")
    N = grid.fiber_dim
    vals = form.stack().reshape(region.coef.shape + (N,))
    weights = np.array([math.prod(grid.axes[a].h for a in S)
                        for S in _subsets(grid.ndim, form.degree)], dtype=float)
    nz = np.nonzero(region.coef)
    terms = (region.coef[nz] * weights[nz[0]])[:, None] * vals[nz]
    total = np.cumsum(np.concatenate([np.zeros((1, N), dtype=complex), terms]), axis=0)[-1]
    return complex(total[0]) if N == 1 else total


# ---------------------------------------------------------------------------
# bilinear concomitant
# ---------------------------------------------------------------------------

def _fiber_pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise fiber pairing conj(u).v, scalar field result."""
    return np.sum(np.conj(u) * v, axis=-1)


def bilinear_concomitant(op: DiffOp, phi: np.ndarray, psi: np.ndarray,
                         scheme_order: int = 2) -> list:
    """Componentwise concomitant of an operator at a pair of fields.

    phi, psi are shaped (*grid.shape, N).  Returns the components
    Z_i[phi, psi], one array of shape grid.shape per axis.  Z depends
    conjugate-linearly on phi and linearly on psi.
    """
    grid = op.grid
    m = grid.ndim
    phi = _with_fiber(grid, phi)
    psi = _with_fiber(grid, psi)
    dmats = {}

    def dpow(axis: int, k: int, arr: np.ndarray) -> np.ndarray:
        if k == 0:
            return arr
        key = (axis, k)
        if key not in dmats:
            dmats[key] = derivative_matrix(grid.axes[axis], k, scheme_order)
        return _apply_along(dmats[key], arr, axis)

    Z = [np.zeros(grid.shape, dtype=complex) for _ in range(m)]
    for alpha, coeff in op.terms.items():
        g = np.einsum("...ji,...j->...i", np.conj(coeff), phi)
        for i in range(m):
            if alpha[i] == 0:
                continue
            pre = g
            for a in range(i):
                pre = dpow(a, alpha[a], pre)
            post = psi
            for a in range(i + 1, m):
                post = dpow(a, alpha[a], post)
            lead = (-1) ** sum(alpha[:i])
            for j in range(alpha[i]):
                u = dpow(i, j, pre)
                v = dpow(i, alpha[i] - 1 - j, post)
                Z[i] += lead * ((-1) ** j) * _fiber_pair(u, v)
    return Z


def interior_mask(grid: ProductGrid, width: int) -> np.ndarray:
    """Boolean mask excluding a band of the given node width at Dirichlet edges."""
    mask = np.ones(grid.shape, dtype=bool)
    for a, g in enumerate(grid.axes):
        if g.boundary == "periodic":
            continue
        idx = [slice(None)] * grid.ndim
        idx[a] = slice(0, width)
        mask[tuple(idx)] = False
        idx[a] = slice(g.n - width, g.n)
        mask[tuple(idx)] = False
    return mask


def divergence_residual(op: DiffOp, phi: np.ndarray, psi: np.ndarray,
                        scheme_order: int = 2) -> dict:
    """Pointwise defect of the discrete Lagrange identity.

    Returns the residual field r = (<phi, L psi> - <L* phi, psi>) - sum_i D_i Z_i
    together with its max over interior nodes.  The divergence D_i is the
    centered first-derivative stencil of the same order.
    """
    grid = op.grid
    A = discretize(op, scheme_order).A
    Astar = discretize(formal_adjoint(op, scheme_order), scheme_order).A
    phi_a = _with_fiber(grid, phi)
    psi_a = _with_fiber(grid, psi)
    shp = grid.shape + (grid.fiber_dim,)
    Lpsi = (A @ psi_a.reshape(-1)).reshape(shp)
    Lsphi = (Astar @ phi_a.reshape(-1)).reshape(shp)
    lhs = _fiber_pair(phi_a, Lpsi) - _fiber_pair(Lsphi, psi_a)

    Z = bilinear_concomitant(op, phi_a, psi_a, scheme_order)
    div = np.zeros(grid.shape, dtype=complex)
    for i in range(grid.ndim):
        D1 = derivative_matrix(grid.axes[i], 1, scheme_order)
        div += _apply_along(D1, Z[i], i)

    r = lhs - div
    width = max(op.order) + scheme_order
    mask = interior_mask(grid, width)
    return {
        "residual": r,
        "interior_max": float(np.max(np.abs(r[mask]))) if mask.any() else float("nan"),
    }
