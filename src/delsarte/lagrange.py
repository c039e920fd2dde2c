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
k-forms with a forward-difference exterior derivative, oriented cell/facet
regions, and one-point (base corner) facet quadrature.  In that pairing the
discrete Stokes theorem is an identity, not an approximation, which is what
makes telescoping sums and period integrals reliable at roundoff level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegreeMismatchError, DiscretizationError, GridError,
                     NotClosedError, NotExactError)
from .grid_ops import (DiffOp, ProductGrid, _apply_along, _lift,
                       derivative_matrix, discretize, formal_adjoint)

__all__ = [
    "FormField",
    "SurfaceRegion",
    "Concomitant",
    "bilinear_concomitant",
    "divergence_residual",
    "exterior_derivative",
    "coboundary",
    "boundary",
    "surface_integral",
    "primitive",
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


def _with_fiber(grid: ProductGrid, arr) -> np.ndarray:
    """A scalar field of shape grid.shape gains a trailing fiber axis."""
    arr = np.asarray(arr)
    return arr[..., None] if arr.shape == grid.shape else arr


@dataclass
class FormField:
    """Node-collocated k-form on a product grid.

    Components are indexed by strictly increasing axis subsets; each value
    has shape (*grid.shape, N).  Missing subsets are implicitly zero.
    """

    grid: ProductGrid
    degree: int
    comps: dict = field(default_factory=dict)

    def __post_init__(self):
        r = self.grid.ndim
        if not (0 <= self.degree <= r):
            raise DegreeMismatchError(f"degree {self.degree} out of range for {r} axes")
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
            clean[S] = arr.astype(complex)
        self.comps = clean

    def component(self, S) -> np.ndarray:
        S = tuple(sorted(S))
        shape = self.grid.shape + (self.grid.fiber_dim,)
        return self.comps.get(S, np.zeros(shape, dtype=complex))

    def __add__(self, other: "FormField") -> "FormField":
        if other.degree != self.degree:
            raise DegreeMismatchError("cannot add forms of different degree")
        out = {S: arr.copy() for S, arr in self.comps.items()}
        for S, arr in other.comps.items():
            out[S] = out[S] + arr if S in out else arr
        return FormField(self.grid, self.degree, out)

    def stack(self) -> np.ndarray:
        """All components as one vector, subsets in lexicographic order."""
        r = self.grid.ndim
        return np.concatenate([self.component(S).ravel() for S in _subsets(r, self.degree)]) \
            if _subsets(r, self.degree) else np.zeros(0, dtype=complex)

    @classmethod
    def from_stack(cls, grid: ProductGrid, degree: int, vec: np.ndarray) -> "FormField":
        r = grid.ndim
        block = grid.total_dim
        comps = {}
        for j, S in enumerate(_subsets(r, degree)):
            comps[S] = np.asarray(vec)[j * block:(j + 1) * block].reshape(
                grid.shape + (grid.fiber_dim,))
        return cls(grid, degree, comps)


def form_norm(form: FormField) -> float:
    v = form.stack()
    return float(np.sqrt(form.grid.vol) * np.linalg.norm(v))


# ---------------------------------------------------------------------------
# forward differences and the coboundary
# ---------------------------------------------------------------------------

def _shift_down(grid: ProductGrid, axis: int, arr: np.ndarray) -> np.ndarray:
    """arr evaluated one node ahead along axis (wrap or zero extension)."""
    g = grid.axes[axis]
    if g.boundary == "periodic":
        return np.roll(arr, -1, axis=axis)
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    src[axis] = slice(1, None)
    dst[axis] = slice(0, -1)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def forward_diff(grid: ProductGrid, axis: int, arr: np.ndarray) -> np.ndarray:
    return (_shift_down(grid, axis, arr) - arr) / grid.axes[axis].h


def forward_diff_matrix(grid: ProductGrid, axis: int) -> np.ndarray:
    """Forward difference along one axis as a matrix on flattened fields."""
    g = grid.axes[axis]
    D = -np.eye(g.n)
    idx = np.arange(g.n - 1)
    D[idx, idx + 1] = 1.0
    if g.boundary == "periodic":
        D[-1, 0] = 1.0
    D /= g.h
    return _lift(grid, axis, D)


def coboundary(form: FormField, apply_ops) -> FormField:
    """Exterior derivative with caller-supplied axis generators.

    ``apply_ops[a]`` maps a shaped field (*shape, N) to a shaped field; the
    output (k+1)-form is  (d w)[T] = sum_{a in T} (-1)^{pos_T(a)} op_a w[T - a].
    Antisymmetry plus pairwise commuting generators give d(d w) = 0 exactly.
    """
    grid = form.grid
    r = grid.ndim
    k = form.degree
    if k >= r:
        raise DegreeMismatchError("top-degree forms have identically zero differential")
    out: dict = {}
    for S, arr in form.comps.items():
        for a in range(r):
            if a in S:
                continue
            T = tuple(sorted(S + (a,)))
            sign = (-1) ** T.index(a)
            contrib = sign * apply_ops[a](arr)
            out[T] = out[T] + contrib if T in out else contrib
    return FormField(grid, k + 1, out)


def exterior_derivative(form: FormField) -> FormField:
    """Plain forward-difference exterior derivative (exactly nilpotent)."""
    grid = form.grid
    ops = [lambda arr, a=a: forward_diff(grid, a, arr) for a in range(grid.ndim)]
    return coboundary(form, ops)


def d_matrix(grid: ProductGrid, degree: int, axis_mats: list | None = None) -> np.ndarray:
    """Matrix of the coboundary from degree k to k+1 on stacked components;
    its dtype is the common type of the axis operators (real for the plain
    forward differences)."""
    r = grid.ndim
    if axis_mats is None:
        axis_mats = [forward_diff_matrix(grid, a) for a in range(r)]
    rows = _subsets(r, degree + 1)
    cols = _subsets(r, degree)
    block = grid.total_dim
    D = np.zeros((len(rows) * block, len(cols) * block),
                 dtype=np.result_type(*axis_mats))
    for cj, S in enumerate(cols):
        for a in range(r):
            if a in S:
                continue
            T = tuple(sorted(S + (a,)))
            ri = rows.index(T)
            sign = (-1) ** T.index(a)
            D[ri * block:(ri + 1) * block, cj * block:(cj + 1) * block] = sign * axis_mats[a]
    return D


# ---------------------------------------------------------------------------
# oriented regions, boundary, integration
# ---------------------------------------------------------------------------

@dataclass
class SurfaceRegion:
    """Oriented chain of k-facets: (base corner index, axis subset, sign).

    A k-facet with base p and axes S is the cell spanned by the edges
    p -> p + e_a, a in S.  Facet axes are stored sorted; orientation is
    carried entirely by the sign.
    """

    grid: ProductGrid
    dim: int
    facets: list  # [(base tuple, axes tuple, sign int)]

    def __post_init__(self):
        for base, axes, sign in self.facets:
            if len(axes) != self.dim or tuple(sorted(axes)) != tuple(axes):
                raise GridError(f"facet axes {axes} malformed for dimension {self.dim}")
            if sign not in (-1, 1):
                raise GridError("facet signs must be +1 or -1")

    @classmethod
    def cell_block(cls, grid: ProductGrid, lo: tuple, hi: tuple) -> "SurfaceRegion":
        """All top-dimensional cells with base corner in [lo, hi) per axis."""
        ranges = [range(l, h) for l, h in zip(lo, hi)]
        axes = tuple(range(grid.ndim))
        return cls(grid, grid.ndim, [(tuple(p), axes, 1) for p in itertools.product(*ranges)])

    @classmethod
    def axis_loop(cls, grid: ProductGrid, axis: int, base: tuple) -> "SurfaceRegion":
        """Fundamental cycle along a periodic axis through a base node."""
        g = grid.axes[axis]
        if g.boundary != "periodic":
            raise GridError("loops need a periodic axis")
        facets = []
        for k in range(g.n):
            p = list(base)
            p[axis] = k
            facets.append((tuple(p), (axis,), 1))
        return cls(grid, 1, facets)


def _wrap_base(grid: ProductGrid, base: tuple):
    """Wrap periodic indices; None when a Dirichlet index leaves the range."""
    out = []
    for a, (idx, g) in enumerate(zip(base, grid.axes)):
        if g.boundary == "periodic":
            out.append(idx % g.n)
        else:
            if not (0 <= idx < g.n):
                return None
            out.append(idx)
    return tuple(out)


def boundary(region: SurfaceRegion) -> SurfaceRegion:
    """Oriented boundary chain; internal facets of a tiling cancel exactly.

    Facets that would land on an eliminated Dirichlet boundary node are
    dropped, matching the zero extension used everywhere else.
    """
    grid = region.grid
    acc: dict = {}
    for base, axes, sign in region.facets:
        for p, a in enumerate(axes):
            sub = tuple(x for x in axes if x != a)
            s = sign * ((-1) ** p)
            far = list(base)
            far[a] += 1
            for b, s2 in ((tuple(far), s), (tuple(base), -s)):
                bw = _wrap_base(grid, b)
                if bw is None:
                    continue
                key = (bw, sub)
                acc[key] = acc.get(key, 0) + s2
    out = []
    for (b, sub), v in acc.items():
        if v == 0:
            continue
        out.extend([(b, sub, int(np.sign(v)))] * abs(v))
    return SurfaceRegion(grid, region.dim - 1, out)


def surface_integral(form: FormField, region: SurfaceRegion):
    """One-point (base corner) quadrature over an oriented facet chain.

    Pairs exactly with the forward-difference exterior derivative:
    surface_integral(d w, cells) == surface_integral(w, boundary(cells))
    as floating-point identities up to roundoff.
    """
    if form.degree != region.dim:
        raise DegreeMismatchError(
            f"cannot integrate a degree-{form.degree} form over a {region.dim}-chain")
    grid = form.grid
    total = np.zeros(grid.fiber_dim, dtype=complex)
    for base, axes, sign in region.facets:
        bw = _wrap_base(grid, base)
        if bw is None:
            continue
        weight = float(np.prod([grid.axes[a].h for a in axes])) if axes else 1.0
        total += sign * weight * form.component(axes)[bw]
    if grid.fiber_dim == 1:
        return complex(total[0])
    return total


def primitive(form: FormField) -> FormField:
    """Minimum-norm alpha with d(alpha) = form, for the forward-difference d.

    Raises :class:`NotClosedError` when |d(form)| / |form| exceeds 1e-10 and
    :class:`NotExactError` when the relative least-squares residual does
    (a harmonic obstruction, for example a fundamental-cycle period on a
    torus).  A non-finite form fails one of the two gates.
    """
    if form.degree == 0:
        raise DegreeMismatchError("0-forms have no primitive")
    grid = form.grid
    scale = form_norm(form) or 1.0
    if form.degree < grid.ndim:  # top-degree forms are vacuously closed
        closed_res = form_norm(exterior_derivative(form)) / scale
        if not (closed_res <= 1e-10):
            raise NotClosedError(float(closed_res))
    D = d_matrix(grid, form.degree - 1)
    rhs = form.stack()
    sol, _, _, _ = np.linalg.lstsq(D, rhs, rcond=None)
    res = float(np.linalg.norm(D @ sol - rhs) / (np.linalg.norm(rhs) or 1.0))
    if not (res <= 1e-10):
        raise NotExactError(res)
    return FormField.from_stack(grid, form.degree - 1, sol)


# ---------------------------------------------------------------------------
# bilinear concomitant
# ---------------------------------------------------------------------------

def _fiber_pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise fiber pairing conj(u).v, scalar field result."""
    return np.sum(np.conj(u) * v, axis=-1)


@dataclass
class Concomitant:
    """Evaluated concomitant components Z_i[phi, psi], one per axis."""

    components: list  # m arrays of shape (*grid.shape,)


def bilinear_concomitant(op: DiffOp, phi: np.ndarray, psi: np.ndarray,
                         scheme_order: int = 2) -> Concomitant:
    """Componentwise concomitant of an operator at a pair of fields.

    phi, psi are shaped (*grid.shape, N).  Z depends conjugate-linearly on
    phi and linearly on psi.
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
    return Concomitant(Z)


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
    A = discretize(op, scheme_order)
    Astar = discretize(formal_adjoint(op, scheme_order), scheme_order)
    phi_a = _with_fiber(grid, phi)
    psi_a = _with_fiber(grid, psi)
    shp = grid.shape + (grid.fiber_dim,)
    Lpsi = (A.A @ psi_a.reshape(-1)).reshape(shp)
    Lsphi = (Astar.A @ phi_a.reshape(-1)).reshape(shp)
    lhs = _fiber_pair(phi_a, Lpsi) - _fiber_pair(Lsphi, psi_a)

    conc = bilinear_concomitant(op, phi_a, psi_a, scheme_order)
    div = np.zeros(grid.shape, dtype=complex)
    for i in range(grid.ndim):
        D1 = derivative_matrix(grid.axes[i], 1, scheme_order)
        div += _apply_along(D1, conc.components[i], i)

    r = lhs - div
    width = max(op.order) + scheme_order
    mask = interior_mask(grid, width)
    return {
        "residual": r,
        "interior_max": float(np.max(np.abs(r[mask]))) if mask.any() else float("nan"),
    }
