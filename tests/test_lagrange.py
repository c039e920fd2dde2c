"""Lagrange identity in divergence form: concomitants, discrete forms, and
Stokes bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import (DegreeMismatchError, DiffOp, FormField, Grid1D, GridError,
                      ProductGrid, SurfaceRegion, bilinear_concomitant,
                      boundary, d_L, divergence_residual,
                      exterior_derivative, form_norm, plain_complex,
                      surface_integral)
from delsarte import derivative_matrix, discretize
from delsarte.grid_ops import _apply_along
from delsarte.lagrange import _subsets, forward_diff_matrix


def _pline(n=100, length=2 * np.pi):
    return ProductGrid.line(Grid1D.periodic(0.0, length, n))


# ---------------------------------------------------------------------------
# concomitant structure
# ---------------------------------------------------------------------------

def test_first_order_concomitant_is_product():
    # L = d/dx gives Z = conj(phi) psi with no stencil content at all
    pg = _pline()
    x = pg.axes[0].x
    op = DiffOp(pg, {(1,): 1.0})
    phi = np.exp(0.2 * np.sin(x)) + 0.3j * x
    psi = np.cos(x)
    Z = bilinear_concomitant(op, phi[..., None], psi[..., None])
    np.testing.assert_array_equal(Z[0], np.conj(phi) * psi)


def test_second_order_concomitant_is_wronskian_form():
    # L = -d^2 gives Z = conj(phi)' psi - conj(phi) psi' with stencil derivatives
    pg = _pline(60)
    from delsarte.grid_ops import derivative_matrix
    x = pg.axes[0].x
    D = derivative_matrix(pg.axes[0], 1)
    op = DiffOp(pg, {(2,): -1.0})
    phi = np.exp(np.sin(x)) + 0.5j * np.cos(2 * x)
    psi = np.sin(3 * x)
    Z = bilinear_concomitant(op, phi[..., None], psi[..., None])
    want = (D @ np.conj(phi)) * psi - np.conj(phi) * (D @ psi)
    np.testing.assert_allclose(Z[0], want, atol=1e-12)


def test_concomitant_semilinearity():
    pg = _pline(40)
    x = pg.axes[0].x
    op = DiffOp(pg, {(2,): -1.0, (0,): np.cos(x).astype(complex)})
    phi = np.exp(1j * x)
    psi = np.cos(x)
    a = 0.7 - 0.4j
    z1 = bilinear_concomitant(op, (a * phi)[..., None], psi[..., None])[0]
    z2 = bilinear_concomitant(op, phi[..., None], psi[..., None])[0]
    np.testing.assert_allclose(z1, np.conj(a) * z2, atol=1e-12)
    z3 = bilinear_concomitant(op, phi[..., None], (a * psi)[..., None])[0]
    np.testing.assert_allclose(z3, a * z2, atol=1e-12)


def test_divergence_identity_second_order_accuracy():
    res = []
    ns = (100, 200, 400)
    for n in ns:
        pg = _pline(n)
        x = pg.axes[0].x
        op = DiffOp(pg, {(2,): -1.0, (0,): np.cos(x).astype(complex)})
        phi = np.exp(0.3 * np.sin(x))
        psi = np.cos(x) + 0.5 * np.sin(2 * x)
        rep = divergence_residual(op, phi[..., None], psi[..., None])
        res.append(rep["interior_max"])
    slope = np.polyfit(np.log(ns), np.log(res), 1)[0]
    assert -slope > 1.8


def test_divergence_identity_total_mass_vanishes():
    """Summed over a periodic grid the divergence telescopes away and the
    pairing difference cancels exactly, so the residual has zero mean."""
    pg = _pline(64)
    x = pg.axes[0].x
    op = DiffOp(pg, {(2,): -1.0, (0,): np.cos(x).astype(complex)})
    phi = np.exp(2j * x)
    psi = np.exp(3j * x) + 0.2 * np.sin(x)
    rep = divergence_residual(op, phi[..., None], psi[..., None])
    assert abs(np.sum(rep["residual"])) < 1e-10


# ---------------------------------------------------------------------------
# forms, d, Stokes
# ---------------------------------------------------------------------------

def _torus(n1=10, n2=8):
    return ProductGrid((Grid1D.periodic(0.0, 2 * np.pi, n1),
                        Grid1D.periodic(0.0, 1.0, n2)), 1)


def test_form_field_component_shapes():
    pg = _torus()
    f = FormField(pg, 0, {(): np.ones(pg.shape + (1,))})
    v = f.stack()
    back = FormField.from_stack(pg, 0, v)
    np.testing.assert_array_equal(back.component(()), f.component(()))
    with pytest.raises(DegreeMismatchError):
        exterior_derivative(FormField(pg, 2, {(0, 1): np.ones(pg.shape + (1,))}))


def test_form_field_keeps_its_data_dtype():
    pg = _torus()
    shp = pg.shape + (1,)
    f = FormField(pg, 1, {(0,): np.ones(shp, dtype=int)})
    assert f.component((0,)).dtype == f.component((1,)).dtype == np.float64
    assert f.stack().dtype == np.float64
    g = FormField(pg, 1, {(1,): 1j * np.ones(shp)})
    assert (f + g).stack().dtype == np.complex128
    assert FormField(pg, 0).stack().dtype == np.float64


def test_exterior_derivative_squares_to_zero():
    pg = _torus()
    rng = np.random.default_rng(0)
    f = FormField(pg, 0, {(): rng.standard_normal(pg.shape + (1,))})
    dd = exterior_derivative(exterior_derivative(f))
    assert form_norm(dd) < 1e-13


def test_forward_diff_matrix_wraps_periodically():
    pg = _torus(6, 5)
    D = forward_diff_matrix(pg, 0)
    h = pg.axes[0].h
    # row of the last slab reaches back to the first slab
    v = np.zeros(pg.total_dim)
    v[0] = 1.0
    out = D @ v
    assert out[0] == pytest.approx(-1.0 / h)
    last_slab = (pg.shape[0] - 1) * pg.shape[1]
    assert out[last_slab] == pytest.approx(1.0 / h)


def _roll_forward_diff(grid, axis, arr):
    """Oracle: the field one node ahead along ``axis`` (wrapped on a periodic
    axis, zero past the end of a Dirichlet one) minus the field, over h."""
    ahead = np.roll(arr, -1, axis=axis)
    if grid.axes[axis].boundary == "dirichlet":
        ahead[(slice(None),) * axis + (-1,)] = 0.0
    return (ahead - arr) / grid.axes[axis].h


def test_axis_operators_share_one_flattening():
    # distinct sizes, mixed boundaries and a 2-dim fiber in 1-D, 2-D and 3-D:
    # any other Kronecker order than axis-major with the fiber innermost shows here
    axes = (Grid1D.dirichlet(0.0, 1.0, 5), Grid1D.periodic(0.0, 2.0, 6),
            Grid1D.dirichlet(-1.0, 1.0, 7))
    rng = np.random.default_rng(5)

    def field(pg):
        shape = pg.shape + (pg.fiber_dim,)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for pg in (ProductGrid(axes[1:2], 2), ProductGrid(axes[:2], 2), ProductGrid(axes, 2)):
        f = field(pg)
        vec = pg.flatten_field(f)
        for a in range(pg.ndim):
            fd = pg.flatten_field(_roll_forward_diff(pg, a, f))
            assert close(forward_diff_matrix(pg, a) @ vec, fd)
            e_a = tuple(int(j == a) for j in range(pg.ndim))
            A = discretize(DiffOp(pg, {e_a: 1.0})).A
            D1 = derivative_matrix(pg.axes[a], 1)
            assert close(A @ vec, pg.flatten_field(_apply_along(D1, f, a)))
        # the exterior derivative is the plain complex's d_L, bit for bit
        c = plain_complex(pg)
        for k in range(pg.ndim):
            form = FormField(pg, k, {S: field(pg) for S in _subsets(pg.ndim, k)})
            assert exterior_derivative(form).stack().tobytes() == d_L(c, form).stack().tobytes()


def test_stokes_exact_on_cell_blocks():
    pg = _torus(12, 10)
    rng = np.random.default_rng(1)
    om = FormField(pg, 1, {(0,): rng.standard_normal(pg.shape + (1,)),
                           (1,): rng.standard_normal(pg.shape + (1,))})
    dom = exterior_derivative(om)
    reg = SurfaceRegion.cell_block(pg, (2, 3), (9, 7))
    lhs = surface_integral(dom, reg)
    rhs = surface_integral(om, boundary(reg))
    assert abs(lhs - rhs) < 1e-13


def test_point_pair_telescoping():
    # 1-D Stokes: integral of df over a segment is the endpoint difference
    g = Grid1D.dirichlet(0.0, 1.0, 20)
    pg = ProductGrid.line(g)
    rng = np.random.default_rng(2)
    f = FormField(pg, 0, {(): rng.standard_normal(pg.shape + (1,))})
    df = exterior_derivative(f)
    seg = SurfaceRegion.cell_block(pg, (3,), (15,))
    val = surface_integral(df, seg)
    want = surface_integral(f, boundary(seg))
    ends = f.component(())[15, 0] - f.component(())[3, 0]
    assert val == pytest.approx(ends, abs=1e-13)
    assert want == pytest.approx(ends, abs=1e-13)


def test_loop_integral_of_exact_form_vanishes():
    pg = _torus()
    rng = np.random.default_rng(3)
    f = FormField(pg, 0, {(): rng.standard_normal(pg.shape + (1,))})
    df = exterior_derivative(f)
    loop = SurfaceRegion.axis_loop(pg, 0, (0, 2))
    assert abs(surface_integral(df, loop)) < 1e-13


# ---------------------------------------------------------------------------
# integer chains: the boundary is the transposed coboundary
# ---------------------------------------------------------------------------

@st.composite
def _chain_cases(draw):
    # sides capped so the dense coboundary of exterior_derivative stays small
    r = draw(st.integers(1, 3))
    fiber = draw(st.sampled_from([1, 2]))
    side = {1: 12, 2: 8, 3: 6 if fiber == 1 else 5}[r]
    axes = tuple(draw(st.sampled_from([Grid1D.periodic, Grid1D.dirichlet]))(
        0.0, draw(st.floats(0.5, 3.0)), draw(st.integers(5, side))) for _ in range(r))
    return ProductGrid(axes, fiber), draw(st.integers(1, r)), draw(st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(case=_chain_cases())
def test_boundary_is_the_transposed_coboundary(case):
    pg, k, seed = case
    rng = np.random.default_rng(seed)
    r = pg.ndim
    chain = SurfaceRegion(pg, k, rng.integers(-2, 3, (math.comb(r, k),) + pg.shape))
    shp = pg.shape + (pg.fiber_dim,)
    w = FormField(pg, k - 1, {S: rng.standard_normal(shp) + 1j * rng.standard_normal(shp)
                              for S in _subsets(r, k - 1)})
    # Stokes: <c, d w> = <bd c, w>, against the size of the summed terms
    lhs = surface_integral(exterior_derivative(w), chain)
    rhs = surface_integral(w, boundary(chain))
    hmax = max(g.h for g in pg.axes)
    scale = np.abs(chain.coef).sum() * np.abs(w.stack()).max() * 2 * k * hmax ** (k - 1)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
    if k >= 2:
        assert not boundary(boundary(chain)).coef.any()
    for a, g in enumerate(pg.axes):
        if g.boundary == "periodic":
            base = tuple(int(b) for b in rng.integers(-g.n, 2 * g.n, r))
            assert not boundary(SurfaceRegion.axis_loop(pg, a, base)).coef.any()


def test_chain_coefficients_are_checked():
    pg = _torus(12, 10)
    with pytest.raises(GridError, match=r"\(2, 12, 9\).*\(2, 12, 10\)"):
        SurfaceRegion(pg, 1, np.zeros((2, 12, 9), dtype=int))
    for dtype in ("float64", "uint8"):
        with pytest.raises(GridError, match=dtype):
            SurfaceRegion(pg, 1, np.zeros((2, 12, 10), dtype=dtype))
    with pytest.raises(GridError, match="one index per axis"):
        SurfaceRegion.cell_block(pg, (0,), (3,))
    with pytest.raises(DegreeMismatchError):
        boundary(SurfaceRegion(pg, 0, np.ones((1, 12, 10), dtype=int)))
    form = FormField(_torus(12, 9), 1)
    with pytest.raises(GridError, match=r"\(12, 10\).*\(12, 9\)"):
        surface_integral(form, SurfaceRegion.axis_loop(pg, 0, (0, 0)))


def test_surface_integral_is_the_facet_loop():
    # one facet at a time, from zero, in base order: the same bits
    pg = ProductGrid((Grid1D.periodic(0.0, 2.0, 9), Grid1D.periodic(0.0, 1.3, 7)), 2)
    rng = np.random.default_rng(4)
    shp = pg.shape + (2,)
    forms = [FormField(pg, k, {S: rng.standard_normal(shp) + 1j * rng.standard_normal(shp)
                               for S in _subsets(2, k)}) for k in (1, 2)]
    cases = [(forms[1], SurfaceRegion.cell_block(pg, (1, 2), (8, 6)), (0, 1), (1, 2), (8, 6)),
             (forms[0], SurfaceRegion.axis_loop(pg, 1, (3, 0)), (1,), (3, 0), (4, 7))]
    for form, chain, S, lo, hi in cases:
        weight = math.prod(pg.axes[a].h for a in S)
        want = np.zeros(2, dtype=complex)
        for base in np.ndindex(*(h - l for l, h in zip(lo, hi))):
            want += weight * form.component(S)[tuple(np.add(base, lo))]
        assert surface_integral(form, chain).tobytes() == want.tobytes()


def test_cell_blocks_wrap_drop_and_add_up():
    pg = ProductGrid((Grid1D.periodic(0.0, 1.0, 5), Grid1D.dirichlet(0.0, 1.0, 5)))
    coef = SurfaceRegion.cell_block(pg, (-1, -2), (6, 2)).coef[0]
    # periodic bases -1..5 wrap (0 is hit twice, by 0 and 5); Dirichlet
    # bases -2 and -1 leave the grid
    want = np.zeros((5, 5), dtype=int)
    want[:, :2] = 1
    want[[0, 4], :2] = 2
    np.testing.assert_array_equal(coef, want)


def test_form_components_are_held_by_reference():
    # a float or complex component of the form's shape (or, for the trivial
    # fiber, of the node shape) is held, not copied; an integer one becomes
    # a new float array, and a sum of forms holds new arrays
    pg = ProductGrid((Grid1D.periodic(0.0, 1.0, 6), Grid1D.periodic(0.0, 1.0, 5)))
    shp = pg.shape + (1,)
    a, b = np.ones(shp), np.full(shp, 2.0 + 1j)
    f = FormField(pg, 1, {(0,): a, (1,): b})
    assert f.component((0,)) is a and f.component((1,)) is b
    scalar = np.ones(pg.shape)
    assert np.shares_memory(FormField(pg, 0, {(): scalar}).component(()), scalar)
    ints = np.ones(shp, dtype=int)
    assert FormField(pg, 1, {(0,): ints}).component((0,)).dtype == np.float64
    g = FormField(pg, 1, {(1,): np.ones(shp)})
    for total in (f + g, g + f):
        for S in ((0,), (1,)):
            for part in (f, g):
                assert not np.shares_memory(total.component(S), part.component(S))
