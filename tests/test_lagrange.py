"""Lagrange identity in divergence form: concomitants, discrete forms,
Stokes bookkeeping, and primitives."""

import numpy as np
import pytest

from delsarte import (DegreeMismatchError, DiffOp, FormField, Grid1D,
                      NotExactError, ProductGrid, SurfaceRegion,
                      bilinear_concomitant, boundary, coboundary,
                      divergence_residual, exterior_derivative, form_norm,
                      primitive, surface_integral)
from delsarte import derivative_matrix, discretize
from delsarte.grid_ops import _apply_along
from delsarte.lagrange import forward_diff, forward_diff_matrix


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
    conc = bilinear_concomitant(op, phi[..., None], psi[..., None])
    np.testing.assert_array_equal(conc.components[0], np.conj(phi) * psi)


def test_second_order_concomitant_is_wronskian_form():
    # L = -d^2 gives Z = conj(phi)' psi - conj(phi) psi' with stencil derivatives
    pg = _pline(60)
    from delsarte.grid_ops import derivative_matrix
    x = pg.axes[0].x
    D = derivative_matrix(pg.axes[0], 1)
    op = DiffOp(pg, {(2,): -1.0})
    phi = np.exp(np.sin(x)) + 0.5j * np.cos(2 * x)
    psi = np.sin(3 * x)
    conc = bilinear_concomitant(op, phi[..., None], psi[..., None])
    want = (D @ np.conj(phi)) * psi - np.conj(phi) * (D @ psi)
    np.testing.assert_allclose(conc.components[0], want, atol=1e-12)


def test_concomitant_semilinearity():
    pg = _pline(40)
    x = pg.axes[0].x
    op = DiffOp(pg, {(2,): -1.0, (0,): np.cos(x).astype(complex)})
    phi = np.exp(1j * x)
    psi = np.cos(x)
    a = 0.7 - 0.4j
    z1 = bilinear_concomitant(op, (a * phi)[..., None], psi[..., None]).components[0]
    z2 = bilinear_concomitant(op, phi[..., None], psi[..., None]).components[0]
    np.testing.assert_allclose(z1, np.conj(a) * z2, atol=1e-12)
    z3 = bilinear_concomitant(op, phi[..., None], (a * psi)[..., None]).components[0]
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
        coboundary(FormField(pg, 2, {(0, 1): np.ones(pg.shape + (1,))}),
                   [lambda a: a, lambda a: a])


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


def test_axis_operators_share_one_flattening():
    # distinct sizes, mixed boundaries and a 2-dim fiber: any other
    # Kronecker order than axis-major with the fiber innermost shows here
    pg = ProductGrid((Grid1D.dirichlet(0.0, 1.0, 5), Grid1D.periodic(0.0, 2.0, 6),
                      Grid1D.dirichlet(-1.0, 1.0, 7)), fiber_dim=2)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(pg.shape + (2,)) + 1j * rng.standard_normal(pg.shape + (2,))
    vec = pg.flatten_field(f)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for a in range(pg.ndim):
        fd = pg.flatten_field(forward_diff(pg, a, f))
        assert close(forward_diff_matrix(pg, a) @ vec, fd)
        e_a = tuple(int(j == a) for j in range(pg.ndim))
        A = discretize(DiffOp(pg, {e_a: 1.0})).A
        D1 = derivative_matrix(pg.axes[a], 1)
        assert close(A @ vec, pg.flatten_field(_apply_along(D1, f, a)))


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


def test_primitive_round_trip():
    pg = _torus()
    rng = np.random.default_rng(4)
    f = FormField(pg, 0, {(): rng.standard_normal(pg.shape + (1,))})
    df = exterior_derivative(f)
    F = primitive(df)
    np.testing.assert_allclose(exterior_derivative(F).stack(), df.stack(),
                               atol=1e-11)


def test_primitive_rejects_closed_nonexact():
    # dt_1 on the torus is closed but has a nonzero loop period
    pg = _torus()
    dt1 = FormField(pg, 1, {(0,): np.ones(pg.shape + (1,)),
                            (1,): np.zeros(pg.shape + (1,))})
    with pytest.raises(NotExactError) as err:
        primitive(dt1)
    assert err.value.residual > 1e-3
