"""Generalized de Rham complex: nilpotency, harmonic dimensions, the Hodge
decomposition, star duality, flat families, and period matrices."""

import math

import numpy as np
import pytest

from delsarte import (FormField, GenComplex, Grid1D, ProductGrid,
                      SurfaceRegion, d_L, dual_flat_section, expected_betti,
                      flat_complex, flat_dimension, flat_section, form_norm,
                      harmonic_space, hodge_decompose, hodge_star,
                      laplace_hodge, plain_complex, scalar_product,
                      skrypnik_map)
from delsarte.errors import (DegreeMismatchError, DiscretizationError,
                             NonCommutingFamilyError, NotClosedError)
from delsarte.lagrange import forward_diff_matrix

T1, T2 = 1.0, 2.0


def _torus(n1=8, n2=10, fiber=1):
    return ProductGrid((Grid1D.periodic(0.0, T1, n1),
                        Grid1D.periodic(0.0, T2, n2)), fiber_dim=fiber)


def _random_form(pg, degree, rng, subsets):
    shp = pg.shape + (pg.fiber_dim,)
    return FormField(pg, degree, {S: rng.standard_normal(shp) for S in subsets})


# ---------------------------------------------------------------------------
# complex structure
# ---------------------------------------------------------------------------

def test_twisted_differential_squares_to_zero():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(0)
    f = _random_form(pg, 0, rng, [()])
    dd = d_L(c, d_L(c, f))
    assert form_norm(dd) < 1e-13


def test_noncommuting_axis_family_rejected():
    pg = _torus(5, 5)
    rng = np.random.default_rng(1)
    d = pg.total_dim
    with pytest.raises(NonCommutingFamilyError):
        GenComplex(pg, [rng.standard_normal((d, d)),
                        rng.standard_normal((d, d))])


def test_non_finite_axis_operator_rejected():
    pg = _torus(6, 6)
    mats = [forward_diff_matrix(pg, a) for a in range(2)]
    mats[0][2, 3] = np.nan
    with pytest.raises(NonCommutingFamilyError):
        GenComplex(pg, mats)


def test_laplace_degree_out_of_range():
    c = plain_complex(_torus())
    with pytest.raises(DegreeMismatchError):
        laplace_hodge(c, 3)


def test_scalar_product_degree_mismatch():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(2)
    f = _random_form(pg, 0, rng, [()])
    b = _random_form(pg, 1, rng, [(0,), (1,)])
    with pytest.raises(DegreeMismatchError):
        scalar_product(c, f, b)


# ---------------------------------------------------------------------------
# harmonic spaces = topology
# ---------------------------------------------------------------------------

def test_circle_connected_component():
    pg = ProductGrid((Grid1D.periodic(0.0, T1, 12),), fiber_dim=1)
    c = plain_complex(pg)
    rep = harmonic_space(c, 0)
    assert rep.dim == 1
    assert rep.gap > 1e4
    assert not rep.ambiguous
    # the harmonic zero-form is the constant
    v = rep.basis[:, 0]
    assert np.abs(v - v[0]).max() < 1e-10


def test_torus_betti_numbers():
    c = plain_complex(_torus())
    dims, gaps = [], []
    for k in range(3):
        rep = harmonic_space(c, k)
        dims.append(rep.dim)
        gaps.append(rep.gap)
        assert not rep.ambiguous
    assert tuple(dims) == (1, 2, 1)
    assert min(gaps) > 1e4


def test_expected_betti_torus_and_dirichlet():
    assert expected_betti(_torus()) == (1, 2, 1)
    pgd = ProductGrid((Grid1D.dirichlet(0.0, 1.0, 6),
                       Grid1D.periodic(0.0, T2, 8)), fiber_dim=1)
    assert expected_betti(pgd) == (0, 0, 0)


def test_dirichlet_axis_kills_cohomology():
    # zero-extension forward difference is invertible, so nothing survives
    pgd = ProductGrid((Grid1D.dirichlet(0.0, 1.0, 6),
                       Grid1D.periodic(0.0, T2, 8)), fiber_dim=1)
    c = plain_complex(pgd)
    for k in range(3):
        assert harmonic_space(c, k).dim == 0


def test_flat_family_multiplies_betti_by_kernel_dim():
    pg = _torus(8, 8, fiber=2)
    gens = [np.diag([0.0, 0.7]), np.diag([0.0, 0.31])]
    c = flat_complex(pg, gens)
    assert flat_dimension(gens) == 1
    assert tuple(harmonic_space(c, k).dim for k in range(3)) == (1, 2, 1)


def test_trivial_generators_double_everything():
    pg = _torus(8, 8, fiber=2)
    gens = [np.zeros((2, 2)), np.zeros((2, 2))]
    c = flat_complex(pg, gens)
    assert flat_dimension(gens) == 2
    assert tuple(harmonic_space(c, k).dim for k in range(3)) == (2, 4, 2)


def test_flat_dimension_matches_stacked_nullity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        d1 = np.diag([0.0, 0.0, 1.3, -0.4])
        d2 = np.diag([0.0, 2.0, 0.0, 0.7])
        gens = [q @ d1 @ q.T, q @ d2 @ q.T]
        stacked = np.vstack(gens)
        nullity = 4 - np.linalg.matrix_rank(stacked, tol=1e-10)
        assert flat_dimension(gens) == nullity == 1


# ---------------------------------------------------------------------------
# Hodge star and decomposition
# ---------------------------------------------------------------------------

def test_star_involution_sign():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(4)
    for k, subs in [(0, [()]), (1, [(0,), (1,)]), (2, [(0, 1)])]:
        b = _random_form(pg, k, rng, subs)
        ss = hodge_star(c, hodge_star(c, b))
        sign = (-1) ** (k * (pg.ndim - k))
        for S in subs:
            np.testing.assert_array_equal(ss.component(S),
                                          sign * b.component(S))


def test_star_is_an_isometry():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(5)
    b = _random_form(pg, 1, rng, [(0,), (1,)])
    g = _random_form(pg, 1, rng, [(0,), (1,)])
    lhs = scalar_product(c, hodge_star(c, b), hodge_star(c, g))
    assert abs(lhs - scalar_product(c, b, g)) < 1e-12


def test_hodge_decomposition_orthogonal_and_complete():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(6)
    beta = _random_form(pg, 1, rng, [(0,), (1,)])
    h, e, co = hodge_decompose(c, beta)
    parts = [h, e, co]
    scale = scalar_product(c, beta, beta).real
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(scalar_product(c, parts[i], parts[j])) < 1e-10 * scale
    recon = h.stack() + e.stack() + co.stack()
    np.testing.assert_allclose(recon, beta.stack(), atol=1e-10)
    # the harmonic part is killed by the Laplacian
    Delta = laplace_hodge(c, 1).A
    assert np.abs(Delta @ h.stack()).max() < 1e-10


def test_harmonic_part_of_exact_form_vanishes():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(7)
    f = _random_form(pg, 0, rng, [()])
    h, e, co = hodge_decompose(c, d_L(c, f))
    assert form_norm(h) < 1e-10
    assert form_norm(co) < 1e-10


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_fundamental_loop_periods_are_axis_lengths():
    pg = _torus()
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    ones = np.ones(shp, dtype=complex)
    psi1 = FormField(pg, 1, {(0,): np.ones(shp)})
    psi2 = FormField(pg, 1, {(1,): np.ones(shp)})
    loops = [SurfaceRegion.axis_loop(pg, 0, (0, 0)),
             SurfaceRegion.axis_loop(pg, 1, (0, 0))]
    P = skrypnik_map(c, ones, [psi1, psi2], loops)
    np.testing.assert_allclose(P, np.diag([T1, T2]), atol=1e-12)


def test_periods_invariant_under_homologous_shift():
    pg = _torus()
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    ones = np.ones(shp, dtype=complex)
    rng = np.random.default_rng(8)
    # closed, not exact: dt_1 plus an exact correction
    psi = FormField(pg, 1, {(0,): np.ones(shp)}) + d_L(
        c, _random_form(pg, 0, rng, [()]))
    loops = [SurfaceRegion.axis_loop(pg, 0, (0, j)) for j in range(pg.shape[1])]
    P = skrypnik_map(c, ones, [psi], loops)
    assert np.abs(P - T1).max() < 1e-10


def test_exact_form_has_zero_periods():
    pg = _torus()
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    ones = np.ones(shp, dtype=complex)
    rng = np.random.default_rng(9)
    psi = d_L(c, _random_form(pg, 0, rng, [()]))
    loops = [SurfaceRegion.axis_loop(pg, a, (0, 0)) for a in range(2)]
    P = skrypnik_map(c, ones, [psi], loops)
    assert np.abs(P).max() < 1e-10


def test_non_closed_form_rejected():
    pg = _torus()
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    ones = np.ones(shp, dtype=complex)
    rng = np.random.default_rng(10)
    psi = _random_form(pg, 1, rng, [(0,), (1,)])
    with pytest.raises(NotClosedError):
        skrypnik_map(c, ones, [psi], [SurfaceRegion.axis_loop(pg, 0, (0, 0))])


def test_non_finite_form_has_no_periods():
    pg = _torus(6, 6)
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    comp = np.ones(shp)
    comp[2, 3, 0] = np.nan
    psi = FormField(pg, 1, {(0,): comp})
    with pytest.raises(NotClosedError):
        skrypnik_map(c, np.ones(shp, dtype=complex), [psi],
                     [SurfaceRegion.axis_loop(pg, 0, (0, 0))])


def test_non_finite_top_form_is_named():
    # a top-degree form has no closedness residual; the NaN must still be named
    pg = _torus(6, 6)
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    comp = np.ones(shp)
    comp[2, 3, 0] = np.nan
    psi = FormField(pg, 2, {(0, 1): comp})
    with pytest.raises(NotClosedError, match="1 non-finite entries"):
        skrypnik_map(c, np.ones(shp, dtype=complex), [psi],
                     [SurfaceRegion.cell_block(pg, (0, 0), (6, 6))])


def test_non_finite_phi0_rejected():
    pg = _torus(6, 6)
    c = plain_complex(pg)
    shp = pg.shape + (1,)
    phi0 = np.ones(shp, dtype=complex)
    phi0[4, 1, 0] = np.nan
    psi = FormField(pg, 1, {(0,): np.ones(shp)})
    with pytest.raises(DiscretizationError, match="phi0"):
        skrypnik_map(c, phi0, [psi], [SurfaceRegion.axis_loop(pg, 0, (0, 0))])


# ---------------------------------------------------------------------------
# flat sections
# ---------------------------------------------------------------------------

def test_flat_section_lies_in_kernel():
    # monodromy-trivial generator: exp(T A) = 1, so the wrap row closes too
    g = Grid1D.periodic(0.0, 2.0 * math.pi, 16)
    pg = ProductGrid((g,), fiber_dim=2)
    A = 1j * np.diag([1.0, 2.0])
    c = flat_complex(pg, [A])
    sec = flat_section(pg, [A], np.array([1.0, 1.0 + 0j]))
    flat = pg.flatten_field(sec)
    assert np.abs(c.axis_mats[0] @ flat).max() < 1e-12


def test_dual_flat_section_kills_adjoint():
    g = Grid1D.periodic(0.0, 2.0 * math.pi, 16)
    pg = ProductGrid((g,), fiber_dim=2)
    A = 1j * np.diag([1.0, 2.0])
    c = flat_complex(pg, [A])
    dual = dual_flat_section(pg, [A], np.array([1.0, 1.0 + 0j]))
    fd = pg.flatten_field(dual)
    assert np.abs(c.axis_mats[0].conj().T @ fd).max() < 1e-12


# ---------------------------------------------------------------------------
# the dtype follows the axis operators
# ---------------------------------------------------------------------------

def _dtypes(c):
    r = c.grid.ndim
    return ({M.dtype for M in c.axis_mats}
            | {c.d_matrix(k).dtype for k in range(r)}
            | {laplace_hodge(c, k).A.dtype for k in range(r + 1)})


def test_plain_complex_stays_real():
    assert _dtypes(plain_complex(_torus(fiber=2))) == {np.dtype(np.float64)}


def test_complex_generator_keeps_the_complex():
    gens = [np.diag([0.0, 0.7j]), np.zeros((2, 2))]
    assert _dtypes(flat_complex(_torus(fiber=2), gens)) == {np.dtype(np.complex128)}
    # one complex operator, here given as nested lists, promotes the family
    pg = _torus()
    mats = [forward_diff_matrix(pg, 0),
            forward_diff_matrix(pg, 1).astype(complex).tolist()]
    assert _dtypes(GenComplex(pg, mats)) == {np.dtype(np.complex128)}


@pytest.mark.parametrize("shape", [(8, 10), (5, 5, 6)])
@pytest.mark.parametrize("fiber", [1, 2])
def test_real_harmonic_space_matches_complex_cast(shape, fiber):
    pg = ProductGrid(tuple(Grid1D.periodic(0.0, 1.0 + a, n)
                           for a, n in enumerate(shape)), fiber_dim=fiber)
    c = plain_complex(pg)
    cast = GenComplex(pg, [M.astype(complex) for M in c.axis_mats])
    for k in range(pg.ndim + 1):
        real, ref = harmonic_space(c, k), harmonic_space(cast, k)
        assert real.dim == ref.dim == fiber * math.comb(pg.ndim, k)
        s = real.singular_values
        assert np.abs(s - ref.singular_values).max() <= 1e-13 * s.max()
