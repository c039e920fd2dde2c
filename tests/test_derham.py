"""Generalized de Rham complex: nilpotency, harmonic dimensions, the Hodge
decomposition, flat families, and period matrices."""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import (FormField, GenComplex, Grid1D, ProductGrid,
                      SurfaceRegion, d_L, dual_flat_section, expected_betti,
                      flat_complex, flat_dimension, flat_section, form_norm,
                      harmonic_space, hodge_decompose, inner,
                      plain_complex, skrypnik_map)
from delsarte import acceptance, derham
from delsarte.acceptance import torus_rows
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


def _dense_laplacian(c, k):
    """The dense reference Delta_k = d_k' d_k + d_{k-1} d_{k-1}', from the
    complex's dense coboundary matrices."""
    Delta = 0
    if k < c.grid.ndim:
        Delta = c.d_matrix(k).conj().T @ c.d_matrix(k)
    if k > 0:
        Delta = Delta + c.d_matrix(k - 1) @ c.d_matrix(k - 1).conj().T
    return Delta


def _dense_eigh(c, k):
    """Eigenvalue magnitudes and null vectors of the dense Delta_k, by the
    threshold of :func:`harmonic_space`."""
    D = _dense_laplacian(c, k)
    w, V = np.linalg.eigh((D + D.conj().T) / 2.0)
    w = np.abs(w)
    return w, V[:, w <= 1e-8 * max(w.max(), 1e-300)]


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
    # a caller-built complex takes the dense route, and a NaN or infinite
    # entry makes the guard read a NaN residual instead of warning
    pg = _torus(6, 6)
    for bad in (np.nan, np.inf):
        mats = [forward_diff_matrix(pg, a) for a in range(2)]
        mats[0][2, 3] = bad
        with pytest.raises(NonCommutingFamilyError):
            GenComplex(pg, mats)


def test_non_commuting_flat_family_is_rejected_on_the_dense_route():
    # nilpotent generators that do not commute are not diagonal, so the
    # family keeps its dense operators and the guard reads their ||AB - BA||_F
    pg = _torus(6, 5, fiber=2)
    gens = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
    A, B = (forward_diff_matrix(pg, a)
            - np.kron(np.eye(pg.nnodes), derham._matched_generator(g, G.astype(complex)))
            for a, (g, G) in enumerate(zip(pg.axes, gens)))
    dense = np.linalg.norm(A @ B - B @ A)
    with pytest.raises(NonCommutingFamilyError, match=re.escape(f"residual {dense:.3e} ")):
        flat_complex(pg, gens)


@pytest.mark.parametrize("axis", [0, 1])
def test_overflowing_matched_generator_is_named(axis):
    # diag(1e4, 0) on the unit axis of 6 nodes has h A = 1667, and exp(h A)
    # overflows; the complex's guard would only see NaN residuals
    pg = ProductGrid((Grid1D.periodic(0.0, 1.0, 6), Grid1D.periodic(0.0, 1.0, 6)),
                     fiber_dim=2)
    gens = [np.zeros((2, 2)), np.zeros((2, 2))]
    gens[axis] = np.diag([1e4, 0.0])
    for name, call in (("flat_complex", lambda: flat_complex(pg, gens)),
                       ("dual_flat_section",
                        lambda: dual_flat_section(pg, gens, np.ones(2)))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DiscretizationError, match=re.escape(
                    f"{name}: the matched generator of axis {axis} overflows, "
                    f"max |h A| = 1667")):
                call()
    # a large h A whose exponential is representable builds as before
    gens[axis] = np.diag([6 * 30.0, 0.0])
    assert flat_complex(pg, gens).grid is pg


@pytest.mark.parametrize("hA", [300, 400, 700])
def test_matched_generator_whose_square_overflows_is_named(hA):
    # (exp(hA) - 1)/h is finite up to hA = 709, but the Hodge Laplacian
    # squares it: past hA ~ 352 its spaces came back empty with NaN values
    pg = ProductGrid((Grid1D.periodic(0.0, 1.0, 6), Grid1D.periodic(0.0, 1.0, 6)),
                     fiber_dim=2)
    gens = [np.diag([6.0 * hA, 0.0]), np.zeros((2, 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if hA == 300:
            rep = harmonic_space(flat_complex(pg, gens), 1)
            assert rep.dim == 72 and np.all(np.isfinite(rep.singular_values))
            return
        with pytest.raises(DiscretizationError, match=re.escape(
                f"flat_complex: the square of the matched generator of axis 0 "
                f"overflows, max |h A| = {hA}")):
            flat_complex(pg, gens)


@pytest.mark.parametrize("axis", [0, 1])
def test_overflowing_flat_section_step_is_named(axis):
    pg = ProductGrid((Grid1D.periodic(0.0, 1.0, 6), Grid1D.periodic(0.0, 1.0, 6)),
                     fiber_dim=2)
    gens = [np.zeros((2, 2)), np.zeros((2, 2))]
    gens[axis] = np.diag([1e4, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiscretizationError, match=re.escape(
                f"flat_section: the matched generator of axis {axis} overflows, "
                f"max |h A| = 1667")):
            flat_section(pg, gens, np.ones(2))


@pytest.mark.parametrize("degree", [-1, 3, 5])
def test_out_of_range_degree_is_named(degree):
    # forms and coboundaries exist for degrees 0..r only
    pg = _torus(6, 6)
    with pytest.raises(DegreeMismatchError, match=f"degree {degree} out of range"):
        FormField.from_stack(pg, degree, np.zeros(0))
    with pytest.raises(DegreeMismatchError, match=f"degree {degree} out of range"):
        plain_complex(pg).d_matrix(degree)
    with pytest.raises(DegreeMismatchError, match=f"degree {degree} out of range"):
        harmonic_space(plain_complex(pg), degree)


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


@st.composite
def _mixed_tori(draw):
    # sides drawn so no Laplace-Hodge block exceeds 1200 rows
    r = draw(st.integers(2, 3))
    fiber = draw(st.integers(1, 2))
    budget = 1200 // (math.comb(r, r // 2) * fiber)
    shape = []
    for a in range(r):
        hi = min(12, budget // (math.prod(shape) * 5 ** (r - a - 1)))
        shape.append(draw(st.integers(5, hi)))
    axes = tuple(draw(st.sampled_from([Grid1D.periodic, Grid1D.dirichlet]))(
        0.0, draw(st.floats(0.5, 3.0)), n) for n in shape)
    return ProductGrid(axes, fiber)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(pg=_mixed_tori())
def test_harmonic_dims_are_fiber_times_betti(pg):
    # every box takes the factor route, and its spectrum is that of the
    # dense Laplace-Hodge matrix
    c = plain_complex(pg)
    betti = expected_betti(pg)
    for k in range(pg.ndim + 1):
        rep = harmonic_space(c, k)
        assert rep.dim == pg.fiber_dim * betti[k]
        dense = np.sort(np.abs(np.linalg.eigvalsh(_dense_laplacian(c, k))))
        assert np.abs(rep.singular_values - dense).max() <= 1e-13 * dense.max()


def _null_projector(vectors):
    return vectors @ vectors.conj().T


def _dense_harmonic(c, k):
    """The dense reference: null projector and sorted spectrum of Delta_k."""
    w, null = _dense_eigh(c, k)
    return _null_projector(null), np.sort(w)


def _box(shape, boundaries):
    """Axes of lengths 1, 1.5, 2, ... with sides ``shape``; boundary "p" is
    periodic and "d" Dirichlet, one letter per axis."""
    make = {"p": Grid1D.periodic, "d": Grid1D.dirichlet}
    return tuple(make[b](0.0, 1.0 + 0.5 * a, n)
                 for a, (n, b) in enumerate(zip(shape, boundaries)))


_BOXES = [((8, 6), "pp"), ((5, 5, 6), "ppp"), ((6, 5), "dp"), ((5, 6, 5), "ppd")]


def _winding(pg, Q):
    """Fiber component u winds u + 1 times along axis 0 (trivial monodromy
    on a periodic axis), mixed by the unitary Q; the other generators vanish."""
    fiber = pg.fiber_dim
    wind = Q @ np.diag(2j * np.pi * np.arange(1, fiber + 1) / pg.axes[0].length) @ Q.conj().T
    return flat_complex(pg, [wind] + [np.zeros((fiber, fiber))] * (pg.ndim - 1))


def _assert_matches_the_dense_route(c, monkeypatch):
    """Dimensions, null projectors, spectra, gaps and the nilpotency row of
    ``c`` against the dense Laplace-Hodge matrices."""
    pg = c.grid
    betti = expected_betti(pg)
    for k in range(pg.ndim + 1):
        rep = harmonic_space(c, k)
        proj, spectrum = _dense_harmonic(c, k)
        assert rep.dim == pg.fiber_dim * betti[k]
        assert np.abs(_null_projector(rep.basis) - proj).max() <= 1e-10
        assert np.abs(rep.singular_values - spectrum).max() <= 1e-13 * spectrum.max()
        # the gap is read against the threshold, so it is finite and the
        # same on both routes although some blocks have exact zeros
        retained = spectrum[spectrum > 1e-8 * spectrum.max()]
        assert rep.gap == pytest.approx(retained.min() / (1e-8 * spectrum.max()), rel=1e-10)
        assert 1e4 < rep.gap < np.inf
    # the nilpotency row, read from the blocks, is the dense one; a twisted
    # complex has no constant closed forms and a Dirichlet axis no loops, so
    # the period row is stubbed out
    d1, d0 = c.d_matrix(1), c.d_matrix(0)
    dense = np.linalg.norm(d1 @ d0) / (np.linalg.norm(d1) * np.linalg.norm(d0))
    monkeypatch.setattr(acceptance.SurfaceRegion, "axis_loop", lambda *args: None)
    monkeypatch.setattr(acceptance, "skrypnik_map", lambda c, *args: np.eye(c.grid.ndim))
    row = torus_rows(c)[0][0]
    assert row["name"] == "d_squared_zero"
    assert abs(row["value"] - dense) <= 1e-15


@pytest.mark.parametrize("shape", _BOXES)
@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("twist", ["plain", "winding"])
def test_per_mode_route_matches_the_dense_route(shape, fiber, twist, monkeypatch):
    # the factor route of plain and diagonal flat complexes against the
    # dense route, on tori and on Dirichlet and mixed boxes
    pg = ProductGrid(_box(*shape), fiber_dim=fiber)
    c = plain_complex(pg) if twist == "plain" else _winding(pg, np.eye(fiber))
    assert c._factors is not None
    _assert_matches_the_dense_route(c, monkeypatch)
    basis = harmonic_space(c, 0).basis
    if twist == "winding" and basis.size:
        # no harmonic zero-form is constant along the fiber
        assert np.abs(basis.reshape(pg.nnodes, fiber, -1).sum(axis=0)).max() <= 1e-10


@pytest.mark.parametrize("shape", [((8, 6), "pp"), ((6, 5), "dp")])
def test_mixed_winding_takes_the_dense_route(shape, monkeypatch):
    # a fixed unitary leaves the winding generator non-diagonal, so the
    # family keeps its dense operators
    pg = ProductGrid(_box(*shape), fiber_dim=2)
    Q = np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0]]))[0]
    c = _winding(pg, Q)
    assert c._factors is None
    _assert_matches_the_dense_route(c, monkeypatch)


@pytest.mark.parametrize("shape", [((8, 6), "pp"), ((5, 5, 6), "ppp"), ((7, 6), "dp")])
def test_per_mode_route_with_no_harmonic_forms(shape):
    # a real generator gives the flat sections a monodromy exp(0.7 T) != 1
    # on a periodic axis, and a Dirichlet axis kills everything: no block
    # is null, and every degree reports dimension 0
    pg = ProductGrid(_box(*shape), fiber_dim=1)
    c = flat_complex(pg, [np.diag([0.7])] * pg.ndim)
    assert c._factors is not None
    for k in range(pg.ndim + 1):
        rep = harmonic_space(c, k)
        proj, spectrum = _dense_harmonic(c, k)
        assert rep.dim == 0 and not proj.any()
        assert rep.basis.shape == (math.comb(pg.ndim, k) * pg.total_dim, 0)
        assert np.abs(rep.singular_values - spectrum).max() <= 1e-13 * spectrum.max()


@pytest.mark.parametrize("boundaries", ["pp", "dp", "pd", "dd"])
@pytest.mark.parametrize("fiber", [1, 2])
def test_separable_complexes_build_factor_blocks(boundaries, fiber):
    # plain and diagonal flat complexes keep their 1-D factors on every box:
    # one 1 x 1 block per node and fiber component, holding a singular value
    # of the axis factor D_a - alpha 1
    pg = ProductGrid(_box((6, 5), boundaries), fiber_dim=fiber)
    gens = [np.diag([0.0, 0.7][:fiber]), np.diag([0.31, 0.0][:fiber])]
    for c in (plain_complex(pg), flat_complex(pg, gens)):
        for a, (B, blocks) in enumerate(zip(c._factors, c._blocks)):
            # the factors, lifted to the nodes and the fiber, are the dense
            # axis operators entry for entry
            lift = sum(np.kron(np.kron(np.kron(np.eye(math.prod(pg.shape[:a])), B[u]),
                                       np.eye(math.prod(pg.shape[a + 1:]))),
                               np.diag(np.eye(fiber)[u]))
                       for u in range(fiber))
            assert np.array_equal(lift, c.axis_mats[a])
            assert blocks.shape == (pg.total_dim, 1, 1)
            per_axis = np.moveaxis(blocks.reshape(pg.shape + (fiber,)), a, 0)
            for u in range(fiber):
                s = np.linalg.svd(B[u], compute_uv=False)
                assert np.allclose(per_axis[..., u].reshape(pg.shape[a], -1).T, s,
                                   rtol=1e-14, atol=0.0)


def test_non_invariant_family_takes_the_dense_route():
    # a plain family conjugated by a fixed orthogonal matrix, built by the
    # caller: it has no factors, the dense route runs, and the unitarily
    # equivalent Laplacians keep dimensions and spectra
    pg = _torus(6, 5)
    plain = plain_complex(pg)
    Q = np.linalg.qr(np.random.default_rng(11).standard_normal((pg.total_dim,) * 2))[0]
    c = GenComplex(pg, [Q @ M @ Q.T for M in plain.axis_mats])
    assert plain._factors is not None and c._factors is None
    for k in range(3):
        rep, ref = harmonic_space(c, k), harmonic_space(plain, k)
        assert rep.dim == ref.dim == (1, 2, 1)[k]
        s = ref.singular_values
        assert np.abs(rep.singular_values - s).max() <= 1e-13 * s.max()
        assert np.isrealobj(rep.basis) and np.isrealobj(ref.basis)
        # the single dense block keeps the bits of the dense reference
        w, null = _dense_eigh(c, k)
        assert rep.singular_values.tobytes() == np.sort(w).tobytes()
        assert rep.basis.dtype == null.dtype and rep.basis.tobytes() == null.tobytes()


# ---------------------------------------------------------------------------
# the axis-wise differential of a separable complex
# ---------------------------------------------------------------------------

@st.composite
def _separable_complexes(draw):
    # a 3-axis box draws sides 5-7 so that its dense degree-1 coboundary, the
    # reference, stays under 70 MB; fewer axes draw sides 5-9
    r = draw(st.integers(1, 3))
    hi = 7 if r == 3 else 9
    shape = [draw(st.integers(5, hi)) for _ in range(r)]
    pg = ProductGrid(_box(shape, [draw(st.sampled_from("pd")) for _ in range(r)]),
                     fiber_dim=draw(st.integers(1, 2)))
    if draw(st.booleans()):
        return plain_complex(pg)
    part = st.floats(-2.0, 2.0)
    gens = [np.diag([complex(draw(part), draw(part)) for _ in range(pg.fiber_dim)])
            for _ in range(r)]
    return flat_complex(pg, gens)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(c=_separable_complexes(), data=st.data())
def test_axis_wise_d_L_matches_the_dense_coboundary(c, data):
    # plain and diagonal flat complexes on 1-3 axes, every boundary mix,
    # fiber 1 and 2, real and complex forms of every degree below the top
    pg, r = c.grid, c.grid.ndim
    assert c._factors is not None
    k = data.draw(st.integers(0, r - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shp = pg.shape + (pg.fiber_dim,)
    part = lambda: rng.standard_normal(shp)
    real = data.draw(st.booleans())
    beta = FormField(pg, k, {S: part() if real else part() + 1j * part()
                             for S in derham._subsets(r, k)})
    got = d_L(c, beta)
    assert got.degree == k + 1
    # the dense reference is a densify step, built only on demand
    assert "axis_mats" not in vars(c) and not c._dmats
    D, v = c.d_matrix(k), beta.stack()
    assert got.stack().dtype == np.result_type(D, v)
    # the error scale of the dense product, |D| |v|
    scale = np.linalg.norm(np.abs(D) @ np.abs(v))
    assert np.linalg.norm(got.stack() - D @ v) <= 1e-14 * scale
    if k + 1 < r:
        # d_L d_L = 0 up to the roundoff of the two orders of differencing
        bound = sum(np.abs(B).sum(axis=-1).max() for B in c._factors)
        assert form_norm(d_L(c, got)) <= 1e-14 * bound ** 2 * form_norm(beta)


def test_separable_complexes_hold_no_square_array(traced_peak):
    # construction and the four derham rows of the 7^3 torus: the factors
    # and the 1 x 1 blocks only (12.4 MB traced while the complex held three
    # dense 343 x 343 operators and skrypnik_map the 1029 x 1029 coboundary)
    def check():
        c = acceptance.torus_complex((7, 7, 7), (1.3, 2.1, 0.7))
        return c, torus_rows(c)
    (c, (rows, out)), peak = traced_peak(check)
    assert all(row["passed"] for row in rows)
    assert [h["dim"] for h in out["harmonic"]] == [1, 3, 3, 1]
    assert "axis_mats" not in vars(c) and not c._dmats
    assert peak <= 1e6


def test_32_cube_torus_rows_run_in_seconds():
    # each dense axis operator of this box would take 8.6 GB
    start = time.perf_counter()
    rows, out = torus_rows(acceptance.torus_complex((32, 32, 32), (1.3, 2.1, 0.7)))
    assert time.perf_counter() - start < 5.0
    assert [row["name"] for row in rows] == ["d_squared_zero", "harmonic_dims_match_betti",
                                             "harmonic_gap", "period_matrix_vs_axis_periods"]
    assert all(row["passed"] for row in rows)
    assert [h["dim"] for h in out["harmonic"]] == [1, 3, 3, 1]


def test_32_cube_harmonic_dimensions():
    # a Dirichlet axis kills every class (fiber x Betti = 0); the fiber-2
    # diagonal flat torus keeps flat_dimension x Betti
    box = ProductGrid(_box((32, 32, 32), "dpp"), fiber_dim=2)
    c = plain_complex(box)
    assert expected_betti(box) == (0, 0, 0, 0)
    assert [harmonic_space(c, k).dim for k in range(4)] == [0, 0, 0, 0]
    torus = ProductGrid(_box((32, 32, 32), "ppp"), fiber_dim=2)
    gens = [np.diag([0.0, 0.7]), np.diag([0.0, 0.31]), np.diag([0.0, -0.45])]
    c = flat_complex(torus, gens)
    assert c._factors is not None and flat_dimension(gens) == 1
    betti = expected_betti(torus)
    for k in range(4):
        rep = harmonic_space(c, k)
        assert rep.dim == betti[k] and not rep.ambiguous


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


@pytest.mark.parametrize("gens", [[np.zeros((2, 3))] * 2,
                                  [np.zeros((2, 2)), np.zeros((3, 3))],
                                  [np.zeros(2)] * 2,
                                  [np.diag([np.inf, 0.0]), np.zeros((2, 2))],
                                  [np.zeros((2, 2)), np.diag([np.nan, 0.0])]])
def test_generators_are_checked_once(gens):
    # flat_dimension took the rows of a (2, 3) generator for a kernel of 2;
    # an infinite generator warned in expm, and flat_section passed a NaN
    pg = _torus(5, 6, fiber=2)
    shapes = str([np.shape(A) for A in gens])
    calls = {"flat_dimension": lambda: flat_dimension(gens),
             "flat_complex": lambda: flat_complex(pg, gens),
             "flat_section": lambda: flat_section(pg, gens, np.ones(2)),
             "dual_flat_section": lambda: dual_flat_section(pg, gens, np.ones(2))}
    for name, call in calls.items():
        with pytest.raises(DiscretizationError) as err:
            call()
        assert str(err.value).startswith(name + " ") and shapes in str(err.value), \
            str(err.value)


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
# Hodge decomposition
# ---------------------------------------------------------------------------

def test_hodge_decomposition_orthogonal_and_complete():
    pg = _torus()
    c = plain_complex(pg)
    rng = np.random.default_rng(6)
    # dt_1 is closed but not exact: it has a nonzero loop period, so it is
    # its own harmonic part
    dt1 = FormField(pg, 1, {(0,): np.ones(pg.shape + (1,)),
                            (1,): np.zeros(pg.shape + (1,))})
    Delta = _dense_laplacian(c, 1)
    for beta in (_random_form(pg, 1, rng, [(0,), (1,)]), dt1):
        h, e, co = hodge_decompose(c, beta)
        parts = [p.stack() for p in (h, e, co)]
        scale = inner(pg, beta.stack(), beta.stack()).real
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(inner(pg, parts[i], parts[j])) < 1e-10 * scale
        np.testing.assert_allclose(sum(parts), beta.stack(), atol=1e-10)
        # the harmonic part is killed by the Laplacian
        assert np.abs(Delta @ parts[0]).max() < 1e-10
    np.testing.assert_allclose(parts[0], dt1.stack(), atol=1e-10)


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


@pytest.mark.parametrize("case", ["from_stack", "d_L", "d_L_transposed", "skrypnik_map"])
def test_bad_shapes_name_both(case):
    # the message names both shapes; a transposed grid has the right size
    # but the wrong layout, so d_L compares grid shapes, not lengths
    pg = _torus(6, 8)
    c = plain_complex(pg)
    loop = [SurfaceRegion.axis_loop(pg, 0, (0, 0))]
    calls = {
        "from_stack": (lambda: FormField.from_stack(pg, 1, np.zeros(95)),
                       ("(95,)", "(96,)")),
        "d_L": (lambda: d_L(c, FormField(_torus(6, 6), 0)), ("(6, 6, 1)", "(6, 8, 1)")),
        "d_L_transposed": (lambda: d_L(c, FormField(_torus(8, 6), 1)),
                           ("(8, 6, 1)", "(6, 8, 1)")),
        "skrypnik_map": (lambda: skrypnik_map(c, np.ones(47), [FormField(pg, 1)], loop),
                         ("(47,)", "(6, 8, 1)")),
    }
    call, shapes = calls[case]
    with pytest.raises(DiscretizationError) as err:
        call()
    assert all(s in str(err.value) for s in shapes), str(err.value)


# ---------------------------------------------------------------------------
# flat sections
# ---------------------------------------------------------------------------

def _flat_tori():
    """A circle, an 8x8 and a 5x6x7 torus of period 2 pi with fiber 2, each
    with monodromy-trivial generators (exp(2 pi A) = 1 on every axis), so
    the wrap rows close too."""
    gens = [1j * np.diag([1.0, 2.0]), 1j * np.diag([-1.0, 1.0]),
            1j * np.diag([2.0, 0.0])]
    for shape in ((16,), (8, 8), (5, 6, 7)):
        axes = tuple(Grid1D.periodic(0.0, 2.0 * math.pi, n) for n in shape)
        yield ProductGrid(axes, fiber_dim=2), gens[:len(shape)]


def test_flat_section_lies_in_kernel():
    for pg, gens in _flat_tori():
        c = flat_complex(pg, gens)
        flat = pg.flatten_field(flat_section(pg, gens, np.array([1.0, 1.0 + 0j])))
        for M in c.axis_mats:
            assert np.abs(M @ flat).max() < 1e-12


@pytest.mark.parametrize("section", [flat_section, dual_flat_section])
def test_flat_section_needs_one_generator_per_axis(section):
    pg, gens = list(_flat_tori())[1]
    with pytest.raises(DiscretizationError, match=r"needs 2 generators.*\[\(2, 2\)\]"):
        section(pg, gens[:1], np.ones(2))
    with pytest.raises(DiscretizationError, match=r"got .* and \(3,\)"):
        section(pg, gens, np.ones(3))
    with pytest.raises(DiscretizationError, match=r"got \[\(3, 3\), \(2, 2\)\]"):
        section(pg, [np.zeros((3, 3)), gens[1]], np.ones(2))


def test_dual_flat_section_kills_adjoint():
    for pg, gens in _flat_tori():
        c = flat_complex(pg, gens)
        fd = pg.flatten_field(dual_flat_section(pg, gens, np.array([1.0, 1.0 + 0j])))
        for M in c.axis_mats:
            assert np.abs(M.conj().T @ fd).max() < 1e-12


# ---------------------------------------------------------------------------
# the dtype follows the axis operators
# ---------------------------------------------------------------------------

def _dtypes(c):
    r = c.grid.ndim
    return ({M.dtype for M in c.axis_mats}
            | {c.d_matrix(k).dtype for k in range(r)}
            | {_dense_laplacian(c, k).dtype for k in range(r + 1)})


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
