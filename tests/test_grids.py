"""Grid and stencil layer: frozen stencil weights, exact eigenvalues,
convergence orders, and the formal adjoint."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delsarte import (DiffOp, DiscretizationError, Grid1D, GridError,
                      ProductGrid, adjoint_defect, commutator,
                      derivative_matrix, discretize, formal_adjoint, inner)
from delsarte import acceptance, grid_ops
from delsarte.grid_ops import (_band_matvec, _is_hermitian, _operator_product,
                               _upper_band, fd_weights, stencil_half_width)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_dirichlet_grid_geometry():
    g = Grid1D.dirichlet(0.0, 1.0, 9)
    assert g.h == pytest.approx(0.1)
    # interior nodes only; endpoints are eliminated
    np.testing.assert_allclose(g.x, 0.1 * np.arange(1, 10))


def test_periodic_grid_geometry():
    g = Grid1D.periodic(0.0, 2.0, 8)
    assert g.h == pytest.approx(0.25)
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(2.0 - 0.25)


def test_grid_rejects_bad_input():
    with pytest.raises(GridError):
        Grid1D.dirichlet(0.0, 1.0, 3)     # too few unknowns
    with pytest.raises(GridError):
        Grid1D.periodic(1.0, 1.0, 8)      # empty interval
    with pytest.raises(GridError):
        Grid1D(0.0, 1.0, 8, "neumann")


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)])
def test_grid_rejects_non_finite_endpoint(a, b):
    with pytest.raises(GridError, match="non-finite endpoint"):
        Grid1D.dirichlet(a, b, 8)


def test_product_grid_bookkeeping():
    pg = ProductGrid((Grid1D.periodic(0, 1, 6), Grid1D.dirichlet(0, 1, 5)), 2)
    assert pg.shape == (6, 5)
    assert pg.total_dim == 60
    assert pg.vol == pytest.approx((1 / 6) * (1 / 6))
    v = np.arange(60.0)
    np.testing.assert_array_equal(pg.flatten_field(pg.unflatten_field(v)), v)


# ---------------------------------------------------------------------------
# stencil weights (frozen Fornberg values)
# ---------------------------------------------------------------------------

def test_centered_first_derivative_weights():
    w = fd_weights(np.array([-1.0, 0.0, 1.0]), 0.0, 1)
    np.testing.assert_allclose(w, [-0.5, 0.0, 0.5], atol=1e-15)


def test_centered_second_derivative_weights_order4():
    w = fd_weights(np.arange(-2.0, 3.0), 0.0, 2)
    np.testing.assert_allclose(
        w, [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], atol=1e-14)


def test_one_sided_first_derivative_weights():
    # forward 3-point: [-3/2, 2, -1/2]
    w = fd_weights(np.array([0.0, 1.0, 2.0]), 0.0, 1)
    np.testing.assert_allclose(w, [-1.5, 2.0, -0.5], atol=1e-15)


def test_stencil_half_width():
    assert stencil_half_width(1, 2) == 1
    assert stencil_half_width(2, 2) == 1
    assert stencil_half_width(2, 4) == 2
    assert stencil_half_width(4, 2) == 2


_BOUNDARY = {"dirichlet": Grid1D.dirichlet, "periodic": Grid1D.periodic}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(9, 400), a=st.integers(6, 20),
       kinds=st.tuples(*[st.sampled_from(sorted(_BOUNDARY))] * 2),
       scheme_order=st.sampled_from([2, 4]), ny=st.integers(9, 24))
def test_real_even_order_operators_are_exactly_symmetric(n, a, kinds, scheme_order, ny):
    """Centered weights are exact mirror images (``fd_weights`` mirrors
    them on nodes symmetric about x0), so every real even-order operator of
    constant leading coefficients plus a real potential assembles to a
    matrix equal to its transpose, bit for bit: -d^2 + q on [-a, a], and a
    2-D operator with mixed d_x d_y and fourth-order terms."""
    gx = _BOUNDARY[kinds[0]](-a, a, n)
    schrodinger = DiffOp(ProductGrid.line(gx), {(2,): -1.0, (0,): -2.0 / np.cosh(gx.x) ** 2})
    g2 = ProductGrid((_BOUNDARY[kinds[0]](-a, a, ny + 3), _BOUNDARY[kinds[1]](0.0, a, ny)))
    X, Y = np.meshgrid(g2.axes[0].x, g2.axes[1].x, indexing="ij")
    mixed = DiffOp(g2, {(2, 0): -1.0, (0, 2): -1.3, (1, 1): 0.7, (4, 0): 0.2,
                        (0, 4): 0.1, (0, 0): np.sin(X) * np.cos(Y)})
    for op in (schrodinger, mixed):
        A = discretize(op, scheme_order).A
        assert np.array_equal(A, A.T)


# ---------------------------------------------------------------------------
# derivative matrices
# ---------------------------------------------------------------------------

def test_dirichlet_laplacian_eigenvalues_exact():
    """-D2 on the Dirichlet grid has the classical closed-form spectrum."""
    n = 12
    g = Grid1D.dirichlet(0.0, 1.0, n)
    A = -derivative_matrix(g, 2)
    w = np.sort(np.linalg.eigvalsh(A))
    k = np.arange(1, n + 1)
    exact = (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / g.h ** 2
    np.testing.assert_allclose(w, np.sort(exact), rtol=1e-13)


def test_periodic_first_derivative_is_circulant():
    g = Grid1D.periodic(0.0, 1.0, 7)
    D = derivative_matrix(g, 1)
    for k in range(1, 7):
        np.testing.assert_array_equal(D, np.roll(np.roll(D, k, 0), k, 1))
    np.testing.assert_allclose(D @ np.ones(7), 0.0, atol=1e-13)


def test_derivative_convergence_orders():
    for p in (2, 4):
        errs = []
        for n in (32, 64, 128):
            g = Grid1D.periodic(0.0, 2 * np.pi, n)
            D = derivative_matrix(g, 1, scheme_order=p)
            errs.append(np.abs(D @ np.sin(g.x) - np.cos(g.x)).max())
        slope = np.polyfit(np.log([32, 64, 128]), np.log(errs), 1)[0]
        assert -slope > p - 0.2, f"order-{p} stencil converged at {-slope:.2f}"


def test_one_sided_edges_exact_on_polynomials():
    g = Grid1D.dirichlet(0.0, 1.0, 10)
    D = derivative_matrix(g, 1, one_sided_edges=True)
    f = g.x ** 2
    np.testing.assert_allclose(D @ f, 2 * g.x, atol=1e-12)


def test_small_grid_rejected():
    # d^4 at order 4 needs a 7-point window; 5 nodes cannot host it
    g = Grid1D.periodic(0.0, 1.0, 5)
    with pytest.raises(DiscretizationError):
        derivative_matrix(g, 4, scheme_order=4)


# ---------------------------------------------------------------------------
# DiffOp assembly and the formal adjoint
# ---------------------------------------------------------------------------

def _line(n=40, kind="periodic", length=2 * np.pi):
    g = (Grid1D.periodic if kind == "periodic" else Grid1D.dirichlet)(0.0, length, n)
    return ProductGrid.line(g)


def test_discretize_constant_coefficient():
    pg = _line()
    op = DiffOp(pg, {(2,): -1.0})
    A = discretize(op)
    D2 = derivative_matrix(pg.axes[0], 2)
    np.testing.assert_allclose(A.A, -D2, atol=1e-15)


def test_first_derivative_formal_adjoint_is_negative():
    pg = _line()
    op = DiffOp(pg, {(1,): 1.0})
    A = discretize(op).A
    B = discretize(formal_adjoint(op)).A
    np.testing.assert_allclose(B, -A, atol=1e-14)


def test_adjoint_matches_leibniz_expansion():
    # (a d/dx)* = -a d/dx - a'
    pg = _line(64)
    x = pg.axes[0].x
    a = np.exp(np.sin(x))
    op = DiffOp(pg, {(1,): a.astype(complex)})
    adj = formal_adjoint(op)
    np.testing.assert_allclose(adj.terms[(1,)][..., 0, 0], -a, atol=1e-13)
    # zeroth coefficient is -a' up to the O(h^2) error of the coefficient rule
    aprime = np.cos(x) * a
    np.testing.assert_allclose(adj.terms[(0,)][..., 0, 0], -aprime, atol=1e-2)


def test_adjoint_involution_exact_for_polynomial_coeffs():
    # stencil derivatives of quadratics are exact, so ** is an involution here
    pg = _line(20, "dirichlet", 1.0)
    x = pg.axes[0].x
    op = DiffOp(pg, {(2,): (x ** 2 + 1.0).astype(complex), (0,): x.astype(complex)})
    back = formal_adjoint(formal_adjoint(op))
    for alpha in op.terms:
        np.testing.assert_allclose(back.terms[alpha], op.terms[alpha], atol=1e-10)


def test_self_adjoint_operator_has_zero_defect():
    pg = _line(50)
    x = pg.axes[0].x
    op = DiffOp(pg, {(2,): -1.0, (0,): np.cos(x).astype(complex)})
    assert adjoint_defect(op) < 1e-14


def test_adjoint_defect_converges_for_variable_leading_coeff():
    errs = []
    for n in (50, 100, 200):
        pg = _line(n)
        x = pg.axes[0].x
        op = DiffOp(pg, {(2,): np.exp(np.sin(x)).astype(complex)})
        errs.append(adjoint_defect(op))
    slope = np.polyfit(np.log([50, 100, 200]), np.log(errs), 1)[0]
    assert -slope > 1.8


def test_matrix_coefficient_discretization():
    pg = ProductGrid.line(Grid1D.periodic(0.0, 1.0, 8), fiber_dim=2)
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = DiffOp(pg, {(0,): C})
    A = discretize(op).A
    v = np.zeros(16)
    v[0] = 1.0  # first node, first fiber component
    out = A @ v
    assert out[1] == pytest.approx(1.0)
    assert out[0] == pytest.approx(0.0)


def test_bandwidth_metadata_and_composition():
    # the band is read from the nonzeros: the 3-point stencil has
    # half-bandwidth 1 on a Dirichlet line, and the periodic wrap entries
    # make the band of a periodic line full
    for kind, rows in (("dirichlet", 2), ("periodic", 32)):
        A = discretize(DiffOp(_line(32, kind), {(2,): -1.0}))
        assert A.to_banded().shape == (rows, 32)


def test_banded_round_trip():
    # to_banded packs the assembled stencil matrix; unpacking its diagonals
    # (and their conjugates below) gives the matrix back
    A = discretize(DiffOp(_line(16, "dirichlet"), {(2,): -1.0, (0,): 1.0}))
    ab = A.to_banded()
    assert ab.shape == (2, 16)
    for d in range(2):
        np.testing.assert_array_equal(ab[1 - d, d:], np.diagonal(A.A, offset=d))
    back = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:].conj(), -1)
    np.testing.assert_array_equal(back, A.A)


@st.composite
def _hermitian_band_matrices(draw):
    """Hermitian matrices with small-integer entries (so every product is
    exact) on each diagonal up to a drawn half-bandwidth, optionally with a
    periodic corner pair and zero rows (with their columns)."""
    n = draw(st.integers(1, 12))
    bw = draw(st.integers(0, n - 1))
    cplx = draw(st.booleans())
    M = np.zeros((n, n), dtype=complex if cplx else float)
    entries = st.integers(-4, 4)
    for d in range(bw + 1):
        diag = np.array(draw(st.lists(entries, min_size=n - d, max_size=n - d)), M.dtype)
        if cplx and d > 0:
            diag += 1j * np.array(draw(st.lists(entries, min_size=n - d, max_size=n - d)))
        M[np.arange(n - d), np.arange(d, n)] = diag
    if n > 2 and draw(st.booleans()):
        M[0, n - 1] = draw(st.integers(1, 4))
    M = np.triu(M) + np.triu(M, 1).conj().T
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        M[k, :] = 0.0
        M[:, k] = 0.0
    return M


def _fixed_band_inputs():
    """A dense non-normal matrix and a tridiagonal one with a shifted
    superdiagonal, both made Hermitian, the 3-point stencil, and the zero
    matrix."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 12)) + 0.2j * rng.standard_normal((12, 12))
    T = -derivative_matrix(Grid1D.dirichlet(0.0, np.pi, 29), 2) + np.diag(np.full(28, 3.0), 1)
    return (A + A.conj().T, T + T.T,
            -derivative_matrix(Grid1D.dirichlet(0.0, 1.0, 16), 2), np.zeros((5, 5)))


_DENSE, _TRIDIAGONAL, _STENCIL, _ZERO = _fixed_band_inputs()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(M=_hermitian_band_matrices(), seed=st.integers(0, 2 ** 32 - 1))
@example(M=_DENSE, seed=1)
@example(M=_TRIDIAGONAL, seed=2)
@example(M=_STENCIL, seed=3)
@example(M=_ZERO, seed=4)
def test_band_helpers_match_dense_matrix(M, seed):
    """``_upper_band`` holds exactly the diagonals up to the farthest
    nonzero one, ``eig_banded`` on it gives the dense spectrum, and
    ``_band_matvec`` gives the dense product, for vectors and blocks."""
    n = M.shape[0]
    rows, cols = np.nonzero(M)
    bw = int(np.max(np.abs(cols - rows), initial=0))
    ab = _upper_band(M)
    assert ab.shape == (bw + 1, n) and ab.dtype == M.dtype
    assert _is_hermitian(M, ab)
    back = np.zeros_like(M)
    for d in range(bw + 1):
        np.testing.assert_array_equal(ab[bw - d, d:], np.diagonal(M, d))
        back += np.diag(ab[bw - d, d:], d)
        if d:
            back += np.diag(ab[bw - d, d:].conj(), -d)
    np.testing.assert_array_equal(back, M)
    dense = scipy.linalg.eigvalsh(M)
    banded = scipy.linalg.eig_banded(ab, eigvals_only=True)
    np.testing.assert_allclose(banded, dense, rtol=0.0,
                               atol=1e-12 * max(np.max(np.abs(dense)), 1.0))
    rng = np.random.default_rng(seed)
    V = rng.integers(-4, 5, (n, 3)).astype(float)
    if seed % 2:
        V = V + 1j * rng.integers(-4, 5, (n, 3))
    np.testing.assert_allclose(_band_matvec(ab, V), M @ V, rtol=1e-13)
    np.testing.assert_allclose(_band_matvec(ab, V[:, 0]), M @ V[:, 0], rtol=1e-13)


def _counting_band_products(monkeypatch):
    """Count the calls of ``_band_matvec`` made by ``_operator_product``."""
    calls = []

    def counted(ab, V):
        calls.append(ab.shape)
        return _band_matvec(ab, V)

    monkeypatch.setattr(grid_ops, "_band_matvec", counted)
    return calls


def _tridiagonal(n, rng, complex_):
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    if complex_:
        e = e + 1j * rng.standard_normal(n - 1)
    return np.diag(d) + np.diag(e, 1) + np.diag(e.conj(), -1)


def test_hermitian_test_reads_the_band():
    """``_is_hermitian`` on the band decides as the dense tests do:
    ``np.array_equal(A, A^H)`` at atol 0 and ``np.allclose`` at 1e-14
    ||A||_inf, for an exact and a slightly asymmetric tridiagonal matrix, a
    stencil, a triangular, a general and a complex Hermitian matrix, and an
    imaginary diagonal."""
    rng = np.random.default_rng(11)
    n = 30
    T = _tridiagonal(n, rng, False)
    nudged = T.copy()
    nudged[4, 5] += 1e-15 * np.max(np.abs(T))
    # the stencil is exactly symmetric: fd_weights mirrors centered weights
    stencil = -derivative_matrix(Grid1D.dirichlet(0.0, 1.0, n), 2)
    G = rng.standard_normal((n, n))
    H = G + 1j * rng.standard_normal((n, n))
    cases = [T, nudged, stencil, np.triu(G), G, H + H.conj().T, np.diag(np.full(n, 1j))]
    decisions = []
    for A in cases:
        ab = _upper_band(A)
        atol = 1e-14 * np.linalg.norm(A, np.inf)
        assert _is_hermitian(A, ab) == np.array_equal(A, A.conj().T)
        assert _is_hermitian(A, ab, atol) == np.allclose(A, A.conj().T, rtol=0.0, atol=atol)
        decisions.append((_is_hermitian(A, ab), _is_hermitian(A, ab, atol)))
    assert decisions == [(True, True), (False, True), (True, True), (False, False),
                         (False, False), (True, True), (False, False)]


@pytest.mark.parametrize("complex_", [False, True])
def test_operator_product_runs_on_the_band_of_hermitian_operators(complex_, monkeypatch):
    """A @ X and X @ A for a Hermitian tridiagonal A take the band route
    and agree with the dense products to a few ulps of |A| |X|."""
    calls = _counting_band_products(monkeypatch)
    rng = np.random.default_rng(5)
    n = 40
    A = _tridiagonal(n, rng, complex_)
    eps = np.finfo(float).eps
    for X in (rng.standard_normal((n, n)),
              rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
        for got, want, bound in (
                (_operator_product(A, X), A @ X, np.abs(A) @ np.abs(X)),
                (_operator_product(A, X, right=True), X @ A, np.abs(X) @ np.abs(A))):
            assert got.dtype == want.dtype
            assert np.all(np.abs(got - want) <= 4 * eps * bound)
    assert calls == [(2, n)] * 4


def test_operator_product_keeps_the_dense_route_otherwise(monkeypatch):
    """Non-Hermitian, periodic (full band) and dense operators, and a band
    wider than ``_BAND_PRODUCT_WIDTH``, give the dense products bit for bit."""
    calls = _counting_band_products(monkeypatch)
    rng = np.random.default_rng(6)
    n = 24
    X = rng.standard_normal((n, n))
    upwind = np.diag(np.ones(n)) - np.diag(np.ones(n - 1), -1)
    periodic = discretize(DiffOp(ProductGrid.line(Grid1D.periodic(0.0, 1.0, n)),
                                 {(2,): -1.0})).A
    dense = rng.standard_normal((n, n))
    dense = dense + dense.T
    w = grid_ops._BAND_PRODUCT_WIDTH + 1
    wide = np.triu(np.tril(dense, w), -w)
    assert np.array_equal(periodic, periodic.T)
    for A in (upwind, periodic, dense, wide):
        assert (_upper_band(A, grid_ops._BAND_PRODUCT_WIDTH) is None) == (A is not upwind)
        assert _operator_product(A, X).tobytes() == (A @ X).tobytes()
        assert _operator_product(A, X, right=True).tobytes() == (X @ A).tobytes()
    assert calls == []


def test_pair_conjugation_takes_the_band_route_on_every_grid(monkeypatch):
    """The free and dressed operators on [-8, 8] are exactly symmetric at
    n = 599 as at n = 600, so the pair check multiplies through their band
    equally often on both."""
    calls = _counting_band_products(monkeypatch)
    counts = []
    for n in (599, 600):
        base, dressed = acceptance.soliton_pair((-8.0, 8.0), n)
        del calls[:]
        acceptance.pair_conjugation_rows(base.matrix().A, dressed.operator, base.grid)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_commutator_with_position_is_neighbor_averaging():
    """[D1, x] under the centered stencil averages the two neighbors.

    Continuum heuristics would say identity; the discrete bracket is the
    exact neighbor mean, which the assertions freeze.
    """
    n = 30
    g = Grid1D.dirichlet(0.0, 1.0, n)
    pg = ProductGrid.line(g)
    D = discretize(DiffOp(pg, {(1,): 1.0}))
    X = discretize(DiffOp(pg, {(0,): g.x.astype(complex)}))
    C = commutator(D, X)
    S = np.zeros((n, n))
    idx = np.arange(n - 1)
    S[idx, idx + 1] = 0.5
    S[idx + 1, idx] = 0.5
    np.testing.assert_allclose(C, S, atol=1e-13)


def test_inner_product_weights():
    g = Grid1D.periodic(0.0, 2 * np.pi, 64)
    pg = ProductGrid.line(g)
    f = np.sin(g.x)
    # ||sin||^2 over one period = pi
    assert inner(pg, f, f).real == pytest.approx(np.pi, rel=1e-12)


def test_diffop_rejects_nonsense():
    pg = _line(12)
    with pytest.raises(DiscretizationError):
        DiffOp(pg, {(1, 1): 1.0})          # wrong arity
    with pytest.raises(DiscretizationError):
        DiffOp(pg, {(1,): np.array([np.inf])})


# ---------------------------------------------------------------------------
# diagonal assembly against the dense Kronecker formula
# ---------------------------------------------------------------------------

def _kron_derivative_matrix(grid, order, scheme_order, one_sided_edges=False):
    """Reference: the dense per-row stencil loop, periodic rows as rolled
    identities."""
    n, h = grid.n, grid.h
    if order == 0:
        return np.eye(n)
    w = stencil_half_width(order, scheme_order)
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
                if 0 <= i + k < n:
                    A[i, i + k] = wt
    return A


def _kron_discretize(op, scheme_order):
    """Reference: M[a_alpha] . D^alpha with D^alpha the matrix product of
    dense Kronecker lifts I x ... x D1 x ... x I x I_N, in the terms' dtype."""
    grid = op.grid
    N, nn, M = grid.fiber_dim, grid.nnodes, grid.total_dim
    A = np.zeros((M, M), dtype=np.result_type(*op.terms.values()))
    for alpha, coeff in sorted(op.terms.items()):
        lifts = []
        for axis, (g, k) in enumerate(zip(grid.axes, alpha)):
            if k > 0:
                before = int(np.prod(grid.shape[:axis]))
                after = int(np.prod(grid.shape[axis + 1:])) * N
                D1 = _kron_derivative_matrix(g, k, scheme_order)
                lifts.append(np.kron(np.kron(np.eye(before), D1), np.eye(after)))
        D = np.eye(M)
        if lifts:
            D = lifts[0]
            for L in lifts[1:]:
                D = D @ L
        a = coeff.reshape(nn, N, N)
        if N == 1:
            A += a[:, 0, 0, None] * D
        else:
            A += np.einsum("puw,pwm->pum", a, D.reshape(nn, N, M)).reshape(M, M)
    return A


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ["dirichlet", "periodic"])
@pytest.mark.parametrize("scheme_order", [2, 4])
def test_derivative_matrix_matches_dense_reference(kind, scheme_order):
    g = Grid1D(-1.0, 2.0, 17, kind)
    for order in range(0, 4):
        for edges in (False, True):
            got = derivative_matrix(g, order, scheme_order, one_sided_edges=edges)
            assert _same_bits(got, _kron_derivative_matrix(g, order, scheme_order, edges))


@pytest.mark.parametrize("kinds", [("dirichlet",), ("periodic",),
                                   ("periodic", "dirichlet"), ("dirichlet", "dirichlet")])
@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("scheme_order", [2, 4])
def test_discretize_matches_dense_kronecker_reference(kinds, fiber, scheme_order):
    rng = np.random.default_rng(len(kinds) * 10 + fiber + scheme_order)
    ns = (11, 9)[:len(kinds)]
    grid = ProductGrid(tuple(Grid1D(0.0, 1.0 + a, n, kind)
                             for a, (n, kind) in enumerate(zip(ns, kinds))), fiber)

    def field(real):
        shape = grid.shape + (fiber, fiber)
        return rng.standard_normal(shape) + (0.0 if real else 1j * rng.standard_normal(shape))

    # complex coefficient fields, then real ones: the matrix takes their dtype
    for real in (False, True):
        if len(kinds) == 1:
            terms = {(2,): field(real), (1,): field(real), (0,): field(real)}
        else:
            terms = {(2, 0): field(real), (0, 2): -1.0, (1, 1): field(real),
                     (1, 0): field(real), (0, 0): field(real)}
        op = DiffOp(grid, terms)
        got = discretize(op, scheme_order)
        assert got.A.dtype == (np.float64 if real else np.complex128)
        assert _same_bits(got.A, _kron_discretize(op, scheme_order))
