"""Triangular dressing operators: exact inverses, intertwining, locality,
sign independence, adjoint compatibility, and the Volterra property."""

import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import (ConditionNumberError, DelsarteOp, DiffOp, DressingSeed,
                      Grid1D, GridError, KernelData, ProductGrid,
                      SchrodingerOp, SingularKernelError, TransmutationData,
                      adjoint_compat_check, commutation_check, darboux_once,
                      discretize, eigensolve, gk_factorize,
                      independence_check, kernel_from_measure,
                      locality_check, pair_intertwiner, random_unit_minor,
                      spectrum_compare, transform_operator)
from delsarte import acceptance
from delsarte.acceptance import transmute_check
from delsarte.cli import run_command
from delsarte.errors import DiscretizationError
from delsarte import factorize, transmute
from delsarte.factorize import _conjugate
from delsarte.grid_ops import _operator_product
from delsarte.ioutil import load_matrix_csv, save_matrix_csv
from delsarte.spectral import nearest_indices


def _family_data(n=50, m=3, length=np.pi):
    g = Grid1D.dirichlet(0.0, length, n)
    A = SchrodingerOp.free(g).matrix().A
    fam = eigensolve(A, count=m, hermitian=True)
    data = TransmutationData.from_family(g, A, fam.right, fam.left)
    return g, A, fam, data


def _kernel_data(n=50, length=np.pi, weight=0.4):
    g = Grid1D.dirichlet(0.0, length, n)
    A = SchrodingerOp.free(g).matrix().A
    fam = eigensolve(A, hermitian=True)
    Phi = kernel_from_measure(fam, lambda lam: weight / (1.0 + abs(lam)))
    return g, A, KernelData(A, Phi)


# ---------------------------------------------------------------------------
# construction and exact inverses
# ---------------------------------------------------------------------------

def test_trivial_kernel_gives_identity_operators():
    g = Grid1D.dirichlet(0.0, 1.0, 8)
    A = np.eye(8)
    data = KernelData(A, np.zeros((8, 8)))
    for sign in "+-":
        op = data.operator(sign)
        np.testing.assert_array_equal(op.matrix(), np.eye(8))
        inv = data.inverse(sign)
        np.testing.assert_array_equal(inv.matrix(), np.eye(8))


def test_family_kernels_are_strictly_triangular():
    _, _, _, data = _family_data()
    Kp = data.operator("+").kernel
    Km = data.operator("-").kernel
    assert np.count_nonzero(np.triu(Kp, 0)) == 0
    assert np.count_nonzero(np.tril(Km, 0)) == 0


def test_closed_form_inverse_is_exact():
    """The staggered-normalization identity makes the inverse kernel exact,
    not iterative: (1 + K)(1 + Khat) = 1 to machine precision entrywise."""
    n = 60
    _, _, _, data = _family_data(n)
    for sign in "+-":
        M = data.operator(sign).matrix()
        Minv = data.inverse(sign).matrix()
        np.testing.assert_allclose(M @ Minv, np.eye(n), atol=1e-13)
        np.testing.assert_allclose(Minv @ M, np.eye(n), atol=1e-13)


def test_kernel_kind_reconstructs_factorization():
    n = 50
    _, _, data = _kernel_data(n)
    Mp_inv = data.inverse("+").matrix()
    Mm = data.operator("-").matrix()
    np.testing.assert_allclose(Mp_inv @ Mm, np.eye(n) + data.Phi, atol=1e-12)
    for sign in "+-":
        M = data.operator(sign).matrix()
        Minv = data.inverse(sign).matrix()
        np.testing.assert_allclose(M @ Minv, np.eye(n), atol=1e-12)


def test_apply_streams_the_matrix_action():
    _, _, _, data = _family_data()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    for sign in "+-":
        M = data.operator(sign).matrix()
        np.testing.assert_allclose(data.apply(f, sign), M @ f,
                                   atol=1e-13)


def test_biorthogonality_transport():
    # dressing with Omega and the adjoint-side factor preserves the pairing
    _, A, fam, data = _family_data()
    M = data.operator("+").matrix()
    Madj = data.adjoint().matrix()  # (Omega^{-1})^dagger
    psi_t = M @ fam.right
    phi_t = Madj @ fam.left
    G = phi_t.conj().T @ psi_t
    np.testing.assert_allclose(G, np.eye(len(fam)), atol=1e-10)


def _bad_operators(n):
    """Operators no dressing data of size n may take: the wrong size, not
    square, and not finite."""
    return (np.eye(7), np.ones((n, n - 1)), np.full((n, n), np.nan))


def _shape_message(L):
    return re.escape(str(np.shape(L)))


def test_family_data_needs_a_finite_operator_of_grid_size():
    g, A, fam, _ = _family_data()
    for L in _bad_operators(g.n):
        with pytest.raises(DiscretizationError, match=_shape_message(L)):
            TransmutationData.from_family(g, L, fam.right, fam.left)


def test_conjugation_needs_a_finite_operator_of_factor_size():
    g, L, T = _soliton(40, 8.0)
    om = pair_intertwiner(L, T, grid=g)
    for bad in _bad_operators(g.n):
        with pytest.raises(DiscretizationError, match=_shape_message(bad)):
            transform_operator(bad, om)


def test_family_shapes_are_named():
    # a family without columns, and a field of another length: each is a
    # named error, not numpy's IndexError or broadcast ValueError
    g, A, _, data = _family_data(n=20, m=2)
    empty = np.zeros((g.n, 0))
    with pytest.raises(DiscretizationError, match=re.escape("(20, 0)")):
        TransmutationData.from_family(g, A, empty, empty)
    for sign in "+-":
        with pytest.raises(DiscretizationError, match=re.escape("(20,), got (19,)")):
            data.apply(np.ones(g.n - 1), sign)


def test_kernel_data_needs_a_finite_operator_of_kernel_size():
    _, A, datak = _kernel_data()
    for L in _bad_operators(A.shape[0]):
        with pytest.raises(DiscretizationError, match=_shape_message(L)):
            KernelData(L, datak.Phi)
    with pytest.raises(DiscretizationError, match=_shape_message(A[:, :-1])):
        KernelData(A[:, :-1], datak.Phi[:, :-1])


def test_singular_running_normalization_detected():
    # omega0 = -(full Gram)/2 forces W to cross zero partway along the walk
    g = Grid1D.dirichlet(0.0, np.pi, 40)
    A = SchrodingerOp.free(g).matrix().A
    fam = eigensolve(A, count=1, hermitian=True)
    gram = g.h * float(np.real(np.sum(np.conj(fam.left[:, 0]) * fam.right[:, 0])))
    with pytest.raises(SingularKernelError):
        TransmutationData.from_family(g, A, fam.right, fam.left,
                                      omega0=-0.5 * gram)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(kappa=st.floats(0.6, 1.4), half_width=st.floats(4.0, 10.0),
       n=st.integers(40, 160), m=st.sampled_from([1, 2, 3]))
def test_dressing_data_is_exact_on_soliton_operators(kappa, half_width, n, m):
    base, dressed = acceptance.soliton_pair((-half_width, half_width), n, kappa)
    data, datak = acceptance.dressing_data(
        base.grid, dressed.operator.matrix().A, m)
    eye = np.eye(n)
    f = np.linspace(-1.0, 1.0, n)
    for sign in "+-":
        op, inv = data.operator(sign), data.inverse(sign)
        M = op.matrix()
        np.testing.assert_allclose(M @ inv.matrix(), eye, atol=1e-12)
        np.testing.assert_allclose(data.apply(f, sign), M @ f, atol=1e-12)
        assert op.volterra_defect() == inv.volterra_defect() == 0.0
    adj = data.adjoint()
    np.testing.assert_allclose(adj.matrix(), data.inverse("+").matrix().conj().T,
                               atol=1e-12)
    assert adj.volterra_defect() == 0.0
    kops = [datak.operator(s) for s in "+-"] + [datak.inverse(s) for s in "+-"]
    assert all(op.volterra_defect() == 0.0 for op in kops)
    np.testing.assert_allclose(kops[2].matrix() @ kops[1].matrix(),
                               eye + datak.Phi, atol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(kappa=st.floats(0.6, 1.4), center=st.floats(-1.0, 1.0),
       n=st.integers(30, 150), m=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_family_route_is_exact_with_varying_weights(kappa, center, n, m, seed):
    # the weighted pairing <u, v>_W = u^* W v, node weights from U(0.5, 2):
    # the left family right / w holds the eigenvectors of the W-adjoint
    # W^-1 L^* W and pairs with the orthonormal right family to I
    w = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    base, dressed = acceptance.soliton_pair((-8.0, 8.0), n, kappa, "even", center)
    L = dressed.operator.matrix().A
    fam = eigensolve(L, hermitian=True)
    right, left = fam.right, fam.right / w[:, None]
    assert np.linalg.norm(left.T @ (w[:, None] * right) - np.eye(n)) <= 1e-12
    assert np.max(np.abs(right @ (left.T * w[None, :]) - np.eye(n))) <= 1e-12
    k = nearest_indices(fam.lambdas, m)
    data = TransmutationData.from_family(base.grid, L, right[:, k], left[:, k],
                                         weights=w)
    for sign in "+-":
        np.testing.assert_allclose(
            data.operator(sign).matrix() @ data.inverse(sign).matrix(),
            np.eye(n), atol=1e-12)


def _nonsymmetric(n, drift, amp, half_width=8.0):
    """-d^2/dx^2 + drift tanh(x) d/dx + amp exp(-x^2) on a Dirichlet box:
    not symmetric for a nonzero drift, complex for a complex amplitude."""
    g = Grid1D.dirichlet(-half_width, half_width, n)
    x = g.x
    op = DiffOp(ProductGrid((g,)), {(2,): -1.0, (1,): drift * np.tanh(x),
                                    (0,): amp * np.exp(-x ** 2)})
    return g, discretize(op).A


@settings(derandomize=True, deadline=None, max_examples=10)
@given(n=st.integers(30, 150), drift=st.floats(-1.5, 1.5),
       amp_re=st.floats(-1.5, 1.5), amp_im=st.floats(-1.0, 1.0),
       m=st.sampled_from([1, 2, 3]))
def test_dressing_routes_are_exact_on_nonsymmetric_operators(n, drift, amp_re,
                                                             amp_im, m):
    # both data classes from the two-sided eigenbasis L = V diag(lam) V^-1
    # (simple eigenvalues), with left = V^-H so that left^* right = I: the
    # family route is exact and adjoint-compatible, the kernel route
    # sign-independent
    g, L = _nonsymmetric(n, drift, complex(amp_re, amp_im))
    lams, V = scipy.linalg.eig(L)
    Vinv = np.linalg.inv(V)
    k = nearest_indices(lams, m)
    data = TransmutationData.from_family(g, L, V[:, k], Vinv[k].conj().T)
    eye = np.eye(n)
    f = np.linspace(-1.0, 1.0, n)
    for sign in "+-":
        M = data.operator(sign).matrix()
        np.testing.assert_allclose(M @ data.inverse(sign).matrix(), eye, atol=1e-12)
        np.testing.assert_allclose(data.apply(f, sign), M @ f, atol=1e-12)
    assert adjoint_compat_check(data) <= 1e-12
    Phi = (V * (0.4 / (1.0 + np.abs(lams)))) @ Vinv
    assert independence_check(KernelData(L, Phi))[0] <= 1e-10


# ---------------------------------------------------------------------------
# running kernel Omega_x
# ---------------------------------------------------------------------------

def test_non_finite_family_rejected():
    g, A, fam, _ = _family_data(n=20, m=2)
    right = fam.right.copy()
    right[3, 1] = np.nan
    with pytest.raises(DiscretizationError):
        TransmutationData.from_family(g, A, right, fam.left)
    with pytest.raises(DiscretizationError):
        TransmutationData.from_family(g, A, fam.right, fam.left,
                                      weights=np.full(g.n, np.nan))
    # a scalar inf must be rejected before it is spread over the identity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiscretizationError):
            TransmutationData.from_family(g, A, fam.right, fam.left,
                                          omega0=np.inf)


def test_omega_homotopy_normalization_bit_exact():
    g, _, _, data = _family_data()
    K = data.omega_at(g.a)
    np.testing.assert_array_equal(K, data.omega0)


def test_omega_full_domain_completeness():
    # left = right / h pairs with the orthonormal right family to I under
    # the h-weighted pairing: the full-range Gram is the identity, so Omega
    # at the right edge is 2*identity
    n, m = 60, 4
    g = Grid1D.dirichlet(0.0, np.pi, n)
    A = SchrodingerOp.free(g).matrix().A
    fam = eigensolve(A, count=m, hermitian=True)
    data = TransmutationData.from_family(g, A, fam.right, fam.right / g.h)
    K = data.omega_at(g.x[-1])
    np.testing.assert_allclose(K, 2.0 * np.eye(m), atol=1e-10)


def test_omega_diagonal_monotone_for_self_adjoint():
    g, _, _, data = _family_data()
    diags = []
    for x in g.x[:: 10]:
        diags.append(np.real(np.diag(data.omega_at(x))))
    diags = np.array(diags)
    assert np.all(np.diff(diags, axis=0) >= -1e-14)


def test_omega_outside_domain_rejected():
    g, _, _, data = _family_data()
    with pytest.raises(GridError):
        data.omega_at(g.b + 1.0)


# ---------------------------------------------------------------------------
# pair intertwiner (marching construction)
# ---------------------------------------------------------------------------

def _soliton(n=400, w=20.0):
    g = Grid1D.dirichlet(-w, w, n)
    base = SchrodingerOp.free(g)
    dressed = darboux_once(base, DressingSeed.hyperbolic(g, 1.0, "even"))
    return g, base.matrix().A, dressed.operator.matrix().A


def test_pair_intertwiner_defect_confined_to_last_row():
    g, L, T = _soliton()
    om = pair_intertwiner(L, T, "+", grid=g)
    M = om.matrix()
    E = M @ L - T @ M
    n = g.n
    scale = np.linalg.norm(M) * np.linalg.norm(L)
    assert np.linalg.norm(E[: n - 1]) / scale < 1e-12
    # the closure really does park the defect on the final row
    assert np.linalg.norm(E[n - 1]) / scale > 1e-9


def test_pair_intertwiner_minus_mirrors_plus():
    g, L, T = _soliton(200)
    om = pair_intertwiner(L, T, "-", grid=g)
    K = om.kernel
    assert np.count_nonzero(np.tril(K, 0)) == 0
    E = om.matrix() @ L - T @ om.matrix()
    assert np.linalg.norm(E[1:]) / (np.linalg.norm(om.matrix()) *
                                    np.linalg.norm(L)) < 1e-12


def test_interior_rows_reproduce_dressed_operator():
    g, L, T = _soliton()
    om = pair_intertwiner(L, T, "+", grid=g)
    Ltil = transform_operator(L, om, cond_guard=1e12)
    n = g.n
    assert np.abs(Ltil[: n - 1] - T[: n - 1]).max() < 1e-6
    assert locality_check(Ltil, bandwidth=1) < 1e-6


def test_conjugation_preserves_spectrum():
    g, L, T = _soliton(300, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    Ltil = transform_operator(L, om)
    ev_L = np.sort(scipy.linalg.eigvalsh(L))
    ev_t = np.sort(np.real(scipy.linalg.eigvals(Ltil)))
    radius = np.abs(ev_L).max()
    assert np.abs(ev_t - ev_L).max() / radius < 1e-10


def test_pair_intertwiner_rejects_non_tridiagonal():
    rng = np.random.default_rng(1)
    L = rng.standard_normal((10, 10))
    with pytest.raises(DiscretizationError):
        pair_intertwiner(L, L)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pair_intertwiner_rejects_one_by_one(sign):
    # a 1x1 operator has no off-diagonal to read the stencil scale from
    with pytest.raises(DiscretizationError):
        pair_intertwiner(np.array([[2.0]]), np.array([[3.0]]), sign)


@pytest.mark.parametrize("where", [(3, 9), (9, 3), (5, 5)])
def test_pair_intertwiner_rejects_non_finite(where):
    g, L, T = _soliton(40, 8.0)
    for bad in (np.nan, np.inf):
        T2 = T.copy()
        T2[where] = bad
        with pytest.raises(DiscretizationError):
            pair_intertwiner(L, T2, grid=g)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pair_intertwiner_rejects_a_zero_off_diagonal(sign):
    # c = 0 would be divided by in the march, giving a kernel of inf and NaN
    L = np.diag(np.arange(6.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DiscretizationError, match="nonzero off-diagonal"):
            pair_intertwiner(L, L + np.eye(6), sign)


def test_pair_intertwiner_names_what_its_band_reader_refuses():
    """A complex potential, off-band fill, an off-diagonal asymmetry and
    off-diagonal scales that differ between the pair are each refused by
    name; the imaginary part of a potential is not dropped."""
    g = Grid1D.dirichlet(-5.0, 5.0, 80)
    L = SchrodingerOp.free(g).matrix().A
    q = -2.0 / np.cosh(g.x) ** 2 * (1.0 + 0.3j)
    T = discretize(DiffOp(ProductGrid.line(g), {(2,): -1.0, (0,): q})).A
    with pytest.raises(DiscretizationError, match="complex potential"):
        pair_intertwiner(L, T, grid=g)
    T = SchrodingerOp(g, q.real).matrix().A
    fill = T.copy()
    fill[40, 3] = 1e-13 * np.max(np.abs(T))
    with pytest.raises(DiscretizationError, match="tridiagonal"):
        pair_intertwiner(L, fill, grid=g)
    skew = T.copy()
    skew[41, 40] *= 1.0 + 1e-11
    with pytest.raises(DiscretizationError, match="symmetric"):
        pair_intertwiner(L, skew, grid=g)
    # a symmetric T with constant off-diagonals 5e-11 off L's: L's scale
    # would leave the conjugate 3.3e-9 off T's interior rows
    scaled = T + (5e-11 * (np.diag(np.diag(T, 1), 1) + np.diag(np.diag(T, -1), -1)))
    assert np.array_equal(scaled, scaled.T) and len(set(np.diag(scaled, 1))) == 1
    with pytest.raises(DiscretizationError, match="off-diagonal scales differ"):
        pair_intertwiner(L, scaled, grid=g)


def _sign_entry_points():
    *_, fam_data = _family_data(n=20)
    _, _, kernel_data = _kernel_data(n=20)
    _, L, T = _soliton(40, 8.0)
    return {"TransmutationData.operator": fam_data.operator,
            "TransmutationData.inverse": fam_data.inverse,
            "TransmutationData.apply": lambda s: fam_data.apply(np.ones(20), s),
            "KernelData.operator": kernel_data.operator,
            "KernelData.inverse": kernel_data.inverse,
            "pair_intertwiner": lambda s: pair_intertwiner(L, T, s)}


@pytest.mark.parametrize("entry", ["TransmutationData.operator", "TransmutationData.inverse",
                                   "TransmutationData.apply", "KernelData.operator",
                                   "KernelData.inverse", "pair_intertwiner"])
def test_unknown_sign_is_named(entry):
    call = _sign_entry_points()[entry]
    with pytest.raises(DiscretizationError, match="got 'x'"):
        call("x")


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pair_intertwiner_rejects_a_grid_of_another_size(sign):
    # the grid is checked against the operators' size, not stored
    _, L, T = _soliton(100, 8.0)
    with pytest.raises(DiscretizationError, match="50 nodes.*100x100"):
        pair_intertwiner(L, T, sign, grid=Grid1D.dirichlet(-8.0, 8.0, 50))


def test_cond_bounds_two_norm_condition_number():
    g, L, T = _soliton(200, 8.0)
    _, _, _, data = _family_data()
    _, _, datak = _kernel_data()
    ops = [pair_intertwiner(L, T, s, grid=g) for s in "+-"]
    ops += [f(s) for d in (data, datak)
            for f in (d.operator, d.inverse) for s in "+-"]
    assert {(om.sign, om.diag is not None) for om in ops} == {
        ("+", False), ("-", False), ("-", True)}
    for om in ops:
        M = om.matrix()
        k2 = np.linalg.cond(M)
        assert k2 <= om.cond() <= M.shape[0] * k2


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.one_of(st.sampled_from([1, 63, 64, 65, 129]), st.integers(1, 300)),
       lo=st.integers(-300, 300), span=st.integers(0, 600),
       zeros=st.floats(0.0, 0.5), dtype=st.sampled_from([np.float64, np.complex128]),
       order=st.sampled_from("CF"), seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_norms_equal_numpy_bit_for_bit(n, lo, span, zeros, dtype, order, seed):
    # magnitudes 10^lo .. 10^(lo + span) within [1e-300, 1e300], signed, with
    # +0.0 and -0.0 mixed in; Fortran order is the layout trtri returns
    hi = min(lo + span, 300)
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=dtype)
    for part in ([1.0] if dtype is np.float64 else [1.0, 1j]):
        A += part * rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(lo, hi, (n, n))
    where = rng.random((n, n)) < zeros
    A[where] = rng.choice([0.0, -0.0], int(where.sum()))
    A = np.asarray(A, order=order)
    one, inf = transmute._norms_1_inf(A)
    assert one.tobytes() == np.linalg.norm(A, 1).tobytes()
    assert inf.tobytes() == np.linalg.norm(A, np.inf).tobytes()


def _cond_by_whole_array_norms(om):
    """The bound as the whole-array formula gives it: the factor assembled
    by whole-array operations, inverted by trtri, normed by np.linalg.norm."""
    M = np.eye(om.kernel.shape[0], dtype=om.kernel.dtype) + om.kernel
    if om.diag is not None:
        M = om.diag[:, None] * M
    trtri = scipy.linalg.lapack.get_lapack_funcs("trtri", (M,))
    Minv, info = trtri(M, lower=om.sign == "+", unitdiag=om.diag is None)
    assert info == 0
    k1 = np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1)
    kinf = np.linalg.norm(M, np.inf) * np.linalg.norm(Minv, np.inf)
    return float(np.sqrt(k1) * np.sqrt(kinf))


@pytest.mark.parametrize("n, w", [(399, 8.0), (400, 20.0), (600, 8.0), (800, 8.0)])
def test_cond_equals_the_whole_array_formula_on_pair_factors(n, w):
    g, L, T = _soliton(n, w)
    for sign in "+-":
        om = pair_intertwiner(L, T, sign, grid=g)
        assert om.cond() == _cond_by_whole_array_norms(om)


def test_cond_equals_the_whole_array_formula_with_a_diagonal():
    _, _, datak = _kernel_data(200)
    for om in (datak.operator("-"), datak.inverse("-")):
        assert om.diag is not None
        assert om.matrix().tobytes() == (om.diag[:, None]
                                         * (np.eye(200) + om.kernel)).tobytes()
        assert om.cond() == _cond_by_whole_array_norms(om)


def test_cond_bound_holds_no_square_temporary(traced_peak):
    # beside the kernel: the factor M and its inverse, each 2.88 MB at n=600
    # (three arrays when the bound built n x n triu and abs temporaries)
    g, L, T = _soliton(600, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    del L, T
    bound, peak = traced_peak(om.cond)
    assert np.isfinite(bound)
    assert peak <= 2.3 * 600 ** 2 * 8


def test_cond_of_broken_factor_is_infinite():
    g, L, T = _soliton(40, 8.0)
    om = pair_intertwiner(L, T, grid=g)
    nan_kernel = DelsarteOp("+", np.where(np.tri(g.n, k=-1) > 0, np.nan, 0.0))
    upper_mass = DelsarteOp("+", om.kernel + np.triu(np.ones((g.n, g.n)), 1))
    singular = DelsarteOp("-", np.zeros((g.n, g.n)), diag=np.zeros(g.n))
    for bad in (nan_kernel, upper_mass, singular):
        assert bad.cond() == np.inf
        with pytest.raises(ConditionNumberError):
            transform_operator(L, bad)


def test_condition_guard_raises():
    g, L, T = _soliton()  # cond(M) ~ 8e10 on the wide box
    om = pair_intertwiner(L, T, "+", grid=g)
    with pytest.raises(ConditionNumberError):
        transform_operator(L, om, cond_guard=1e6)


def test_transmute_check_solves_for_the_condition_number_once(monkeypatch):
    # the conjugation guard and the pair_condition_number row share one solve
    calls = []
    bound = DelsarteOp._cond_bound

    def counted(self, M):
        calls.append(self)
        return bound(self, M)

    monkeypatch.setattr(DelsarteOp, "_cond_bound", counted)
    rows, data = transmute_check((-8.0, 8.0), 120, 1.0)
    assert len(calls) == 1
    row = next(r for r in rows if r["name"] == "pair_condition_number")
    om = DelsarteOp("+", data["pair_kernel"])
    assert row["value"] == om.cond()
    # the stored bound is plain data: it pickles, and a rebuilt factor
    # solves afresh
    assert pickle.loads(pickle.dumps(om)).cond() == row["value"]
    assert dataclasses.replace(om, kernel=np.zeros((2, 2))).cond() == 1.0
    # the README-scale box is still refused by the same guard value
    with pytest.raises(ConditionNumberError, match=r"cond = 2\.074e\+11 exceeds guard 1\.0e\+10"):
        transmute_check((-20.0, 20.0), 400, 1.0)


def test_random_kernel_is_not_local():
    g, L, _ = _soliton(100, 5.0)
    rng = np.random.default_rng(2)
    M = np.eye(g.n) + np.tril(0.3 * rng.standard_normal((g.n, g.n)), -1)
    Ltil = np.linalg.solve(M.T, (M @ L).T).T
    assert locality_check(Ltil, bandwidth=1) > 1e-2


def test_locality_check_keeps_the_index_mask_bits():
    # the off-band mask from boolean triangles selects the entries of the
    # |i - j| > bandwidth index mask, in the same row-major order
    rng = np.random.default_rng(4)
    for n in range(7, 40):
        for bw in range(0, (n - 5) // 2 + 1):
            A = rng.standard_normal((n, n))
            edge = bw + 2
            sub = A[edge:n - edge]
            mask = np.abs(np.arange(edge, n - edge)[:, None] - np.arange(n)) > bw
            want = float(np.linalg.norm(sub[mask]) / max(np.linalg.norm(sub), 1e-300))
            assert locality_check(A, bw) == want

def test_locality_check_needs_an_interior_row():
    # every row of a 6 x 6 matrix lies within bandwidth + 2 of an end, so
    # there is no mass to measure; 0.0 would pass any threshold
    with pytest.raises(DiscretizationError, match="no interior rows"):
        locality_check(np.ones((6, 6)), bandwidth=1)
    # a vector is not an operator: named, not numpy's IndexError
    with pytest.raises(DiscretizationError, match=re.escape("got shape (10,)")):
        locality_check(np.ones(10), 1)
    # one interior row: rows 0-2 and 4-6 are edges, row 3 keeps |j - 3| <= 1
    A = np.ones((7, 7))
    assert locality_check(A, bandwidth=1) == pytest.approx(2.0 / np.sqrt(7.0), rel=1e-15)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_independence_gap_vanishes_for_commuting_kernel():
    _, _, data = _kernel_data()
    gap, comm = independence_check(data)
    assert gap < 1e-12
    assert comm < 1e-12


def test_independence_gap_nonzero_for_one_sided_family():
    # a genuine eigenfamily walk differs between the two ends at O(h^2);
    # the diagnostic must see that, not hide it
    _, _, _, data = _family_data(60)
    gap, _ = independence_check(data)
    assert gap > 1e-8


def test_adjoint_compatibility_both_kinds():
    # family data builds its adjoint factor from the left family; kernel
    # data has none, and is named rather than measured
    _, _, _, data = _family_data()
    assert adjoint_compat_check(data) < 1e-12
    _, _, datak = _kernel_data()
    with pytest.raises(DiscretizationError, match="needs TransmutationData, got KernelData"):
        adjoint_compat_check(datak)


def test_transform_family_preserves_commutators():
    # conjugation is an algebra map, so a commuting family stays commuting
    g, L, T = _soliton(200, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    Lt, Lt2 = (transform_operator(A, om) for A in (L, L @ L))
    assert commutation_check(Lt, Lt2) < 1e-8


def test_volterra_defect_structural():
    _, _, _, data = _family_data()
    for sign in "+-":
        op = data.operator(sign)
        assert op.volterra_defect() == 0.0
    _, _, datak = _kernel_data()
    for sign in "+-":
        assert datak.operator(sign).volterra_defect() == 0.0
        assert datak.inverse(sign).volterra_defect() == 0.0
    # mass on or across the diagonal reads as its largest modulus
    g, L, T = _soliton(40, 8.0)
    om = pair_intertwiner(L, T, grid=g)
    upper_mass = om.kernel + 0.5 * np.triu(np.ones((g.n, g.n)), 1)
    upper_mass[3, 3] = -2.5
    assert DelsarteOp("+", upper_mass).volterra_defect() == 2.5
    assert DelsarteOp("-", om.kernel).volterra_defect() == np.abs(om.kernel).max() > 0.0
    # a NaN across the diagonal reads NaN, never 0.0, and the factor's
    # condition bound is infinite
    nan_across = om.kernel.copy()
    nan_across[2, 9] = np.nan
    bad = DelsarteOp("+", nan_across)
    assert np.isnan(bad.volterra_defect())
    assert bad.cond() == np.inf


# ---------------------------------------------------------------------------
# structured routines only
# ---------------------------------------------------------------------------

def test_dressing_path_uses_no_dense_fallback(monkeypatch):
    # the triangular bound, the banded spectra and the blocked LDU must not
    # fall back to SVD-based or dense symmetric eigensolvers
    g, L, T = _soliton(200, 8.0)
    om = pair_intertwiner(L, T, grid=g)
    base = SchrodingerOp.free(g)
    dressed = darboux_once(base, DressingSeed.hyperbolic(g, 1.0, "even"))
    Phi = random_unit_minor(200, np.random.default_rng(0))

    def dense(*args, **kwargs):
        raise AssertionError("dense fallback called")

    for mod, name in ((np.linalg, "svd"), (np.linalg, "cond"),
                      (scipy.linalg, "eigvalsh")):
        monkeypatch.setattr(mod, name, dense)
    assert np.isfinite(om.cond())
    assert len(spectrum_compare(base, dressed.operator)["new_negative"]) == 1
    assert gk_factorize(Phi).residual < 1e-10


# ---------------------------------------------------------------------------
# the dtype follows the data
# ---------------------------------------------------------------------------

def _complex_cast(om):
    """The same factor with its kernel cast to complex."""
    return DelsarteOp(om.sign, om.kernel.astype(complex), om.diag)


def test_real_pair_factor_stays_real():
    g, L, T = _soliton(200, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    assert om.kernel.dtype == np.float64
    assert om.matrix().dtype == np.float64
    assert transform_operator(L, om).dtype == np.float64


def _factors(data):
    """Every factor the data builds; family data adds its adjoint factor
    and its streamed action."""
    ops = [data.operator(s) for s in "+-"]
    ops += [data.inverse(s) for s in "+-"]
    if isinstance(data, KernelData):
        return [op.matrix() for op in ops]
    mats = [op.matrix() for op in ops + [data.adjoint()]]
    f = np.linspace(1.0, 2.0, data.L.shape[0])
    return mats + [data.apply(f, s) for s in "+-"]


def test_factor_dtype_follows_family_and_kernel_data():
    g, A, fam, data = _family_data()
    _, _, datak = _kernel_data()
    assert fam.right.dtype == fam.lambdas.dtype == np.float64
    assert data._prefix.dtype == datak.Phi.dtype == np.float64
    for M in _factors(data) + _factors(datak):
        assert M.dtype == np.float64
    # a complex input anywhere keeps the factors complex
    cplx = [
        TransmutationData.from_family(g, A, fam.right.astype(complex), fam.left),
        TransmutationData.from_family(g, A, fam.right, fam.left.astype(complex)),
        TransmutationData.from_family(g, A, fam.right, fam.left, omega0=1.0 + 0.5j),
        KernelData(A, datak.Phi.astype(complex)),
    ]
    for d in cplx:
        for M in _factors(d):
            assert M.dtype == np.complex128


def _complex_data(data):
    """The same dressing data with every array cast to complex."""
    if isinstance(data, KernelData):
        return KernelData(data.L, data.Phi.astype(complex))
    return TransmutationData.from_family(
        data.grid, data.L, data.right.astype(complex), data.left.astype(complex),
        data.weights, data.omega0.astype(complex))


def _kernel_from_generators(G):
    """K_+ = -tril(U C^T, -1) from the (n, 2m) table [U | C]."""
    U, C = np.hsplit(G, 2)
    return -np.tril(U @ C.T, -1)


def test_family_generators_table_rebuilds_the_plus_kernel(tmp_path):
    """The ``family_generators`` table the transmute command writes, read
    back, gives the family's plus kernel bit for bit; so does a complex
    family's table."""
    cfg = {"command": "transmute", "domain": [-8.0, 8.0], "n": 120,
           "kappa": 1.03, "center": 0.37}
    run_command("transmute", cfg, tmp_path / "out")
    G = load_matrix_csv(tmp_path / "out" / "family_generators.csv")
    base, _ = acceptance.soliton_pair(cfg["domain"], cfg["n"], cfg["kappa"],
                                      "even", cfg["center"])
    data, _ = acceptance.dressing_data(base.grid, base.matrix().A)
    assert G.shape == (cfg["n"], 6) and G.dtype == np.float64
    assert _kernel_from_generators(G).tobytes() == data.operator("+").kernel.tobytes()
    cplx = _complex_data(data)
    save_matrix_csv(tmp_path / "c.csv", cplx._generators())
    Gc = load_matrix_csv(tmp_path / "c.csv")
    assert Gc.dtype == np.complex128
    assert _kernel_from_generators(Gc).tobytes() == cplx.operator("+").kernel.tobytes()


@pytest.mark.parametrize("n", [200, 600])
def test_real_family_route_matches_complex_cast(n, monkeypatch):
    def run(cast):
        seen = []

        def dressing_data(*args, **kwargs):
            pair = dressing_data_real(*args, **kwargs)
            if cast:
                pair = tuple(map(_complex_data, pair))
            seen.extend(pair)
            return pair

        monkeypatch.setattr(acceptance, "dressing_data", dressing_data)
        rows, tables = acceptance.transmute_check((-8.0, 8.0), n, 1.03, 0.37)
        return rows, tables, seen

    dressing_data_real = acceptance.dressing_data
    rows, tables, real = run(False)
    rows_c, tables_c, cplx = run(True)
    assert all(d.L.dtype == np.float64 for d in real)
    assert [type(d) for d in real] == [type(d) for d in cplx] == [
        TransmutationData, KernelData]
    assert tables["family_generators"].dtype == np.float64
    assert tables_c["family_generators"].dtype == np.complex128
    # the rows are relative residuals, so 1e-13 is relative to their scale
    assert [r["name"] for r in rows] == [r["name"] for r in rows_c]
    for r, rc in zip(rows, rows_c):
        assert r["passed"] and rc["passed"]
        assert abs(r["value"] - rc["value"]) <= 1e-13, r["name"]
    for name in ("pair_kernel", "family_generators"):
        want = tables_c[name]
        assert np.abs(tables[name] - want).max() <= 1e-13 * np.abs(want).max()
    for d, dc in zip(real, cplx):
        for M, Mc in zip(_factors(d), _factors(dc)):
            assert np.abs(M - Mc).max() <= 1e-13 * np.abs(Mc).max()


@pytest.mark.parametrize("m", [1, 3, 5])
def test_dressing_data_family_is_eigensolve_count(m):
    g, L, _ = _soliton(200, 8.0)
    data, _ = acceptance.dressing_data(g, L, m)
    fam = eigensolve(L, count=m, hermitian=True)
    for got, want in ((data.right, fam.right), (data.left, fam.left)):
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_triangular_conjugation_matches_lu_route():
    # the unit lower pair factor at n=600: the triangular solve is the LU
    # route without its (here empty) pivoting, so the bits agree on the
    # product M L that _conjugate forms (on the band of the tridiagonal L)
    g, L, T = _soliton(600, 8.0)
    M = pair_intertwiner(L, T, "+", grid=g).matrix()
    want = np.linalg.solve(M.T, _operator_product(L, M, right=True).T).T
    assert _conjugate(M, L, lower=True).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [200, 600])
def test_real_conjugation_matches_complex_cast(n):
    g, L, T = _soliton(n, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    real = transform_operator(L, om)
    cast = transform_operator(L, _complex_cast(om))
    assert np.abs(real - cast).max() <= 1e-13 * np.abs(real).max()
    # equal here; other boxes differ by an ulp (4.333e6 on [-10, 10], n=240)
    assert om.cond() == pytest.approx(_complex_cast(om).cond(), rel=1e-14)


# ---------------------------------------------------------------------------
# working set of the dressing path
# ---------------------------------------------------------------------------

def test_transmute_check_working_set_is_bounded(traced_peak):
    # at n=600 one n x n array is 2.88 MB; the routes hold L and a few
    # arrays of their own at a time, 20.7 MB at most (46 MB, some 16
    # arrays, when every route kept its arrays to the end; 23.6 MB while
    # the pair kernel outlived its route into the others)
    (rows, _), peak = traced_peak(transmute_check, (-8, 8), 600, 1.03, 0.37)
    assert all(r["passed"] for r in rows)
    assert peak <= 21.5e6


def test_kernel_route_never_reads_the_reconstruction_residual(monkeypatch):
    reads = []
    monkeypatch.setattr(factorize.TriangularPair, "residual",
                        property(lambda pair: reads.append(pair) or 0.0))
    rows, _ = transmute_check((-8.0, 8.0), 120, 1.0)
    assert all(r["passed"] for r in rows)
    assert reads == []
    # the factorize route reads it, through the same property
    acceptance.factorization_sweep(acceptance.unit_minors(np.random.default_rng(0), 8, 2))
    assert len(reads) == 1


def test_conjugation_solves_into_its_own_product(monkeypatch):
    g, L, T = _soliton(200, 8.0)
    M = pair_intertwiner(L, T, "+", grid=g).matrix()
    seen = []
    solve = scipy.linalg.solve_triangular

    def recording(a, b, *args, **kw):
        x = solve(a, b, *args, **kw)
        seen.append(np.shares_memory(x, b))
        return x

    monkeypatch.setattr(scipy.linalg, "solve_triangular", recording)
    _conjugate(M, L, lower=True)
    assert seen == [True]
