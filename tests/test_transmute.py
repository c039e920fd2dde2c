"""Triangular dressing operators: exact inverses, intertwining, locality,
sign independence, adjoint compatibility, and the Volterra property."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from delsarte import (ConditionNumberError, DelsarteOp, DiffOp, DressingSeed,
                      Grid1D, GridError, ProductGrid, SchrodingerOp,
                      SingularKernelError, TransmutationData,
                      adjoint_compat_check, adjoint_operator,
                      build_kernel_Omega, darboux_once, delsarte_apply,
                      delsarte_inverse, delsarte_operator, discretize,
                      eigensolve, gk_factorize, independence_check,
                      kernel_from_measure, locality_check, pair_intertwiner,
                      random_unit_minor, spectrum_compare, transform_family,
                      transform_operator)
from delsarte.errors import DiscretizationError


def _family_data(n=50, m=3, length=np.pi, unit_weights=True):
    g = Grid1D.dirichlet(0.0, length, n)
    A = np.real(SchrodingerOp.free(g).matrix().A)
    w = np.ones(n) if unit_weights else np.full(n, g.h)
    fam = eigensolve(A, count=m, hermitian=True, weights=w)
    data = TransmutationData.from_family(g, A, fam.right, fam.left,
                                         weights=None if unit_weights else None)
    return g, A, fam, data


def _kernel_data(n=50, length=np.pi, weight=0.4):
    g = Grid1D.dirichlet(0.0, length, n)
    A = np.real(SchrodingerOp.free(g).matrix().A)
    fam = eigensolve(A, hermitian=True)
    Phi = kernel_from_measure(fam, lambda lam: weight / (1.0 + abs(lam))).values
    return g, A, TransmutationData.from_kernel(A, Phi)


# ---------------------------------------------------------------------------
# construction and exact inverses
# ---------------------------------------------------------------------------

def test_trivial_kernel_gives_identity_operators():
    g = Grid1D.dirichlet(0.0, 1.0, 8)
    A = np.eye(8)
    data = TransmutationData.from_kernel(A, np.zeros((8, 8)))
    for sign in "+-":
        op = delsarte_operator(data, sign)
        np.testing.assert_array_equal(op.matrix(), np.eye(8))
        inv = delsarte_inverse(data, sign)
        np.testing.assert_array_equal(inv.matrix(), np.eye(8))


def test_family_kernels_are_strictly_triangular():
    _, _, _, data = _family_data()
    Kp = delsarte_operator(data, "+").kernel
    Km = delsarte_operator(data, "-").kernel
    assert np.count_nonzero(np.triu(Kp, 0)) == 0
    assert np.count_nonzero(np.tril(Km, 0)) == 0


def test_closed_form_inverse_is_exact():
    """The staggered-normalization identity makes the inverse kernel exact,
    not iterative: (1 + K)(1 + Khat) = 1 to machine precision entrywise."""
    n = 60
    _, _, _, data = _family_data(n)
    for sign in "+-":
        M = delsarte_operator(data, sign).matrix()
        Minv = delsarte_inverse(data, sign).matrix()
        np.testing.assert_allclose(M @ Minv, np.eye(n), atol=1e-13)
        np.testing.assert_allclose(Minv @ M, np.eye(n), atol=1e-13)


def test_kernel_kind_reconstructs_factorization():
    n = 50
    _, _, data = _kernel_data(n)
    Mp_inv = delsarte_inverse(data, "+").matrix()
    Mm = delsarte_operator(data, "-").matrix()
    np.testing.assert_allclose(Mp_inv @ Mm, np.eye(n) + data.Phi, atol=1e-12)
    for sign in "+-":
        M = delsarte_operator(data, sign).matrix()
        Minv = delsarte_inverse(data, sign).matrix()
        np.testing.assert_allclose(M @ Minv, np.eye(n), atol=1e-12)


def test_apply_streams_the_matrix_action():
    _, _, _, data = _family_data()
    rng = np.random.default_rng(0)
    f = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    for sign in "+-":
        M = delsarte_operator(data, sign).matrix()
        np.testing.assert_allclose(delsarte_apply(data, f, sign), M @ f,
                                   atol=1e-13)


def test_biorthogonality_transport():
    # dressing with Omega and the adjoint-side factor preserves the pairing
    _, A, fam, data = _family_data()
    M = delsarte_operator(data, "+").matrix()
    Madj = adjoint_operator(data, "+").matrix()  # (Omega^{-1})^dagger
    psi_t = M @ fam.right
    phi_t = Madj @ fam.left
    G = phi_t.conj().T @ psi_t
    np.testing.assert_allclose(G, np.eye(len(fam)), atol=1e-10)


def test_singular_running_normalization_detected():
    # omega0 = -(full Gram)/2 forces W to cross zero partway along the walk
    g = Grid1D.dirichlet(0.0, np.pi, 40)
    A = np.real(SchrodingerOp.free(g).matrix().A)
    fam = eigensolve(A, count=1, hermitian=True)
    gram = g.h * float(np.real(np.sum(np.conj(fam.left[:, 0]) * fam.right[:, 0])))
    with pytest.raises(SingularKernelError):
        TransmutationData.from_family(g, A, fam.right, fam.left,
                                      omega0=-0.5 * gram)


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
    K = build_kernel_Omega(data, data.x0)
    np.testing.assert_array_equal(K.values, data.omega0)
    assert K.domain_tag == "SpectrumBySpectrum"


def test_omega_full_domain_completeness():
    # family biorthonormalized against the h-weighted pairing: the full-range
    # Gram is the identity, so Omega at the right edge is 2*identity
    n, m = 60, 4
    g = Grid1D.dirichlet(0.0, np.pi, n)
    A = np.real(SchrodingerOp.free(g).matrix().A)
    fam = eigensolve(A, count=m, hermitian=True, weights=np.full(n, g.h))
    data = TransmutationData.from_family(g, A, fam.right, fam.left)
    K = build_kernel_Omega(data, g.x[-1])
    np.testing.assert_allclose(K.values, 2.0 * np.eye(m), atol=1e-10)


def test_omega_diagonal_monotone_for_self_adjoint():
    g, _, _, data = _family_data()
    diags = []
    for x in g.x[:: 10]:
        diags.append(np.real(np.diag(build_kernel_Omega(data, x).values)))
    diags = np.array(diags)
    assert np.all(np.diff(diags, axis=0) >= -1e-14)


def test_omega_outside_domain_rejected():
    g, _, _, data = _family_data()
    with pytest.raises(GridError):
        build_kernel_Omega(data, g.b + 1.0)


# ---------------------------------------------------------------------------
# pair intertwiner (marching construction)
# ---------------------------------------------------------------------------

def _soliton(n=400, w=20.0):
    g = Grid1D.dirichlet(-w, w, n)
    base = SchrodingerOp.free(g)
    dressed = darboux_once(base, DressingSeed.hyperbolic(g, 1.0, "even"))
    return g, np.real(base.matrix().A), np.real(dressed.operator.matrix().A)


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
    Ltil = transform_operator(L, om, cond_guard=1e12).A
    n = g.n
    assert np.abs(Ltil[: n - 1] - T[: n - 1]).max() < 1e-6
    assert locality_check(Ltil, bandwidth=1) < 1e-6


def test_conjugation_preserves_spectrum():
    g, L, T = _soliton(300, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    Ltil = transform_operator(L, om).A
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


def test_cond_bounds_two_norm_condition_number():
    g, L, T = _soliton(200, 8.0)
    _, _, _, data = _family_data()
    _, _, datak = _kernel_data()
    ops = [pair_intertwiner(L, T, s, grid=g) for s in "+-"]
    ops += [f(d, s) for d in (data, datak)
            for f in (delsarte_operator, delsarte_inverse) for s in "+-"]
    assert {(om.sign, om.diag is not None) for om in ops} == {
        ("+", False), ("-", False), ("-", True)}
    for om in ops:
        M = om.matrix()
        k2 = np.linalg.cond(M)
        assert k2 <= om.cond() <= M.shape[0] * k2


def test_cond_of_broken_factor_is_infinite():
    g, L, T = _soliton(40, 8.0)
    om = pair_intertwiner(L, T, grid=g)
    nan_kernel = DelsarteOp("+", np.where(np.tri(g.n, k=-1) > 0, np.nan, 0.0), g)
    upper_mass = DelsarteOp("+", om.kernel + np.triu(np.ones((g.n, g.n)), 1), g)
    singular = DelsarteOp("-", np.zeros((g.n, g.n)), g, diag=np.zeros(g.n))
    for bad in (nan_kernel, upper_mass, singular):
        assert bad.cond() == np.inf
        with pytest.raises(ConditionNumberError):
            transform_operator(L, bad)


def test_condition_guard_raises():
    g, L, T = _soliton()  # cond(M) ~ 8e10 on the wide box
    om = pair_intertwiner(L, T, "+", grid=g)
    with pytest.raises(ConditionNumberError):
        transform_operator(L, om, cond_guard=1e6)


def test_random_kernel_is_not_local():
    g, L, _ = _soliton(100, 5.0)
    rng = np.random.default_rng(2)
    M = np.eye(g.n) + np.tril(0.3 * rng.standard_normal((g.n, g.n)), -1)
    Ltil = np.linalg.solve(M.T, (M @ L).T).T
    assert locality_check(Ltil, bandwidth=1) > 1e-2


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
    _, _, _, data = _family_data()
    assert adjoint_compat_check(data) < 1e-12
    _, _, datak = _kernel_data()
    assert adjoint_compat_check(datak) < 1e-12


def test_adjoint_operator_unsupported_sign():
    _, _, _, data = _family_data()
    with pytest.raises(DiscretizationError):
        adjoint_operator(data, "-")


def test_transform_family_preserves_commutators():
    g, L, T = _soliton(200, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    L2 = L @ L
    outs, worst = transform_family([L, L2], om)
    assert len(outs) == 2
    assert worst < 1e-8


def test_volterra_defect_structural():
    _, _, _, data = _family_data()
    for sign in "+-":
        op = delsarte_operator(data, sign)
        assert op.volterra_defect() == 0.0
    _, _, datak = _kernel_data()
    for sign in "+-":
        assert delsarte_operator(datak, sign).volterra_defect() == 0.0
        assert delsarte_inverse(datak, sign).volterra_defect() == 0.0


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
    return DelsarteOp(om.sign, om.kernel.astype(complex), om.grid, om.diag)


def test_real_pair_factor_stays_real():
    g, L, T = _soliton(200, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    assert om.kernel.dtype == np.float64
    assert om.matrix().dtype == np.float64
    assert transform_operator(L, om).A.dtype == np.float64


def test_family_and_kernel_factors_stay_complex():
    _, _, _, data = _family_data()
    _, _, datak = _kernel_data()
    for op in (delsarte_operator(data, "+"), delsarte_operator(datak, "-")):
        assert op.matrix().dtype == np.complex128


@pytest.mark.parametrize("n", [200, 600])
def test_real_conjugation_matches_complex_cast(n):
    g, L, T = _soliton(n, 8.0)
    om = pair_intertwiner(L, T, "+", grid=g)
    real = transform_operator(L, om).A
    cast = transform_operator(L, _complex_cast(om)).A
    assert np.abs(real - cast).max() <= 1e-13 * np.abs(real).max()
    # equal here; other boxes differ by an ulp (4.333e6 on [-10, 10], n=240)
    assert om.cond() == pytest.approx(_complex_cast(om).cond(), rel=1e-14)
