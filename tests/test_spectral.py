"""Biorthogonal eigenfamilies, spectral measures, and kernel calculus."""

import numpy as np
import pytest
import scipy.linalg

from delsarte import (DefectiveFamilyError, DiffOp, DiscretizationError,
                      EmptyBandError, Grid1D, ProductGrid, congruence_residual,
                      discretize, eigensolve, elementary_kernel,
                      kernel_from_measure, projection_measure)


def _dirichlet_laplacian(n=40, length=np.pi):
    g = Grid1D.dirichlet(0.0, length, n)
    pg = ProductGrid.line(g)
    return g, discretize(DiffOp(pg, {(2,): -1.0}))


def test_hermitian_eigenfamily_matches_closed_form():
    n = 40
    g, L = _dirichlet_laplacian(n)
    fam = eigensolve(L)
    k = np.arange(1, n + 1)
    exact = (2.0 - 2.0 * np.cos(k * g.h)) / g.h ** 2
    np.testing.assert_allclose(np.sort(fam.lambdas.real), np.sort(exact), rtol=1e-12)
    assert fam.biorthogonality_defect() < 1e-10
    assert fam.residual_right < 1e-12


def test_family_dtype_follows_the_operator():
    _, L = _dirichlet_laplacian()
    A = L.A
    real = eigensolve(A, count=3, hermitian=True)
    assert real.lambdas.dtype == real.right.dtype == real.left.dtype == np.float64
    K = kernel_from_measure(real, lambda lam: 1.0 / (1.0 + lam))
    assert K.dtype == np.float64
    assert kernel_from_measure(real, lambda lam: 1j * lam).dtype == np.complex128
    # the complex-cast operator gives the same family, complex
    cast = eigensolve(A.astype(complex), count=3, hermitian=True)
    assert cast.right.dtype == np.complex128
    np.testing.assert_allclose(cast.lambdas, real.lambdas, rtol=1e-13)
    assert np.linalg.norm(np.abs(cast.right) - np.abs(real.right)) < 1e-12


def test_count_selection_keeps_smallest_magnitudes():
    _, L = _dirichlet_laplacian()
    fam = eigensolve(L, count=4)
    full = np.sort(eigensolve(L).lambdas.real)
    np.testing.assert_allclose(np.sort(fam.lambdas.real), full[:4], rtol=1e-12)


def test_band_selection_and_empty_band():
    _, L = _dirichlet_laplacian()
    full = np.sort(eigensolve(L).lambdas.real)
    lo, hi = full[1] - 0.5, full[3] + 0.5
    fam = eigensolve(L, band=(complex(lo, -1), complex(hi, 1)))
    assert len(fam) == 3
    with pytest.raises(EmptyBandError):
        eigensolve(L, band=(-100 - 1j, -50 + 1j))


def test_nonnormal_family_is_biorthogonal():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((12, 12)) + 0.1j * rng.standard_normal((12, 12))
    fam = eigensolve(A)
    assert fam.biorthogonality_defect() < 1e-8
    # left vectors solve the adjoint problem at conjugated eigenvalues
    res = np.linalg.norm(A.conj().T @ fam.left - fam.left * np.conj(fam.lambdas))
    assert res / np.linalg.norm(A) < 1e-10


def test_jordan_block_is_rejected():
    J = np.eye(6, k=1)
    with pytest.raises(DefectiveFamilyError):
        eigensolve(J)


def test_non_finite_input_rejected():
    _, L = _dirichlet_laplacian(20)
    A = L.A.copy()
    A[2, 3] = np.nan
    with pytest.raises(DiscretizationError):
        eigensolve(A)
    w = np.ones(20)
    w[4] = np.inf
    with pytest.raises(DiscretizationError):
        eigensolve(L, weights=w)


def test_nan_cross_gram_is_rejected(monkeypatch):
    # the floor gate must fail closed when the singular values are NaN
    _, L = _dirichlet_laplacian(20)
    svd = np.linalg.svd

    def nan_svd(G, *args, **kwargs):
        U, s, Vh = svd(G, *args, **kwargs)
        return U, np.full_like(s, np.nan), Vh

    monkeypatch.setattr(np.linalg, "svd", nan_svd)
    with pytest.raises(DefectiveFamilyError):
        eigensolve(L, count=2)


def test_degenerate_but_diagonalizable_cluster():
    # periodic Laplacian has doubly degenerate interior eigenvalues
    g = Grid1D.periodic(0.0, 2 * np.pi, 16)
    L = discretize(DiffOp(ProductGrid.line(g), {(2,): -1.0}))
    fam = eigensolve(L)
    assert fam.biorthogonality_defect() < 1e-10


def test_projection_measure_is_multiplicative():
    _, L = _dirichlet_laplacian()
    fam = eigensolve(L)
    cut = float(np.median(fam.lambdas.real))
    E1 = projection_measure(fam, lambda z: z.real <= cut)
    E2 = projection_measure(fam, lambda z: z.real > cut)
    Eall = projection_measure(fam)
    np.testing.assert_allclose(E1 @ E1, E1, atol=1e-10)
    np.testing.assert_allclose(E1 @ E2, 0.0, atol=1e-10)
    np.testing.assert_allclose(E1 + E2, Eall, atol=1e-12)
    np.testing.assert_allclose(Eall, np.eye(L.shape[0]), atol=1e-10)


def test_elementary_kernel_congruence():
    _, L = _dirichlet_laplacian()
    fam = eigensolve(L, count=5)
    lam = fam.lambdas[2]
    Z = elementary_kernel(fam, lam)
    # A Z = lam Z = Z A for a self-adjoint family member
    assert np.linalg.norm(L.A @ Z - lam * Z) / np.linalg.norm(Z) < 1e-9
    assert congruence_residual(Z, L, L) < 1e-12
    with pytest.raises(EmptyBandError):
        elementary_kernel(fam, lam + 1.0)


def test_spectral_sums_match_outer_product_loop():
    # non-normal, diagonalizable, with one doubly degenerate eigenvalue
    rng = np.random.default_rng(12)
    S = rng.standard_normal((10, 10)) + 0.3j * rng.standard_normal((10, 10))
    lams = np.array([1.0, 1.0, 2.0, 3.5, -1.0, 0.5j, 4.0, 5.0, -2.5, 6.0])
    A = S @ np.diag(lams) @ np.linalg.inv(S)
    fam = eigensolve(A, weights=rng.uniform(0.5, 2.0, 10))

    def outer_sum(keep, weights):
        out = np.zeros((10, 10), dtype=complex)
        for k in np.flatnonzero(keep):
            out += np.outer(fam.right[:, k], fam.left[:, k].conj()) * weights[None, :]
        return out

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    low = fam.lambdas.real < 2.5
    assert close(projection_measure(fam, lambda z: z.real < 2.5),
                 outer_sum(low, fam.weights))
    assert close(projection_measure(fam), outer_sum(np.ones(10, bool), fam.weights))
    Z = elementary_kernel(fam, 1.0)
    cluster = np.abs(fam.lambdas - 1.0) < 1e-6
    assert cluster.sum() == 2
    assert close(Z, outer_sum(cluster, np.ones(10)))


def test_kernel_from_measure_heat_kernel():
    _, L = _dirichlet_laplacian(50)
    fam = eigensolve(L)
    t = 1e-3
    K = kernel_from_measure(fam, lambda lam: np.exp(-t * lam))
    E = scipy.linalg.expm(-t * L.A)
    assert np.abs(K - E).max() < 1e-9


def test_kernel_from_measure_commutes_with_operator():
    _, L = _dirichlet_laplacian()
    fam = eigensolve(L)
    K = kernel_from_measure(fam, lambda lam: 1.0 / (1.0 + abs(lam)))
    assert congruence_residual(K, L, L) < 1e-12


def test_weighted_pairing_normalization():
    g, L = _dirichlet_laplacian()
    # varying weights pair through the W-adjoint W^-1 L^* W, whose
    # eigenvectors make the left family
    for w in (np.full(g.n, g.h), np.random.default_rng(0).uniform(0.5, 2.0, g.n)):
        fam = eigensolve(L, weights=w)
        G = fam.left.conj().T @ (w[:, None] * fam.right)
        np.testing.assert_allclose(G, np.eye(len(fam)), atol=1e-10)
        np.testing.assert_allclose(projection_measure(fam), np.eye(g.n), atol=1e-13)
        assert fam.residual_left < 1e-13
