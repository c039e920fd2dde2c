"""Hermitian eigenfamilies, spectral measures, and kernel calculus."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import delsarte
from delsarte import (DiffOp, DiscretizationError, DressingSeed,
                      EmptyBandError, Grid1D, ProductGrid,
                      SchrodingerOp, congruence_residual, darboux_once,
                      discretize, eigensolve, elementary_kernel,
                      kernel_from_measure, projection_measure)
from delsarte.grid_ops import _band_matvec, _upper_band
from delsarte.spectral import _tridiagonal_eigh, _two_norm


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
    assert fam.residual < 1e-12


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
    fam = eigensolve(L, band=(lo, hi))
    assert len(fam) == 3
    np.testing.assert_array_equal(fam.lambdas, full[1:4])
    with pytest.raises(EmptyBandError):
        eigensolve(L, band=(-100.0, -50.0))


def test_non_finite_input_rejected():
    _, L = _dirichlet_laplacian(20)
    A = L.A.copy()
    A[2, 3] = np.nan
    with pytest.raises(DiscretizationError):
        eigensolve(A)
    # bad shapes are named, not numpy's broadcast or index errors
    for A, shape in ((L.A[:, :-1], "(20, 19)"), (np.zeros((0, 0)), "(0, 0)")):
        with pytest.raises(DiscretizationError, match=re.escape(shape)):
            eigensolve(A)


def test_hermitian_flag_is_checked():
    # every call holds the operator to |A - A^H| <= 1e-14 ||A||_inf: an
    # upper-triangular perturbation of diag(1..6) is named, where the band
    # of its upper half would give wrong eigenvalues with a tiny recorded
    # residual; hermitian=False (or None) is refused even on a Hermitian one
    rng = np.random.default_rng(0)
    A = np.diag(np.arange(1.0, 7.0)) + 0.5 * np.triu(rng.standard_normal((6, 6)), 1)
    for flag in (True, False, None):
        with pytest.raises(DiscretizationError, match=r"max \|A - A\^H\| = 6\.3"):
            eigensolve(A, hermitian=flag)
    _, L = _dirichlet_laplacian(20)
    for flag in (False, None):
        with pytest.raises(DiscretizationError, match=rf"hermitian={flag}.* = 0\.000e\+00"):
            eigensolve(L, hermitian=flag)
    # an asymmetry just inside the tolerance is solved, with the family of
    # its upper band; one just outside is named
    tol = 1e-14 * np.linalg.norm(L.A, np.inf)
    B = L.A.copy()
    B[3, 4] += 0.5 * tol
    fam = eigensolve(B)
    assert fam.left is fam.right
    assert fam.lambdas.tobytes() == eigensolve(np.triu(B) + np.triu(B, 1).T).lambdas.tobytes()
    B[3, 4] += 1.5 * tol
    with pytest.raises(DiscretizationError, match="Hermitian operators only"):
        eigensolve(B)


def test_hermitian_path_takes_lapack_vectors_without_an_svd(monkeypatch):
    # LAPACK returns the Hermitian eigenvectors orthonormal, so no call
    # normalizes them through an SVD, whatever it selects
    _, L = _dirichlet_laplacian(60)
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(scipy.linalg, "svd", counted)
    for kwargs in ({}, {"count": 3}, {"band": (0.0, 50.0)}):
        fam = eigensolve(L, **kwargs)
        assert fam.biorthogonality_defect() < 1e-12
    eigensolve(_periodic_laplacian(16))
    eigensolve(_complex_hermitian_tridiagonal(40))
    assert calls == []


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
    # the periodic Laplacian: doubly degenerate interior eigenvalues
    fam = eigensolve(_periodic_laplacian(16))
    n = len(fam)

    def outer_sum(keep):
        out = np.zeros((n, n))
        for k in np.flatnonzero(keep):
            out += np.outer(fam.right[:, k], fam.right[:, k].conj())
        return out

    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    low = fam.lambdas < 2.5
    assert close(projection_measure(fam, lambda z: z < 2.5), outer_sum(low))
    assert close(projection_measure(fam), outer_sum(np.ones(n, bool)))
    lam = fam.lambdas[np.flatnonzero(np.diff(fam.lambdas) < 1e-8)[0]]
    Z = elementary_kernel(fam, lam)
    cluster = np.abs(fam.lambdas - lam) < 1e-6
    assert cluster.sum() == 2
    assert close(Z, outer_sum(cluster))


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


def _phase_fixed(V):
    """Columns rotated so the largest-magnitude component is positive real."""
    piv = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return V / (piv / np.abs(piv))


def _soliton_operator(n):
    # dressed off-center, so no eigenvector has two mirror-image largest
    # components and the phase convention picks one sign
    g = Grid1D.dirichlet(-8.0, 8.0, n)
    seed = DressingSeed.hyperbolic(g, 1.0, center=0.37)
    return darboux_once(SchrodingerOp.free(g), seed).operator.matrix().A


def _periodic_laplacian(n=64):
    g = Grid1D.periodic(0.0, 2 * np.pi, n)
    return discretize(DiffOp(ProductGrid.line(g), {(2,): -1.0})).A


def _complex_hermitian_tridiagonal(n=200):
    rng = np.random.default_rng(3)
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    return (np.diag(rng.standard_normal(n)).astype(complex)
            + np.diag(off, 1) + np.diag(off.conj(), -1))


@pytest.mark.parametrize("make, phase_fixed_share", [
    (lambda: _soliton_operator(40), 0.5), (lambda: _soliton_operator(600), 0.5),
    (lambda: _soliton_operator(1600), 0.5), (_periodic_laplacian, 0.0),
    (_complex_hermitian_tridiagonal, 0.5),
], ids=["dirichlet-40", "dirichlet-600", "dirichlet-1600", "periodic-64",
        "complex-hermitian-200"])
def test_band_route_matches_dense_route(make, phase_fixed_share):
    A = make()
    fam = eigensolve(A, hermitian=True)
    lams, V = scipy.linalg.eigh(A)  # dense oracle
    n, scale = len(lams), np.max(np.abs(lams))
    assert np.max(np.abs(fam.lambdas - lams)) <= 1e-12 * scale
    assert fam.biorthogonality_defect() <= 1e-12
    assert fam.left is fam.right
    # vectors agree within the perturbation bound 1e-13 ||A|| / gap: column
    # by column where an eigenvalue is simple and its vector's largest
    # component leads the next by more than the bound, so the phase
    # convention picks the same component (the periodic simple vectors have
    # tied components); as an eigenspace in a degenerate cluster
    tol = 1e-8 * np.linalg.norm(A, np.inf)
    starts = np.r_[0, np.flatnonzero(np.diff(lams) > tol) + 1, n]
    fixed = 0
    for lo, hi in zip(starts[:-1], starts[1:]):
        gap = min(np.r_[lams[lo] - lams[:lo], lams[hi:] - lams[hi - 1]])
        bound = 1e-13 * scale / gap
        if hi - lo > 1:
            P, Q = fam.right[:, lo:hi], V[:, lo:hi]
            assert np.linalg.norm(P @ P.conj().T - Q @ Q.conj().T) <= bound
            continue
        top2 = np.sort(np.abs(V[:, lo]))[-2:]
        if top2[1] - top2[0] > 2.0 * bound:
            fixed += 1
            v = _phase_fixed(V[:, lo:hi])[:, 0]
            assert np.linalg.norm(fam.right[:, lo] - v) <= bound
    assert fixed >= phase_fixed_share * n


def test_band_products_match_dense_products():
    # the products behind eigensolve's Hermitian residuals, on a dense
    # non-normal matrix and a tridiagonal one with a shifted superdiagonal,
    # both made Hermitian: the dense one is its own full band
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 12)) + 0.2j * rng.standard_normal((12, 12))
    _, L = _dirichlet_laplacian(30)
    T = L.A + np.diag(np.full(29, 3.0), 1)
    for M, bw in ((A + A.conj().T, 11), (T + T.T, 1)):
        ab = _upper_band(M)
        assert ab.shape == (bw + 1, M.shape[0])
        n = M.shape[0]
        V = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        np.testing.assert_allclose(_band_matvec(ab, V), M @ V, rtol=1e-13)
        np.testing.assert_allclose(_band_matvec(ab, V[:, 0]), M @ V[:, 0], rtol=1e-13)


def test_two_norm_of_a_tridiagonal_operator_comes_from_its_band(monkeypatch):
    # a Hermitian tridiagonal operator's 2-norm is its largest |eigenvalue|,
    # read from the band; a wider, periodic or non-Hermitian operator keeps
    # the dense SVD, bit for bit
    rng = np.random.default_rng(6)
    _, L = _dirichlet_laplacian(60)
    T = L.A + np.diag(rng.standard_normal(60))
    H = T + 1j * (np.diag(np.full(59, 2.0), 1) - np.diag(np.full(59, 2.0), -1))
    periodic = ProductGrid.line(Grid1D.periodic(0.0, 1.0, 30))
    dense = [T + np.diag(np.ones(58), 2) + np.diag(np.ones(58), -2),
             T + np.diag(np.ones(59), 1),
             discretize(DiffOp(periodic, {(2,): -1.0})).A,
             rng.standard_normal((7, 7))]
    want = [np.linalg.norm(M, 2) for M in (T, -T, H, 0 * T)]
    for M in dense:
        assert _two_norm(M) == np.linalg.norm(M, 2)
    norm = np.linalg.norm

    def frobenius_only(x, ord=None, *args, **kw):
        if ord is not None:
            raise AssertionError("dense 2-norm of a tridiagonal operator")
        return norm(x, ord, *args, **kw)

    monkeypatch.setattr(np.linalg, "norm", frobenius_only)
    for M, w in zip((T, -T, H, 0 * T), want):
        assert abs(_two_norm(M) - w) <= 1e-14 * max(w, 1.0)
    assert congruence_residual(np.eye(60), T, T) == 0.0


def _eig_banded_calls(tree):
    """(enclosing function, keyword names) of each ``eig_banded`` call."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "eig_banded":
                out.append((func, {k.arg for k in node.keywords}))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


def test_spectra_come_from_the_band():
    """No dense symmetric eigensolver in the package: ``eigh`` is reached
    only as ``np.linalg.eigh`` (the Hodge Laplacian's harmonic space), never
    from ``scipy.linalg``.  No general eigensolver either: the one ``eig``
    or ``eigvals`` named is ``np.linalg.eigvals`` in criterion 3, the oracle
    of the dense conjugate's spectrum.  ``eig_banded`` computes a whole
    spectrum only in ``_band_eigvals`` (eigenvalues) and ``eigensolve``
    (the full family, vectors included); every other call selects."""
    src = Path(delsarte.__file__).parent
    bad, general, full = [], [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "scipy.linalg", "numpy.linalg"):
                bad += [f"{path.name}: import {a.name}" for a in node.names
                        if a.name in ("eigh", "eig", "eigvals")]
            if isinstance(node, ast.Attribute) and node.attr == "eigh":
                if ast.unparse(node.value) not in ("np.linalg", "numpy.linalg"):
                    bad.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
            if isinstance(node, ast.Attribute) and node.attr in ("eig", "eigvals"):
                general.append((path.name, ast.unparse(node)))
        for func, keywords in _eig_banded_calls(tree):
            if "select" not in keywords:
                full.add((path.name, func, "eigvals_only" in keywords))
    assert bad == []
    assert general == [("acceptance.py", "np.linalg.eigvals")]
    assert full == {("darboux.py", "_band_eigvals", True),
                    ("spectral.py", "eigensolve", False)}


@pytest.mark.parametrize("n", [200, 600])
def test_tridiagonal_eigenpairs_match_eig_banded_bitwise(n, monkeypatch):
    # stevd runs sbevd's divide and conquer without its Q = I product
    g = Grid1D.dirichlet(-8.0, 8.0, n)
    base = SchrodingerOp.free(g)
    dressed = darboux_once(base, DressingSeed.hyperbolic(g, 1.03, "even", 0.37)).operator
    split = base.to_banded()
    split[0, n // 2] = 0.0  # two decoupled blocks: eigenvectors with exact zeros
    for ab in (base.to_banded(), dressed.to_banded(), split):
        lams, vecs = _tridiagonal_eigh(ab)
        want_lams, want_vecs = scipy.linalg.eig_banded(ab, check_finite=False)
        assert lams.tobytes() == want_lams.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()
    # the full family of a real tridiagonal operator takes that route
    monkeypatch.setattr(scipy.linalg, "eig_banded", None)
    fam = eigensolve(dressed.matrix(), hermitian=True)
    assert fam.right.dtype == np.float64 and len(fam) == n
