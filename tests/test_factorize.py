"""Triangular splitting of 1 + Phi along projector chains, and the
row-elimination route to the same kernels."""

import numpy as np
import pytest
import scipy.linalg

from delsarte import factorize
from delsarte import (ProjectorChain, SingularMinorError, TriangularPair,
                      break_relation_defect, commutation_check,
                      factor_conjugation_gap, gk_factorize,
                      gk_integral_factors, glm_residual, glm_solve,
                      is_volterra_factor, random_unit_minor,
                      triangular_shear)
from delsarte.errors import DiscretizationError


# Worked 2x2 example, frozen: Phi = [[0,1],[1,1]], 1+Phi = [[1,1],[1,2]]
# LDU gives L = [[1,0],[1,1]], D = diag(1,1), U = [[1,1],[0,1]], so
# K_plus = L^{-1} - 1 = [[0,0],[-1,0]] and K_minus = U - 1 = [[0,1],[0,0]].
PHI_2X2 = np.array([[0.0, 1.0], [1.0, 1.0]])
K_PLUS_2X2 = np.array([[0.0, 0.0], [-1.0, 0.0]])
K_MINUS_2X2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_worked_2x2_example_bitwise():
    pair = gk_factorize(PHI_2X2)
    assert np.array_equal(pair.K_plus, K_PLUS_2X2)
    assert np.array_equal(pair.K_minus, K_MINUS_2X2)
    assert np.array_equal(pair.D, np.ones(2))
    assert pair.residual == 0.0


def test_glm_matches_on_worked_example_bitwise():
    Kp, Km = glm_solve(PHI_2X2)
    assert np.array_equal(Kp, K_PLUS_2X2)
    assert np.array_equal(Km, K_MINUS_2X2)
    assert glm_residual(PHI_2X2, Kp, Km) == 0.0


def test_singular_minor_is_rejected_with_index():
    with pytest.raises(SingularMinorError) as err:
        gk_factorize(np.array([[-1.0, 0.0], [0.0, 0.0]]))
    assert err.value.index == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_kernel_is_rejected(bad):
    Phi = random_unit_minor(8, np.random.default_rng(2))
    Phi[5, 2] = bad
    with pytest.raises(DiscretizationError):
        gk_factorize(Phi)


def test_interior_singular_minor_index():
    # build 1 + Phi = L diag(1,1,1,0,1,1) U: the 4th leading minor dies first
    rng = np.random.default_rng(5)
    n = 6
    Lw = np.tril(0.3 * rng.standard_normal((n, n)), -1) + np.eye(n)
    Uw = np.triu(0.3 * rng.standard_normal((n, n)), 1) + np.eye(n)
    d = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    Phi = Lw @ np.diag(d) @ Uw - np.eye(n)
    with pytest.raises(SingularMinorError) as err:
        gk_factorize(Phi)
    assert err.value.index == 4


def test_random_batch_reconstruction_and_structure():
    rng = np.random.default_rng(11)
    for _ in range(25):
        Phi = random_unit_minor(30, rng)
        pair = gk_factorize(Phi)
        assert pair.residual < 1e-12
        # structural zeros are constructed, not rounded
        assert np.count_nonzero(np.triu(pair.K_plus, 0)) == 0
        assert np.count_nonzero(np.tril(pair.K_minus, 0)) == 0
        assert break_relation_defect(pair.K_plus) == 0.0
        assert break_relation_defect(pair.K_minus) == 0.0
        assert is_volterra_factor(np.eye(30) + pair.K_plus, "+")
        assert is_volterra_factor(np.eye(30) + pair.K_minus, "-")


def test_unit_minor_generator_keeps_d_one():
    rng = np.random.default_rng(2)
    Phi = random_unit_minor(40, rng)
    pair = gk_factorize(Phi)
    np.testing.assert_allclose(pair.D, np.ones(40), atol=1e-10)


def test_one_sided_phi_factors_exactly():
    # strictly lower Phi: 1 + K_plus = (1 + Phi)^{-1}, K_minus = 0, D = 1
    rng = np.random.default_rng(8)
    n = 12
    Phi = np.tril(rng.standard_normal((n, n)), -1)
    pair = gk_factorize(Phi)
    assert np.count_nonzero(pair.K_minus) == 0
    np.testing.assert_array_equal(pair.D, np.ones(n))
    want = np.linalg.inv(np.eye(n) + Phi) - np.eye(n)
    np.testing.assert_allclose(pair.K_plus, want, atol=1e-12)


def test_chain_sum_matches_elimination_on_one_sided_input():
    rng = np.random.default_rng(9)
    n = 10
    Phi = np.tril(rng.standard_normal((n, n)), -1)
    pair = gk_factorize(Phi)
    Ksum = gk_integral_factors(Phi)
    assert np.abs(Ksum - pair.K_plus).max() < 1e-12


def test_chain_sum_worked_2x2_deviation_is_zero():
    Ksum = gk_integral_factors(PHI_2X2)
    assert np.abs(Ksum - K_PLUS_2X2).max() == 0.0


def test_chain_sum_right_evaluation_picks_up_diagonal():
    rng = np.random.default_rng(0)
    Phi = 0.3 * rng.standard_normal((6, 6))
    Kr = gk_integral_factors(Phi, evaluation="right")
    Kl = gk_integral_factors(Phi, evaluation="left")
    assert np.abs(np.diag(Kl)).max() == 0.0
    assert np.abs(np.diag(Kr)).max() > 0.1
    with pytest.raises(ValueError):
        gk_integral_factors(Phi, evaluation="middle")


def test_factorization_nests_along_the_chain():
    # the leading j x j block of the factorization is the factorization of
    # the leading block (chain-subordination of the elimination)
    rng = np.random.default_rng(4)
    Phi = random_unit_minor(20, rng)
    pair = gk_factorize(Phi)
    j = 11
    sub = gk_factorize(Phi[:j, :j])
    np.testing.assert_allclose(pair.K_plus[:j, :j], sub.K_plus, atol=1e-11)
    np.testing.assert_allclose(pair.K_minus[:j, :j], sub.K_minus, atol=1e-11)


def test_reversed_chain_transposes_the_roles():
    rng = np.random.default_rng(6)
    n = 15
    Phi = random_unit_minor(n, rng)
    chain = ProjectorChain.reversed(n)
    pair = gk_factorize(Phi, chain)
    # kernels are triangular in chain order: flipping recovers strictness
    flipped_plus = pair.K_plus[::-1, ::-1]
    flipped_minus = pair.K_minus[::-1, ::-1]
    assert np.count_nonzero(np.triu(flipped_plus, 0)) == 0
    assert np.count_nonzero(np.tril(flipped_minus, 0)) == 0
    recon = np.linalg.solve(np.eye(n) + pair.K_plus,
                            (np.eye(n) + pair.K_minus) * pair.D[:, None])
    np.testing.assert_allclose(recon, np.eye(n) + Phi, atol=1e-11)


def test_triangular_shear_splits_without_overlap():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((8, 8))
    up, lo = triangular_shear(M)
    np.testing.assert_array_equal(up + lo, M)
    assert np.count_nonzero(np.tril(up, 0)) == 0
    np.testing.assert_array_equal(np.diag(lo), np.diag(M))


def test_glm_agrees_with_elimination_on_random_batch():
    rng = np.random.default_rng(13)
    for _ in range(10):
        Phi = random_unit_minor(25, rng)
        pair = gk_factorize(Phi)
        Kp, Km = glm_solve(Phi)
        assert np.abs(Kp - pair.K_plus).max() < 1e-11
        assert glm_residual(Phi, Kp, Km) < 1e-12
        # K_minus of the elimination carries D on its diagonal; the row
        # solve returns D(1+K_minus) - 1 in one piece
        want_km = (np.eye(25) + pair.K_minus) * pair.D[:, None] - np.eye(25)
        assert np.abs(Km - want_km).max() < 1e-11


def test_glm_singular_row_is_rejected():
    with pytest.raises(SingularMinorError) as err:
        glm_solve(np.array([[-1.0, 0.0], [0.0, 0.0]]))
    assert err.value.index == 1


def test_conjugation_gap_vanishes_for_commuting_kernel():
    # Phi = f(L) commutes with L, so both factor conjugations agree
    rng = np.random.default_rng(3)
    n = 14
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    L = Q @ np.diag(np.linspace(1.0, 3.0, n)) @ Q.T
    Phi = 0.3 * scipy.linalg.expm(-L)
    assert commutation_check(Phi, L) < 1e-14
    pair = gk_factorize(Phi)
    assert factor_conjugation_gap(pair, L) < 1e-10
    # a generic kernel does not commute and the gap is O(1)
    Phi_bad = random_unit_minor(n, rng)
    assert commutation_check(Phi_bad, L) > 1e-3
    assert factor_conjugation_gap(gk_factorize(Phi_bad), L) > 1e-3


def test_pair_exactness_flag():
    pair = gk_factorize(PHI_2X2)
    assert isinstance(pair, TriangularPair)
    assert pair.has_unit_diagonal


# ---------------------------------------------------------------------------
# blocked elimination
# ---------------------------------------------------------------------------

def _rank_one_ldu(M):
    """Reference: the unblocked Doolittle loop, one rank-one update per pivot."""
    n = M.shape[0]
    A = M.astype(complex, copy=True)
    L = np.eye(n, dtype=complex)
    U = np.eye(n, dtype=complex)
    d = np.zeros(n, dtype=complex)
    for k in range(n):
        piv = A[k, k]
        d[k] = piv
        L[k + 1:, k] = A[k + 1:, k] / piv
        U[k, k + 1:] = A[k, k + 1:] / piv
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:]) / piv
    return L, d, U


@pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
def test_blocked_ldu_matches_rank_one_loop(n):
    rng = np.random.default_rng(n)
    M = np.eye(n) + random_unit_minor(n, rng, 0.35 / np.sqrt(n))
    got = factorize._ldu(M)
    want = _rank_one_ldu(M)
    for g, w in zip(got, want):
        if n <= factorize._LDU_BLOCK:
            np.testing.assert_array_equal(g, w)
        else:
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


@pytest.mark.parametrize("k", [64, 65, 70, 129])
def test_blocked_ldu_names_first_singular_minor(k):
    # 1 + Phi = L diag(d) U with d[k-1] = 0: minor k is the first to vanish,
    # in the first block, on a block edge, or inside a later block
    rng = np.random.default_rng(k)
    n = 160
    s = 0.3 / np.sqrt(n)
    Lw = np.tril(s * rng.standard_normal((n, n)), -1) + np.eye(n)
    Uw = np.triu(s * rng.standard_normal((n, n)), 1) + np.eye(n)
    d = np.ones(n)
    d[k - 1] = 0.0
    with pytest.raises(SingularMinorError) as err:
        gk_factorize(Lw @ np.diag(d) @ Uw - np.eye(n))
    assert err.value.index == k


def test_glm_dtype_follows_phi():
    Phi = random_unit_minor(20, np.random.default_rng(4))
    for data, dtype in ((Phi, np.float64), (Phi.astype(complex), np.complex128)):
        Kp, Km = glm_solve(data)
        assert Kp.dtype == dtype and Km.dtype == dtype


@pytest.mark.parametrize("n", [5, 20, 50])
def test_real_glm_matches_complex_cast(n):
    Phi = random_unit_minor(n, np.random.default_rng(n))
    Kp, Km = glm_solve(Phi)
    Kpc, Kmc = glm_solve(Phi.astype(complex))
    assert np.abs(Kp - Kpc).max() <= 1e-14
    assert np.abs(Km - Kmc).max() <= 1e-14
