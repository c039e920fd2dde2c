"""Triangular splitting of 1 + Phi along projector chains, and the
row-elimination route to the same kernels."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import factorize
from delsarte import (DelsarteOp, KernelData, SingularMinorError,
                      TriangularPair, break_relation_defect,
                      commutation_check, gk_factorize, glm_residual,
                      glm_solve, independence_check, random_unit_minor)
from delsarte.errors import DiscretizationError
from delsarte.grid_ops import _operator_product


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


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (2, 3), (2, 2, 2, 2)])
def test_kernel_shapes_are_named(shape):
    # an empty kernel has no minor to factor; numpy's reductions used to
    # fail on it with a bare ValueError
    for solve in (gk_factorize, glm_solve):
        with pytest.raises(DiscretizationError, match=re.escape(str(shape))):
            solve(np.zeros(shape))
    with pytest.raises(DiscretizationError, match=re.escape(str(shape))):
        glm_residual(*[np.zeros(shape)] * 3)


def test_glm_residual_names_mismatched_shapes():
    # numpy's broadcast ValueError used to end this
    with pytest.raises(DiscretizationError, match=re.escape("[(4, 4), (5, 5), (4, 4)]")):
        glm_residual(np.eye(4), np.eye(5), np.eye(4))


def test_commutation_check_names_mismatched_shapes():
    # numpy's broadcast ValueError used to end this
    with pytest.raises(DiscretizationError, match=re.escape("(3, 3) and (4, 4)")):
        commutation_check(np.ones((3, 3)), np.eye(4))


def test_break_relation_defect_names_its_shape():
    # np.diagonal's "at least two dimensions" ValueError used to end this
    for shape in ((3,), (2, 3), (0, 0)):
        with pytest.raises(DiscretizationError, match=re.escape(str(shape))):
            break_relation_defect(np.zeros(shape))


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
        assert DelsarteOp("+", pair.K_plus).volterra_defect() == 0.0
        assert DelsarteOp("-", pair.K_minus).volterra_defect() == 0.0


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
    Kglm = glm_solve(Phi)[0]
    assert np.abs(Kglm - pair.K_plus).max() < 1e-12


@pytest.mark.parametrize("lower", [False, True])
def test_chain_sum_matches_elimination_on_complex_phi(lower):
    rng = np.random.default_rng(6)
    Phi = 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    if lower:
        Phi = np.tril(Phi, -1)
    Kglm = glm_solve(Phi)[0]
    assert Kglm.dtype == np.complex128
    assert np.abs(Kglm - gk_factorize(Phi).K_plus).max() <= 1e-12


def test_chain_sum_worked_2x2_deviation_is_zero():
    Kglm = glm_solve(PHI_2X2)[0]
    assert np.abs(Kglm - K_PLUS_2X2).max() == 0.0


def test_chain_sum_is_strictly_lower_on_full_phi():
    rng = np.random.default_rng(0)
    Phi = 0.3 * rng.standard_normal((6, 6))
    Kglm = glm_solve(Phi)[0]
    assert np.count_nonzero(np.triu(Kglm, 0)) == 0


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
    assert independence_check(KernelData(L, Phi))[0] < 1e-10
    # a generic kernel does not commute and the gap is O(1)
    Phi_bad = random_unit_minor(n, rng)
    assert commutation_check(Phi_bad, L) > 1e-3
    assert independence_check(KernelData(L, Phi_bad))[0] > 1e-3


@pytest.mark.parametrize("n", [50, 200])
def test_commutation_check_keeps_the_whole_product_bits(n):
    # the second product is subtracted a block of rows at a time on the
    # band of a tridiagonal L, and whole for a periodic (dense-route) L;
    # the value has the bits of the two whole products' difference
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    tri = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    periodic = tri.copy()
    periodic[0, -1] = periodic[-1, 0] = 1.0
    for L in (tri, periodic):
        for Phi in (rng.standard_normal((n, n)),
                    np.asfortranarray(rng.standard_normal((n, n))),
                    rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
            C = _operator_product(L, Phi, right=True)
            C -= _operator_product(L, Phi)
            want = float(np.linalg.norm(C) / (np.linalg.norm(Phi) * np.linalg.norm(L)))
            assert commutation_check(Phi, L) == want


def test_pair_exactness_flag():
    pair = gk_factorize(PHI_2X2)
    assert isinstance(pair, TriangularPair)
    assert np.max(np.abs(pair.D - 1.0)) <= 1e-10


# ---------------------------------------------------------------------------
# blocked elimination
# ---------------------------------------------------------------------------

def _rank_one_ldu(M):
    """Reference: the unblocked Doolittle loop, one rank-one update per
    pivot, in the dtype the blocked route takes."""
    n = M.shape[0]
    A = M.astype(np.result_type(M, float), copy=True)
    L = np.eye(n, dtype=A.dtype)
    U = np.eye(n, dtype=A.dtype)
    d = np.zeros(n, dtype=A.dtype)
    for k in range(n):
        piv = A[k, k]
        d[k] = piv
        L[k + 1:, k] = A[k + 1:, k] / piv
        U[k, k + 1:] = A[k, k + 1:] / piv
        A[k + 1:, k + 1:] -= np.outer(L[k + 1:, k], A[k, k + 1:])
    return L, d, U


@pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
def test_blocked_ldu_matches_rank_one_loop(n):
    rng = np.random.default_rng(n)
    M = np.eye(n) + random_unit_minor(n, rng, 0.35 / np.sqrt(n))
    # the elimination packs L below the diagonal and U above it, in place
    packed = M.copy()
    d = factorize._ldu(packed)
    got = (np.tril(packed, -1) + np.eye(n), d, np.triu(packed, 1) + np.eye(n))
    want = _rank_one_ldu(M)
    for g, w in zip(got, want):
        if n <= factorize._LDU_BLOCK:
            np.testing.assert_array_equal(g, w)
        else:
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


def test_factorization_holds_one_packed_array(traced_peak):
    # 1 + Phi eliminated in place, L^{-1} solved into the identity and
    # transposed in place into K_plus: two n x n arrays per kernel at the
    # peak (2.14 traced for one kernel at n = 600, 2.10 for a stack of two
    # at n = 300), where a C-ordered copy of L^{-1} made three and three
    # separate factors, their reconstruction and its solves eight
    rng = np.random.default_rng(0)
    one = random_unit_minor(600, rng, 0.35 / np.sqrt(600))
    stack = np.stack([random_unit_minor(300, rng, 0.35 / np.sqrt(300)) for _ in range(2)])
    for Phi in (one, stack):
        pair, peak = traced_peak(gk_factorize, Phi)
        assert peak <= 2.3 * Phi.nbytes
        assert np.max(pair.residual) < 1e-12
        assert pair.K_plus.flags.c_contiguous


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


def test_overflowing_elimination_is_a_singular_minor():
    # pivot 1e290 beside entries 1e300: the second pivot 1 - 1e310 is past
    # the float range, so the first rank-one update overflows
    Phi = np.zeros((6, 6))
    Phi[0, 0] = 1e290
    Phi[0, 1:] = Phi[1:, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMinorError, match="row 1 elimination overflowed"):
            gk_factorize(Phi)


def test_large_finite_kernel_factors_without_overflow():
    # at scale 1e155 the factors are of order one (D of order 1e155): the
    # rank-one update multiplies by the formed L instead of squaring the
    # scale, and the residual norms are taken scale-safely
    Phi = 1e155 * np.random.default_rng(0).uniform(0.5, 1.0, (6, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = gk_factorize(Phi)
        Kp, Km = glm_solve(Phi)
        glm = glm_residual(Phi, Kp, Km)
    for X in (pair.K_plus, pair.D, pair.K_minus):
        assert np.all(np.isfinite(X))
    np.testing.assert_allclose(pair.K_plus, Kp, rtol=0, atol=1e-12 * np.abs(Kp).max())
    assert pair.residual <= 1e-14
    assert np.isfinite(glm) and glm <= 1e-14


def test_overflowing_panel_is_a_singular_minor():
    # moderate entries whose first-block panel solve grows past the float
    # range (U11 = 1 + 1e6 N): the blocked path fails at the panel, not at
    # a pivot, with the kernel named in a stack
    n = 130
    Phi = np.zeros((n, n))
    Phi[:64, :64] = 1e6 * np.triu(np.ones((64, 64)), 1)
    Phi[64:, :64] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMinorError, match="row 64 elimination overflowed$"):
            gk_factorize(Phi)
        with pytest.raises(SingularMinorError, match="of kernel 1 in the stack") as err:
            gk_factorize(np.stack([np.zeros((n, n)), Phi]))
    assert err.value.index == 65


@pytest.mark.parametrize("row, entries", [
    (64, {(64, 0): 1e9}),                   # the block's first row, left of it
    (70, {(70, 0): 1e9}),                   # a later row of the block
    (65, {(64, 0): 1e8, (65, 64): 10.0}),   # finite parts, overflowing product
])
def test_overflowing_glm_row_in_a_later_block_is_named(row, entries):
    # M = 1 + 1e6 N on the leading 51 x 51 block (N strictly upper ones) has
    # an inverse of order 1e300, still finite; the rows of the sweep's second
    # block that take a large multiple of its first row overflow
    n = 2 * factorize._LDU_BLOCK + 2
    Phi = np.zeros((n, n))
    Phi[:51, :51] = 1e6 * np.triu(np.ones((51, 51)), 1)
    for ij, value in entries.items():
        Phi[ij] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMinorError,
                           match=f"row {row} elimination overflowed$") as err:
            glm_solve(Phi)
        assert err.value.index == row
        with pytest.raises(SingularMinorError,
                           match=f"row {row} elimination overflowed of kernel 1 in the stack"):
            glm_solve(np.stack([np.zeros((n, n)), Phi]))
    # the rows before it are finite across the block edge
    assert np.isfinite(glm_solve(Phi[:row, :row])[0]).all()


@pytest.mark.parametrize("j", [63, 64, 65, 127, 128, 129])
def test_glm_leading_block_is_the_leading_kernels_glm(j):
    # row i of K_plus sees only the leading (i + 1) x (i + 1) block of Phi,
    # so cutting the kernel on either side of a block edge cuts K_plus
    n = 2 * factorize._LDU_BLOCK + 20
    Phi = random_unit_minor(n, np.random.default_rng(j), 0.3 / np.sqrt(n))
    got, want = glm_solve(Phi)[0][:j, :j], glm_solve(Phi[:j, :j])[0]
    assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)


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


# ---------------------------------------------------------------------------
# property: drawn sizes on both sides of the LDU block, drawn minor scales
# ---------------------------------------------------------------------------

@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(2, 2 * factorize._LDU_BLOCK + 2),
       scale=st.floats(1e-3, 0.49),
       seed=st.integers(0, 2 ** 32 - 1))
def test_drawn_unit_minors_meet_the_factorize_rows(n, scale, seed):
    Phi = random_unit_minor(n, np.random.default_rng(seed), scale)
    pair = gk_factorize(Phi)
    assert pair.residual <= 1e-10
    assert np.count_nonzero(np.triu(pair.K_plus, 0)) == 0
    assert np.count_nonzero(np.tril(pair.K_minus, 0)) == 0
    Kp, Km = glm_solve(Phi)
    assert glm_residual(Phi, Kp, Km) <= 1e-10
    assert np.abs(Kp - pair.K_plus).max() <= 1e-9


# ---------------------------------------------------------------------------
# property: a stack factors each kernel as it factors alone
# ---------------------------------------------------------------------------

def _unit_minor_stack(rng, count, n, scale, complex_kernels):
    """``count`` kernels (1 + A)^{-1} (1 + B) - 1, A strictly lower and B
    strictly upper, complex when asked."""
    def part(k):
        X = rng.uniform(-scale, scale, (count, n, n))
        if complex_kernels:
            X = X + 1j * rng.uniform(-scale, scale, (count, n, n))
        return np.tril(X, -1) if k < 0 else np.triu(X, 1)
    eye = np.eye(n)
    return scipy.linalg.solve_triangular(eye + part(-1), eye + part(1), lower=True) - eye


def _row_by_row_glm(Phi):
    """Reference: one 1-D solve per row of one kernel."""
    n = Phi.shape[0]
    K = np.zeros((n, n), dtype=np.result_type(Phi, float))
    for i in range(1, n):
        K[i, :i] = np.linalg.solve((np.eye(i) + Phi[:i, :i]).T, -Phi[i, :i])
    return K, np.triu(K + Phi + K @ Phi, 0)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(count=st.integers(1, 6),
       n=st.integers(2, 2 * factorize._LDU_BLOCK + 2),
       scale=st.floats(1e-3, 0.49),
       complex_kernels=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stack_factors_each_kernel_as_alone(count, n, scale, complex_kernels, seed):
    Phi = _unit_minor_stack(np.random.default_rng(seed), count, n, scale,
                            complex_kernels)
    pair = gk_factorize(Phi)
    Kp, Km = glm_solve(Phi)
    assert pair.residual.shape == (count,)
    # the residual norms are summed as np.linalg.norm sums one matrix
    np.testing.assert_array_equal(factorize._frobenius(Phi),
                                  [np.linalg.norm(p) for p in Phi])
    # the sweep sums in another order than the per-row solves: the two
    # routes agree at roundoff (worst drawn deviation 1.7e-12)
    for got, want in zip((Kp[0], Km[0]), _row_by_row_glm(Phi[0])):
        assert np.abs(got - want).max() <= 1e-11
    for b in range(count):
        for alone in (Phi[b:b + 1], Phi[b]):
            one = gk_factorize(alone)
            kp, km = glm_solve(alone)
            single = alone.ndim == 2
            for got, want in ((pair.K_plus[b], one.K_plus), (pair.D[b], one.D),
                              (pair.K_minus[b], one.K_minus),
                              (pair.residual[b], one.residual),
                              (Kp[b], kp), (Km[b], km)):
                np.testing.assert_array_equal(got, want if single else want[0])


@pytest.mark.parametrize("k", [5, 70, factorize._LDU_BLOCK, factorize._LDU_BLOCK + 1])
def test_stack_names_the_singular_kernel(k):
    rng = np.random.default_rng(k)
    n = 80
    Phi = _unit_minor_stack(rng, 4, n, 0.3 / np.sqrt(n), False)
    d = np.ones(n)
    d[k - 1] = 0.0
    Lw = np.eye(n) + np.tril(0.3 / np.sqrt(n) * rng.standard_normal((n, n)), -1)
    Uw = np.eye(n) + np.triu(0.3 / np.sqrt(n) * rng.standard_normal((n, n)), 1)
    Phi[2] = Lw @ np.diag(d) @ Uw - np.eye(n)
    for route in (gk_factorize, glm_solve):
        with pytest.raises(SingularMinorError,
                           match=f"size {k} of kernel 2 in the stack") as err:
            route(Phi)
        assert err.value.index == k
    stack = np.stack([PHI_2X2, PHI_2X2, np.array([[-1.0, 0.0], [0.0, 0.0]])])
    with pytest.raises(SingularMinorError, match="kernel 2 in the stack") as err:
        glm_solve(stack)
    assert err.value.index == 1


def test_stack_needs_only_two_dimensional_triangular_solves(monkeypatch):
    # SciPy before 1.15 refuses stacks in solve_triangular; the package
    # supports those versions, so a stack must reach it one matrix at a time
    n = 2 * factorize._LDU_BLOCK + 3
    Phi = _unit_minor_stack(np.random.default_rng(3), 3, n, 0.3 / np.sqrt(n), True)
    want = gk_factorize(Phi)
    solve = scipy.linalg.solve_triangular

    def two_dimensional(a, b, *args, **kw):
        if np.ndim(a) != 2 or np.ndim(b) > 2:
            raise ValueError("expected square matrix")
        return solve(a, b, *args, **kw)

    monkeypatch.setattr(scipy.linalg, "solve_triangular", two_dimensional)
    got = gk_factorize(Phi)
    for field in ("K_plus", "D", "K_minus", "residual"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def test_chain_routes_need_no_dense_solve(monkeypatch):
    # the GLM rows come from one sweep along the chain, which reuses the
    # nested leading blocks instead of solving each one
    n = 2 * factorize._LDU_BLOCK + 3
    stack = _unit_minor_stack(np.random.default_rng(7), 3, n, 0.3 / np.sqrt(n), True)
    one = random_unit_minor(40, np.random.default_rng(8))
    want = glm_solve(stack), glm_solve(one)[0]

    def refuse(*args, **kw):
        raise AssertionError("dense solve on a chain route")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(scipy.linalg, "solve", refuse)
    (Kp, Km), Kglm = glm_solve(stack), glm_solve(one)[0]
    np.testing.assert_array_equal(Kp, want[0][0])
    np.testing.assert_array_equal(Km, want[0][1])
    np.testing.assert_array_equal(Kglm, want[1])
