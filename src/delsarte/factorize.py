"""Triangular factorization along the grid's projector chain.

Given an invertible 1 + Phi and the maximal chain of coordinate projectors
P_0 <= P_1 <= ... <= P_n in the natural node order, the factorization

    1 + Phi = (1 + K_plus)^{-1} D (1 + K_minus)

has K_plus strictly lower triangular and K_minus strictly upper triangular,
with D diagonal.  Existence is equivalent to all leading principal minors of
1 + Phi being nonzero; the first failing minor size is reported on failure.
When D = 1 the two factors are unit (Volterra) perturbations of the
identity.  Only the natural chain is built in: to factor along another node
order p, factor Phi[p][:, p] and scatter the kernels back with the inverse
permutation.

Besides the direct elimination route the module carries the additive chain
sum ("integral" along the chain) that rebuilds K_plus from resolvent slices,
and the row-by-row linear-system route (the discrete analog of solving a
layer-stripping equation for the lower kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, SingularMinorError

__all__ = [
    "TriangularPair",
    "triangular_shear",
    "gk_factorize",
    "gk_integral_factors",
    "glm_solve",
    "glm_residual",
    "commutation_check",
    "factor_conjugation_gap",
    "break_relation_defect",
    "random_unit_minor",
    "is_volterra_factor",
]


@dataclass
class TriangularPair:
    """Factorization data: 1 + Phi = (1 + K_plus)^{-1} D (1 + K_minus).

    K_plus is strictly lower and K_minus strictly upper; D is stored as the
    vector of diagonal entries.
    ``has_unit_diagonal`` flags ||D - 1||_inf <= 1e-10, the regime where
    the factorization is a pure two-sided Volterra splitting.
    """

    K_plus: np.ndarray
    D: np.ndarray
    K_minus: np.ndarray
    residual: float

    @property
    def has_unit_diagonal(self) -> bool:
        return bool(np.max(np.abs(self.D - 1.0)) <= 1e-10)


def triangular_shear(Phi: np.ndarray):
    """Split a matrix into (strict upper, lower including diagonal) parts;
    a diagonal matrix therefore lands entirely in the second slot."""
    Phi = np.asarray(Phi)
    return np.triu(Phi, 1), np.tril(Phi, 0)


_LDU_BLOCK = 64  # order of the diagonal blocks eliminated by rank-one updates


def _ldu(M: np.ndarray):
    """Unpivoted Doolittle LDU; raises SingularMinorError at the first bad pivot.

    Blocked right-looking elimination: rank-one updates run only inside each
    diagonal block of order ``_LDU_BLOCK``, the panels beside it come from
    unit-triangular solves, and the trailing matrix takes one matrix-product
    Schur update per block.  Matrices up to the block order take the plain
    rank-one loop.  Every pivot is held against the same threshold, set
    from the whole matrix, so the first bad leading minor is named exactly.
    """
    n = M.shape[0]
    A = M.astype(complex, copy=True)
    L = np.eye(n, dtype=complex)
    U = np.eye(n, dtype=complex)
    d = np.zeros(n, dtype=complex)
    scale = max(float(np.max(np.abs(M))), 1.0)
    tiny = 1e-13 * scale
    for b0 in range(0, n, _LDU_BLOCK):
        b1 = min(b0 + _LDU_BLOCK, n)
        for k in range(b0, b1):
            piv = A[k, k]
            if abs(piv) <= tiny:
                raise SingularMinorError(k + 1)
            d[k] = piv
            if k + 1 < b1:
                L[k + 1:b1, k] = A[k + 1:b1, k] / piv
                U[k, k + 1:b1] = A[k, k + 1:b1] / piv
                A[k + 1:b1, k + 1:b1] -= np.outer(A[k + 1:b1, k], A[k, k + 1:b1]) / piv
        if b1 < n:
            blk = slice(b0, b1)
            # A21 = L21 D11 U11 and A12 = L11 D11 U12
            X = scipy.linalg.solve_triangular(U[blk, blk], A[b1:, blk].T, trans="T",
                                              lower=False, unit_diagonal=True).T
            Y = scipy.linalg.solve_triangular(L[blk, blk], A[blk, b1:],
                                              lower=True, unit_diagonal=True)
            L[b1:, blk] = X / d[blk]
            U[blk, b1:] = Y / d[blk, None]
            A[b1:, b1:] -= X @ U[blk, b1:]
    return L, d, U


def gk_factorize(Phi: np.ndarray) -> TriangularPair:
    """Factor 1 + Phi into triangular Volterra factors along the chain.

    Raises :class:`DiscretizationError` on a non-finite kernel.
    """
    Phi = np.asarray(Phi)
    if not np.all(np.isfinite(Phi)):
        raise DiscretizationError("factorization needs a finite kernel")
    n = Phi.shape[0]
    M = np.eye(n) + Phi
    L, d, U = _ldu(M)
    # 1 + K_plus = L^{-1} (unit lower), 1 + K_minus = U (unit upper)
    Linv = scipy.linalg.solve_triangular(L, np.eye(n), lower=True, unit_diagonal=True)
    # (1 + K_plus)^{-1} D (1 + K_minus), with 1 + K_plus unit lower
    recon = scipy.linalg.solve_triangular(Linv, d[:, None] * U, lower=True,
                                          unit_diagonal=True)
    residual = float(np.linalg.norm(recon - M) / max(np.linalg.norm(M), 1e-300))
    return TriangularPair(Linv - np.eye(n), d, U - np.eye(n), residual)


def gk_integral_factors(Phi: np.ndarray) -> np.ndarray:
    """Additive chain-sum reconstruction of K_plus.

    Sums, over the chain steps, the rank-one slices

        - dP_k  Phi  P  (1 + P Phi P)^{-1},

    with P the prefix projector evaluated on the left endpoint of the step.
    The result is strictly lower triangular and agrees with the elimination
    K_plus exactly whenever Phi is one-sided triangular.
    """
    Phi = np.asarray(Phi)
    n = Phi.shape[0]
    K = np.zeros((n, n), dtype=complex)
    for row in range(1, n):
        block = np.eye(row) + Phi[:row, :row]
        try:
            sol = np.linalg.solve(block.T, Phi[row, :row].conj()).conj()
        except np.linalg.LinAlgError as exc:
            raise SingularMinorError(
                row, f"chain-sum slice at step {row + 1}: {exc}") from exc
        K[row, :row] -= sol
    return K


def glm_solve(Phi: np.ndarray):
    """Row-by-row solve of K_plus + Phi + K_plus Phi = K_minus.

    Row i of K_plus is the unique strictly-lower row making the strictly
    lower part of the left side vanish; K_minus is then read off as the
    upper (diagonal included) remainder, whose lower part is structurally
    zero.  Returns (K_plus, K_minus), real for a real Phi and complex for a
    complex one.
    """
    Phi = np.asarray(Phi)
    n = Phi.shape[0]
    K = np.zeros((n, n), dtype=np.result_type(Phi, float))
    for i in range(1, n):
        block = np.eye(i) + Phi[:i, :i]
        # u^T (1 + Phi_leading) = -Phi[i, :i]
        try:
            u = np.linalg.solve(block.T, -Phi[i, :i])
        except np.linalg.LinAlgError as exc:
            raise SingularMinorError(i, f"row {i} elimination hit a singular minor") from exc
        if not np.all(np.isfinite(u)):
            raise SingularMinorError(i, f"row {i} elimination overflowed")
        K[i, :i] = u
    return K, np.triu(K + Phi + K @ Phi, 0)


def glm_residual(Phi: np.ndarray, K_plus: np.ndarray, K_minus: np.ndarray) -> float:
    """|| K_plus + Phi + K_plus Phi - K_minus ||_F / max(||Phi||_F, 1)."""
    R = K_plus + Phi + K_plus @ Phi - K_minus
    return float(np.linalg.norm(R) / max(np.linalg.norm(Phi), 1.0))


def commutation_check(Phi: np.ndarray, L: np.ndarray) -> float:
    """Normalized commutator ||[Phi, L]||_F / (||Phi||_F ||L||_F)."""
    Phi = np.asarray(Phi)
    L = np.asarray(L)
    denom = np.linalg.norm(Phi) * np.linalg.norm(L)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(Phi @ L - L @ Phi) / denom)


def _conjugate(M: np.ndarray, L: np.ndarray) -> np.ndarray:
    """M L M^{-1} by one linear solve, without forming the inverse."""
    return np.linalg.solve(M.T, (M @ L).T).T


def factor_conjugation_gap(pair: TriangularPair, L: np.ndarray) -> float:
    """Distance between the two factor conjugations of L.

    When [Phi, L] = 0 the identities force
    (1+K_plus) L (1+K_plus)^{-1} = D (1+K_minus) L (1+K_minus)^{-1} D^{-1};
    the returned Frobenius gap is relative to ||L||_F.
    """
    n = L.shape[0]
    Ip = np.eye(n) + pair.K_plus
    Im = np.eye(n) + pair.K_minus
    Lp = _conjugate(Ip, L)
    Lm = (pair.D[:, None] * _conjugate(Im, L)) / pair.D[None, :]
    return float(np.linalg.norm(Lp - Lm) / max(np.linalg.norm(L), 1e-300))


def break_relation_defect(K: np.ndarray) -> float:
    """Largest width-one break (P+ - P-) K (P+ - P-), i.e. diagonal mass.

    The width-one breaks of every chain are the diagonal entries, so no
    chain is needed.  Strictly triangular kernels subordinate to the chain
    carry exact zeros here; any diagonal leakage is reported as the defect.
    """
    K = np.asarray(K)
    return float(np.max(np.abs(np.diag(K))))


def random_unit_minor(n: int, rng: np.random.Generator, scale: float = 0.35) -> np.ndarray:
    """Random Phi with every leading principal minor of 1 + Phi equal to one.

    Built as (1 + A)^{-1} (1 + B) - 1 with A strictly lower and B strictly
    upper; leading minors of a unit-lower times unit-upper product are all 1,
    so the factorization exists with D = 1 up to roundoff.
    """
    A = np.tril(rng.uniform(-scale, scale, (n, n)), -1)
    B = np.triu(rng.uniform(-scale, scale, (n, n)), 1)
    return scipy.linalg.solve_triangular(np.eye(n) + A, np.eye(n) + B, lower=True) - np.eye(n)


def is_volterra_factor(M: np.ndarray, side: str) -> bool:
    """Is M = 1 + strictly triangular (lower for side '+', upper for side '-')?

    The diagonal may miss 1 by 1e-12; the entries across it must be exact
    zeros.
    """
    M = np.asarray(M)
    if not np.allclose(np.diag(M), 1.0, rtol=0.0, atol=1e-12):
        return False
    off = np.triu(M, 1) if side == "+" else np.tril(M, -1)
    return bool(np.max(np.abs(off)) <= 0.0)
