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
layer-stripping equation for the lower kernel).  Both the elimination and
the row-by-row route take one kernel (n, n) or a stack (B, n, n) worked in
lockstep, so many small kernels share each elimination step and row solve.
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
    vector of diagonal entries.  For a stack of kernels every field carries
    the stack axis first and ``residual`` is one value per kernel.
    ``has_unit_diagonal`` flags ||D - 1||_inf <= 1e-10, the regime where
    the factorization is a pure two-sided Volterra splitting.
    """

    K_plus: np.ndarray
    D: np.ndarray
    K_minus: np.ndarray
    residual: float | np.ndarray

    @property
    def has_unit_diagonal(self) -> bool:
        return bool(np.max(np.abs(self.D - 1.0)) <= 1e-10)


def triangular_shear(Phi: np.ndarray):
    """Split a matrix into (strict upper, lower including diagonal) parts;
    a diagonal matrix therefore lands entirely in the second slot."""
    Phi = np.asarray(Phi)
    return np.triu(Phi, 1), np.tril(Phi, 0)


_LDU_BLOCK = 64  # order of the diagonal blocks eliminated by rank-one updates


def _in_stack(bad: np.ndarray) -> str:
    """Where in a stack the first flagged kernel sits ('' for one matrix)."""
    return f" of kernel {int(np.argmax(bad))} in the stack" if bad.ndim else ""


def _frobenius(X: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes, summed the way
    ``np.linalg.norm`` sums one matrix (a BLAS dot of the raveled real and
    imaginary parts), so a stack gives the single-matrix bits."""
    v = X.reshape(X.shape[:-2] + (1, -1))
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return np.sqrt(sum(p @ np.swapaxes(p, -1, -2) for p in parts))[..., 0, 0]


def _unit_triangular_solve(T: np.ndarray, B: np.ndarray, **kw) -> np.ndarray:
    """``solve_triangular`` with a unit diagonal on one matrix or a stack.

    SciPy takes stacks only from 1.15, so a stack is solved one kernel at a
    time (as SciPy's own batching does); each kernel gets its 2-D bits.
    The stack's slices are Fortran-ordered, the layout LAPACK returns each
    solution in, so filling them is a plain copy and not a transpose.
    """
    if T.ndim == 2:
        return scipy.linalg.solve_triangular(T, B, unit_diagonal=True, **kw)
    B = np.broadcast_to(B, T.shape[:-2] + B.shape[-2:])
    X = np.empty((len(B), B.shape[-1], B.shape[-2]),
                 np.result_type(T, B, float)).swapaxes(-1, -2)
    for t, b, x in zip(T, B, X):
        x[...] = scipy.linalg.solve_triangular(t, b, unit_diagonal=True, **kw)
    return X


def _square_kernels(Phi) -> np.ndarray:
    """``Phi`` as an array, after checking it is one square kernel (n, n)
    or a stack of them (B, n, n)."""
    Phi = np.asarray(Phi)
    if Phi.ndim not in (2, 3) or Phi.shape[-1] != Phi.shape[-2]:
        raise DiscretizationError(
            f"factorization needs a square kernel or a stack of them, got shape {Phi.shape}")
    return Phi


def _ldu(M: np.ndarray):
    """Unpivoted Doolittle LDU of a matrix or a stack (..., n, n); raises
    SingularMinorError at the first bad pivot.

    Blocked right-looking elimination: rank-one updates run only inside each
    diagonal block of order ``_LDU_BLOCK``, the panels beside it come from
    unit-triangular solves, and the trailing matrix takes one matrix-product
    Schur update per block.  Matrices up to the block order take the plain
    rank-one loop.  A stack is eliminated in lockstep: each rank-one step
    and Schur update is one numpy call for all its matrices, the panel
    solves run matrix by matrix, and each matrix gets the bits it gets
    alone.  Every pivot is held against a threshold set from its whole
    matrix, so the first bad leading minor is named exactly, with the
    kernel's position when a stack is factored.  The factors take the
    dtype ``np.result_type(M, float)``: real for a real matrix.
    """
    A = np.array(M, dtype=np.result_type(M, float))
    n = A.shape[-1]
    L = np.broadcast_to(np.eye(n, dtype=A.dtype), A.shape).copy()
    U = L.copy()
    d = np.zeros(A.shape[:-1], dtype=A.dtype)
    tiny = 1e-13 * np.maximum(np.max(np.abs(M), axis=(-2, -1)), 1.0)
    for b0 in range(0, n, _LDU_BLOCK):
        b1 = min(b0 + _LDU_BLOCK, n)
        for k in range(b0, b1):
            piv = A[..., k, k]
            bad = np.abs(piv) <= tiny
            if bad.any():
                raise SingularMinorError(
                    k + 1, f"leading principal minor of size {k + 1}"
                    f"{_in_stack(bad)} is singular")
            d[..., k] = piv
            if k + 1 < b1:
                r = slice(k + 1, b1)
                L[..., r, k] = A[..., r, k] / piv[..., None]
                U[..., k, r] = A[..., k, r] / piv[..., None]
                A[..., r, r] -= A[..., r, k, None] * A[..., k, None, r] / piv[..., None, None]
        if b1 < n:
            blk = slice(b0, b1)
            # A21 = L21 D11 U11 and A12 = L11 D11 U12
            X = np.swapaxes(_unit_triangular_solve(
                U[..., blk, blk], np.swapaxes(A[..., b1:, blk], -1, -2), trans="T",
                lower=False), -1, -2)
            Y = _unit_triangular_solve(L[..., blk, blk], A[..., blk, b1:], lower=True)
            L[..., b1:, blk] = X / d[..., None, blk]
            U[..., blk, b1:] = Y / d[..., blk, None]
            A[..., b1:, b1:] -= X @ U[..., blk, b1:]
    return L, d, U


def gk_factorize(Phi: np.ndarray) -> TriangularPair:
    """Factor 1 + Phi into triangular Volterra factors along the chain.

    ``Phi`` is one kernel (n, n) or a stack (B, n, n) factored in lockstep;
    each kernel of a stack gets the bits it gets alone.  The factors are
    real for a real kernel and complex for a complex one.  Raises
    :class:`DiscretizationError` on a non-square or non-finite kernel.
    """
    Phi = _square_kernels(Phi)
    if not np.all(np.isfinite(Phi)):
        raise DiscretizationError("factorization needs a finite kernel")
    eye = np.eye(Phi.shape[-1])
    M = eye + Phi
    L, d, U = _ldu(M)
    # 1 + K_plus = L^{-1} (unit lower), 1 + K_minus = U (unit upper)
    Linv = _unit_triangular_solve(L, eye, lower=True)
    # (1 + K_plus)^{-1} D (1 + K_minus), with 1 + K_plus unit lower
    recon = _unit_triangular_solve(Linv, d[..., None] * U, lower=True)
    residual = _frobenius(recon - M) / np.maximum(_frobenius(M), 1e-300)
    return TriangularPair(Linv - eye, d, U - eye,
                          residual if residual.ndim else float(residual))


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
    K = np.zeros((n, n), dtype=np.result_type(Phi, float))
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
    zero.  ``Phi`` is one kernel (n, n) or a stack (B, n, n); a stack takes
    one batched solve per row, and each kernel gets the bits it gets alone.
    Returns (K_plus, K_minus), real for a real Phi and complex for a
    complex one.  Raises :class:`DiscretizationError` on a non-square kernel.
    """
    Phi = _square_kernels(Phi)
    n = Phi.shape[-1]
    K = np.zeros(Phi.shape, dtype=np.result_type(Phi, float))
    # the leading blocks of 1 + Phi, formed once: adding the identity to
    # a stack block by block broadcasts slowly
    M = np.eye(n) + Phi
    for i in range(1, n):
        # u^T (1 + Phi_leading) = -Phi[i, :i]
        blockT = np.swapaxes(M[..., :i, :i], -1, -2)
        try:
            u = np.linalg.solve(blockT, -Phi[..., i, :i, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularMinorError(
                i, f"row {i} elimination hit a singular minor"
                f"{_in_stack(np.linalg.det(blockT) == 0.0)}") from exc
        finite = np.all(np.isfinite(u), axis=-1)
        if not finite.all():
            raise SingularMinorError(i, f"row {i} elimination overflowed{_in_stack(~finite)}")
        K[..., i, :i] = u
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


def _conjugate(M: np.ndarray, L: np.ndarray, lower: bool) -> np.ndarray:
    """M L M^{-1} for a triangular M (lower or upper as the caller says),
    by one triangular solve M^T X^T = (M L)^T, without forming the inverse."""
    return scipy.linalg.solve_triangular(M, (M @ L).T, trans="T", lower=lower).T


def factor_conjugation_gap(pair: TriangularPair, L: np.ndarray) -> float:
    """Distance between the two factor conjugations of L.

    When [Phi, L] = 0 the identities force
    (1+K_plus) L (1+K_plus)^{-1} = D (1+K_minus) L (1+K_minus)^{-1} D^{-1};
    the returned Frobenius gap is relative to ||L||_F.
    """
    n = L.shape[0]
    Ip = np.eye(n) + pair.K_plus
    Im = np.eye(n) + pair.K_minus
    Lp = _conjugate(Ip, L, lower=True)
    Lm = (pair.D[:, None] * _conjugate(Im, L, lower=False)) / pair.D[None, :]
    return float(np.linalg.norm(Lp - Lm) / max(np.linalg.norm(L), 1e-300))


def break_relation_defect(K: np.ndarray) -> float:
    """Largest width-one break (P+ - P-) K (P+ - P-), i.e. diagonal mass.

    The width-one breaks of every chain are the diagonal entries, so no
    chain is needed.  Strictly triangular kernels subordinate to the chain
    carry exact zeros here; any diagonal leakage is reported as the defect.
    """
    K = np.asarray(K)
    return float(np.max(np.abs(np.diagonal(K, axis1=-2, axis2=-1))))


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
