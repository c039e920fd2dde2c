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

Besides the elimination the module carries the layer-stripping route, the
discrete GLM equation, which sweeps the chain one row of K_plus per step.
Both take one kernel (n, n) or a stack (B, n, n) in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, SingularMinorError
from .grid_ops import _operator_product

__all__ = [
    "TriangularPair",
    "gk_factorize",
    "glm_solve",
    "glm_residual",
    "commutation_check",
    "break_relation_defect",
    "random_unit_minor",
]


@dataclass
class TriangularPair:
    """Factorization data: 1 + Phi = (1 + K_plus)^{-1} D (1 + K_minus).

    K_plus is strictly lower and K_minus strictly upper; D is stored as the
    vector of diagonal entries.  For a stack of kernels every field carries
    the stack axis first and ``residual`` is one value per kernel.
    """

    K_plus: np.ndarray
    D: np.ndarray
    K_minus: np.ndarray
    residual: float | np.ndarray



_LDU_BLOCK = 64  # order of the diagonal blocks eliminated by rank-one updates


def _in_stack(bad: np.ndarray) -> str:
    """Where in a stack the first flagged kernel sits ('' for one matrix)."""
    return f" of kernel {int(np.argmax(bad))} in the stack" if bad.ndim else ""


def _frobenius(X: np.ndarray) -> np.ndarray:
    """Frobenius norm over the last two axes, summed the way
    ``np.linalg.norm`` sums one matrix (a BLAS dot of the raveled real and
    imaginary parts), so a stack gives the single-matrix bits.

    Each matrix is first scaled by the power of two at or above its largest
    entry, which is exact, so the squares cannot overflow and a finite
    matrix has a finite norm, with the bits of the unscaled sum wherever
    that sum neither overflows nor underflows."""
    X = np.asarray(X)
    scale = np.ldexp(1.0, np.frexp(np.max(np.abs(X), axis=(-2, -1), initial=0.0))[1])
    v = (X / scale[..., None, None]).reshape(X.shape[:-2] + (1, -1))
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return scale * np.sqrt(sum(p @ np.swapaxes(p, -1, -2) for p in parts))[..., 0, 0]


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
    or a stack of them (B, n, n), with n >= 1."""
    Phi = np.asarray(Phi)
    if Phi.ndim not in (2, 3) or Phi.shape[-1] != Phi.shape[-2] or Phi.shape[-1] == 0:
        raise DiscretizationError(
            f"factorization needs a square kernel of size at least 1 or a stack "
            f"of them, got shape {Phi.shape}")
    return Phi


def _pivot_floor(M: np.ndarray) -> np.ndarray:
    """1e-13 max(max|M|, 1) per matrix: a pivot at or below it is zero."""
    return 1e-13 * np.maximum(np.max(np.abs(M), axis=(-2, -1)), 1.0)


def _check_pivot(piv: np.ndarray, tiny: np.ndarray, k: int) -> np.ndarray:
    """``piv`` after checking that it is finite (NaN is not) and above ``tiny``."""
    a = np.abs(piv)
    if not (finite := a < np.inf).all():
        raise _overflow(finite, k)
    if (bad := a <= tiny).any():
        raise SingularMinorError(
            k + 1, f"leading principal minor of size {k + 1}{_in_stack(bad)} is singular")
    return piv


def _overflow(finite: np.ndarray, k: int) -> SingularMinorError:
    """The error for elimination row k, where a kernel went non-finite."""
    return SingularMinorError(k + 1, f"row {k} elimination overflowed{_in_stack(~finite)}")


@np.errstate(over="ignore", invalid="ignore")
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
    kernel's position when a stack is factored; an update that overflows
    raises it, without a warning, at the first non-finite pivot or panel.
    The factors take the dtype ``np.result_type(M, float)``: real for a
    real matrix.
    """
    A = np.array(M, dtype=np.result_type(M, float))
    n = A.shape[-1]
    L = np.broadcast_to(np.eye(n, dtype=A.dtype), A.shape).copy()
    U = L.copy()
    d = np.zeros(A.shape[:-1], dtype=A.dtype)
    tiny = _pivot_floor(M)
    for b0 in range(0, n, _LDU_BLOCK):
        b1 = min(b0 + _LDU_BLOCK, n)
        for k in range(b0, b1):
            piv = _check_pivot(A[..., k, k], tiny, k)
            d[..., k] = piv
            if k + 1 < b1:
                r = slice(k + 1, b1)
                L[..., r, k] = A[..., r, k] / piv[..., None]
                U[..., k, r] = A[..., k, r] / piv[..., None]
                A[..., r, r] -= L[..., r, k, None] * A[..., k, None, r]
        if b1 < n:
            blk = slice(b0, b1)
            # A21 = L21 D11 U11 and A12 = L11 D11 U12
            X = np.swapaxes(_unit_triangular_solve(
                U[..., blk, blk], np.swapaxes(A[..., b1:, blk], -1, -2), trans="T",
                lower=False, check_finite=False), -1, -2)
            Y = _unit_triangular_solve(L[..., blk, blk], A[..., blk, b1:], lower=True,
                                       check_finite=False)
            if not (finite := (np.isfinite(X).all(axis=(-2, -1))
                               & np.isfinite(Y).all(axis=(-2, -1)))).all():
                raise _overflow(finite, b1)
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


def _glm_sweep(Phi: np.ndarray) -> np.ndarray:
    """K_plus of the GLM equation in one O(n^3) sweep along the chain.

    Row i is -Phi[i, :i] M_i^{-1} (M_i the leading block of M = 1 + Phi) and
    M_i^{-1} = V_i (1 + K_plus)_i, V_i = U_i^{-1} for the upper triangular
    U = (1 + K_plus) M; V gains column i from U's column i at step i.  Each
    product is one ``einsum`` for a whole stack, so a kernel keeps its bits.
    """
    tiny = _pivot_floor(np.eye(Phi.shape[-1]) + Phi)
    K, V = (np.zeros(Phi.shape, np.result_type(Phi, float)) for _ in range(2))
    for i in range(Phi.shape[-1]):
        w = np.einsum("...j,...jk->...k", Phi[..., i, :i], V[..., :i, :i])
        k = -(w + np.einsum("...j,...jk->...k", w, K[..., :i, :i]))
        if not (finite := np.isfinite(k).all(axis=-1)).all():
            raise SingularMinorError(i, f"row {i} elimination overflowed{_in_stack(~finite)}")
        K[..., i, :i] = k
        # U[:i+1, i] = M[:i+1, i] + K[:i+1, :i] M[:i, i]; only U[i, i] holds M's 1
        u = Phi[..., :i + 1, i] + np.einsum("...jk,...k->...j", K[..., :i + 1, :i], Phi[..., :i, i])
        p = _check_pivot(u[..., i] + 1.0, tiny, i)
        V[..., :i, i] = -np.einsum("...jk,...k->...j", V[..., :i, :i], u[..., :i]) / p[..., None]
        V[..., i, i] = 1.0 / p
    return K


def glm_solve(Phi: np.ndarray):
    """Solve K_plus + Phi + K_plus Phi = K_minus along the chain, O(n^3).

    Row i of K_plus is the strictly-lower row that clears the strictly lower
    part of the left side; K_minus is the upper remainder, diagonal included.
    ``Phi`` is one kernel (n, n) or a stack (B, n, n) swept in lockstep, each
    kernel keeping its bits; real for a real Phi.  Raises DiscretizationError
    on a non-square kernel and SingularMinorError where gk_factorize does.
    """
    Phi = _square_kernels(Phi)
    K = _glm_sweep(Phi)
    return K, np.triu(K + Phi + K @ Phi, 0)


def glm_residual(Phi: np.ndarray, K_plus: np.ndarray, K_minus: np.ndarray) -> float:
    """|| K_plus + Phi + K_plus Phi - K_minus ||_F / max(||Phi||_F, 1), with
    the scale-safe norms of :func:`_frobenius`.  Operands that are empty,
    not square or not of one shape raise :class:`DiscretizationError`."""
    shapes = [np.shape(X) for X in (Phi, K_plus, K_minus)]
    n = shapes[0][0] if len(shapes[0]) == 2 else 0
    if n == 0 or any(sh != (n, n) for sh in shapes):
        raise DiscretizationError(
            f"glm_residual needs three nonempty square matrices of one shape, got {shapes}")
    R = K_plus + Phi + K_plus @ Phi - K_minus
    return float(_frobenius(R) / max(float(_frobenius(Phi)), 1.0))


def commutation_check(Phi: np.ndarray, L: np.ndarray) -> float:
    """Normalized commutator ||[Phi, L]||_F / (||Phi||_F ||L||_F); both
    products run on the band of a narrow Hermitian L."""
    Phi = np.asarray(Phi)
    L = np.asarray(L)
    denom = np.linalg.norm(Phi) * np.linalg.norm(L)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(_operator_product(L, Phi, right=True)
                                - _operator_product(L, Phi)) / denom)


def _conjugate(M: np.ndarray, L: np.ndarray, lower: bool) -> np.ndarray:
    """M L M^{-1} for a triangular M (lower or upper as the caller says),
    by one triangular solve M^T X^T = (M L)^T, without forming the inverse.
    M L runs on the band of a narrow Hermitian L."""
    return scipy.linalg.solve_triangular(
        M, _operator_product(L, M, right=True).T, trans="T", lower=lower).T


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
