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
discrete GLM equation, which sweeps the chain in blocks of rows of K_plus.
Both take one kernel (n, n) or a stack (B, n, n) in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, SingularMinorError
from .grid_ops import _banded_or_dense, _norm, _operator_product, _product_rows

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

    ``residual``, the relative Frobenius reconstruction error
    ||(1 + K_plus)^{-1} D (1 + K_minus) - (1 + Phi)|| / ||1 + Phi||, is
    computed on its first read and then kept: 1 + K_plus and 1 + K_minus
    come back exactly from the kernels, so it has the bits of a residual
    taken at factorization time.  The pair holds the factored kernel
    ``Phi`` by reference for it, so that kernel is not to be changed
    before the residual is read.
    """

    K_plus: np.ndarray
    D: np.ndarray
    K_minus: np.ndarray
    Phi: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def residual(self) -> float | np.ndarray:
        eye = np.eye(self.D.shape[-1])
        M = eye + self.Phi
        # the elimination's 1 + K_plus was Fortran-ordered, and only its
        # strict lower triangle is read; the same layout takes LAPACK's
        # same path
        Lf = np.empty(self.K_plus.shape, self.K_plus.dtype).swapaxes(-1, -2)
        Lf[...] = self.K_plus
        recon = _unit_triangular_solve(Lf, self.D[..., None] * (eye + self.K_minus),
                                       lower=True)
        residual = _frobenius(recon - M) / np.maximum(_frobenius(M), 1e-300)
        return residual if residual.ndim else float(residual)


_LDU_BLOCK = 64  # order of the diagonal blocks of the elimination and of the GLM sweep


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
    ``overwrite_b=True`` lets LAPACK solve into a Fortran-ordered B: one
    matrix's, or each slice of a writable stack B of T's shape, which is
    then returned.  Otherwise a stack's B may be a read-only broadcast, and
    its solutions go to new arrays.
    """
    if T.ndim == 2:
        return scipy.linalg.solve_triangular(T, B, unit_diagonal=True, **kw)
    if kw.get("overwrite_b"):
        for t, b in zip(T, B):
            b[...] = scipy.linalg.solve_triangular(t, b, unit_diagonal=True, **kw)
        return B
    B = np.broadcast_to(B, T.shape[:-2] + B.shape[-2:])
    X = np.empty((len(B), B.shape[-1], B.shape[-2]),
                 np.result_type(T, B, float)).swapaxes(-1, -2)
    for t, b, x in zip(T, B, X):
        x[...] = scipy.linalg.solve_triangular(t, b, unit_diagonal=True, **kw)
    return X


def _diagonal(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix of a C-ordered A."""
    return A.reshape(A.shape[:-2] + (-1,))[..., :: A.shape[-1] + 1]


def _square_kernels(Phi, what: str = "factorization") -> np.ndarray:
    """``Phi`` as an array, after checking it is one square kernel (n, n)
    or a stack of them (B, n, n), with n >= 1; ``what`` names the caller
    in the error."""
    Phi = np.asarray(Phi)
    if Phi.ndim not in (2, 3) or Phi.shape[-1] != Phi.shape[-2] or Phi.shape[-1] == 0:
        raise DiscretizationError(
            f"{what} needs a square kernel of size at least 1 or a stack "
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
def _ldu(A: np.ndarray) -> np.ndarray:
    """Unpivoted Doolittle LDU of a C-ordered float matrix or stack
    (..., n, n), in place; returns the pivots d and raises
    SingularMinorError at the first bad pivot.

    A ends in the packed layout of LAPACK ``getrf``: the unit lower L
    strictly below the diagonal, the unit upper U strictly above it, and
    on the diagonal the pivots that d copies.  Blocked right-looking
    elimination: rank-one updates run only inside each diagonal block of
    order ``_LDU_BLOCK``, the panels beside it come from unit-triangular
    solves that read one triangle of the block, and the trailing matrix
    takes one matrix-product Schur update per block.  Matrices up to the
    block order take the plain rank-one loop.  A stack is eliminated in
    lockstep: each rank-one step and Schur update is one numpy call for
    all its matrices, the panel solves run matrix by matrix, and each
    matrix gets the bits it gets alone.  Every pivot is held against a
    threshold set from its whole matrix, so the first bad leading minor is
    named exactly, with the kernel's position when a stack is factored; an
    update that overflows raises it, without a warning, at the first
    non-finite pivot or panel.
    """
    n = A.shape[-1]
    d = np.zeros(A.shape[:-1], dtype=A.dtype)
    tiny = _pivot_floor(A)
    for b0 in range(0, n, _LDU_BLOCK):
        b1 = min(b0 + _LDU_BLOCK, n)
        for k in range(b0, b1):
            piv = _check_pivot(A[..., k, k], tiny, k)
            d[..., k] = piv
            if k + 1 < b1:
                r = slice(k + 1, b1)
                # column k of L, the update with row k of U unscaled, then row k of U
                A[..., r, k] /= piv[..., None]
                A[..., r, r] -= A[..., r, k, None] * A[..., k, None, r]
                A[..., k, r] /= piv[..., None]
        if b1 < n:
            blk = slice(b0, b1)
            # A21 = L21 D11 U11 and A12 = L11 D11 U12
            X = np.swapaxes(_unit_triangular_solve(
                A[..., blk, blk], np.swapaxes(A[..., b1:, blk], -1, -2), trans="T",
                lower=False, check_finite=False), -1, -2)
            Y = _unit_triangular_solve(A[..., blk, blk], A[..., blk, b1:], lower=True,
                                       check_finite=False)
            if not (finite := (np.isfinite(X).all(axis=(-2, -1))
                               & np.isfinite(Y).all(axis=(-2, -1)))).all():
                raise _overflow(finite, b1)
            A[..., b1:, blk] = X / d[..., None, blk]
            A[..., blk, b1:] = Y / d[..., blk, None]
            A[..., b1:, b1:] -= X @ A[..., blk, b1:]
    return d


def _transpose_in_place(X: np.ndarray) -> np.ndarray:
    """X^T written over a C-ordered square X (or each matrix of a stack),
    tile by tile, so beside X it holds one tile of order ``_LDU_BLOCK``; a
    transpose moves values without arithmetic, so every bit is kept."""
    n = X.shape[-1]
    for i0 in range(0, n, _LDU_BLOCK):
        I = slice(i0, i0 + _LDU_BLOCK)
        X[..., I, I] = np.swapaxes(X[..., I, I], -1, -2).copy()
        for j0 in range(i0 + _LDU_BLOCK, n, _LDU_BLOCK):
            J = slice(j0, j0 + _LDU_BLOCK)
            tile = X[..., I, J].copy()
            X[..., I, J] = np.swapaxes(X[..., J, I], -1, -2)
            X[..., J, I] = np.swapaxes(tile, -1, -2)
    return X


def gk_factorize(Phi: np.ndarray) -> TriangularPair:
    """Factor 1 + Phi into triangular Volterra factors along the chain.

    ``Phi`` is one kernel (n, n) or a stack (B, n, n) factored in lockstep;
    each kernel of a stack gets the bits it gets alone.  The factors are
    real for a real kernel and complex for a complex one.  The function's
    own 1 + Phi is eliminated in place (:func:`_ldu`), and the packed
    array's strict upper triangle becomes K_minus; 1 + K_plus = L^{-1} is
    solved into a Fortran-ordered identity, one per kernel, and transposed
    in place (:func:`_transpose_in_place`) into the C order the kernel
    routes read, so two n x n arrays per kernel are the most it holds.  The
    reconstruction residual is left to the first read of
    :attr:`TriangularPair.residual`.  Raises :class:`DiscretizationError`
    on a non-square or non-finite kernel.
    """
    Phi = _square_kernels(Phi)
    if not np.all(np.isfinite(Phi)):
        raise DiscretizationError("factorization needs a finite kernel")
    n = Phi.shape[-1]
    # the bits of eye + Phi: 0.0 + x turns -0.0 into 0.0 as Phi + 0.0 does
    A = np.add(Phi, 0.0, dtype=np.result_type(Phi, float), order="C")
    _diagonal(A)[...] += 1.0
    d = _ldu(A)
    # 1 + K_plus = L^{-1} (unit lower), 1 + K_minus = U (unit upper); read
    # in C order, the Fortran-ordered solution is L^{-1} transposed
    eye = np.zeros(A.shape, A.dtype)
    _diagonal(eye)[...] = 1.0
    Linv = _unit_triangular_solve(A, np.swapaxes(eye, -1, -2), lower=True,
                                  overwrite_b=True)
    del eye
    K_plus = _transpose_in_place(np.swapaxes(Linv, -1, -2))
    del Linv
    _diagonal(K_plus)[...] -= 1.0
    np.copyto(A, 0.0, where=np.tri(n, dtype=bool))
    return TriangularPair(K_plus, d, A, Phi)


def _check_rows(finite: np.ndarray, piv: np.ndarray, tiny: np.ndarray, i0: int) -> None:
    """Raise the sweep's error at the first of rows i0, i0 + 1, ... (the last
    axis of ``finite`` and ``piv``) where a kernel's row of K_plus went
    non-finite or its pivot is bad; a row's overflow comes before its
    pivot, as a check after every row would find them."""
    a = np.abs(piv)
    if (ok := finite & (a < np.inf) & (a > tiny[..., None])).all():
        return
    r = int(np.argmin(ok.reshape(-1, ok.shape[-1]).all(axis=0)))
    if not finite[..., r].all():
        raise SingularMinorError(
            i0 + r, f"row {i0 + r} elimination overflowed{_in_stack(~finite[..., r])}")
    _check_pivot(piv[..., r], tiny, i0 + r)


def _glm_rows(S: np.ndarray, K: np.ndarray, V: np.ndarray, Km: np.ndarray) -> np.ndarray:
    """The row sweep of one diagonal block, in place; returns its pivots.

    S is the block's Schur complement of 1 + Phi, minus 1; K, V and Km are
    views of the block's part of K_plus, V and K_minus.  Row r of K is
    -S[r, :r] (1 + S)_r^{-1}, with (1 + S)_r^{-1} = V_r (1 + K)_r, and V
    gains column r from column r of the upper triangular (1 + K)(1 + S)
    and its pivot.  That product is the block's diagonal block of
    U = (1 + K_plus)(1 + Phi), and its column r, less the 1 of its pivot,
    is column r of Km.  Nothing is checked here: a bad row only spoils the
    rows after it, which :func:`_check_rows` never reaches.
    """
    piv = np.empty(S.shape[:-1], S.dtype)
    for r in range(S.shape[-1]):
        w = S[..., r:r + 1, :r] @ V[..., :r, :r]
        K[..., r:r + 1, :r] = -(w + w @ K[..., :r, :r])
        # column r of (1 + K)(1 + S); only its pivot holds the 1 of 1 + S
        Km[..., :r + 1, r:r + 1] = u = (S[..., :r + 1, r:r + 1]
                                        + K[..., :r + 1, :r] @ S[..., :r, r:r + 1])
        piv[..., r] = p = u[..., r, 0] + 1.0
        V[..., :r, r:r + 1] = -(V[..., :r, :r] @ u[..., :r, :]) / p[..., None, None]
        V[..., r, r] = 1.0 / p
    return piv


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _glm_sweep(Phi: np.ndarray):
    """(K_plus, K_minus) of the GLM equation in one blocked O(n^3) sweep
    along the chain.

    U = (1 + K_plus) M is upper triangular for M = 1 + Phi, and its inverse V
    holds the inverse of every leading block: M_H^{-1} = V_H (1 + K_plus)_H.
    The rows run in blocks I of order ``_LDU_BLOCK``, after the rows H
    before them.  G = Phi[I, H] M_H^{-1} and the Schur complement of M_H,
    1 + S with S = Phi[I, I] - G Phi[H, I], are matrix products;
    :func:`_glm_rows` sweeps S row by row for the diagonal blocks of K_plus
    and V; then K[I, H] = -(1 + K[I, I]) G, and
    V[H, I] = -V_H U[H, I] V[I, I] with U[H, I] = (1 + K_plus)_H Phi[H, I].
    K_minus = U - 1 takes its diagonal blocks from the row sweeps and
    U[H, I] above them.  A kernel up to the block order is a single block.
    Beside K_plus, K_minus and V the sweep holds O(n _LDU_BLOCK) entries
    per kernel.  Each product is one ``matmul`` for a whole stack, so a
    kernel keeps the bits it gets alone.
    Each block's rows and pivots are checked before the next block starts
    (:func:`_check_rows`), every pivot against the floor of its whole
    matrix, so the first bad leading minor or non-finite row raises,
    without a warning, naming the row and, in a stack, the kernel.
    """
    n = Phi.shape[-1]
    tiny = _pivot_floor(np.eye(n) + Phi)
    K, V, Km = (np.zeros(Phi.shape, np.result_type(Phi, float)) for _ in range(3))
    for i0 in range(0, n, _LDU_BLOCK):
        I, H = slice(i0, min(i0 + _LDU_BLOCK, n)), slice(0, i0)
        W = Phi[..., I, H] @ V[..., H, H]
        G = W + W @ K[..., H, H]
        piv = _glm_rows(Phi[..., I, I] - G @ Phi[..., H, I], K[..., I, I], V[..., I, I],
                        Km[..., I, I])
        # a non-finite row of G leaves its row of K[I, H] non-finite; the
        # product takes G only up to it, since the zeros above the diagonal
        # of K[I, I] would carry its NaN into the rows before it
        G_ok = np.logical_and.accumulate(np.isfinite(G).all(axis=-1), axis=-1)
        K[..., I, H] = -(G + K[..., I, I] @ np.where(G_ok[..., None], G, 0.0))
        _check_rows(np.isfinite(K[..., I, :I.stop]).all(axis=-1), piv, tiny, i0)
        Km[..., H, I] = U = Phi[..., H, I] + K[..., H, H] @ Phi[..., H, I]
        if I.stop < n:  # only the blocks after I read V[H, I]
            V[..., H, I] = -(V[..., H, H] @ U) @ V[..., I, I]
    return K, Km


def glm_solve(Phi: np.ndarray):
    """Solve K_plus + Phi + K_plus Phi = K_minus along the chain, O(n^3).

    Row i of K_plus is the strictly-lower row that clears the strictly lower
    part of the left side; K_minus is the upper remainder, diagonal included.
    Both come from the blocked sweep of :func:`_glm_sweep`: row sweeps on
    the diagonal blocks of order ``_LDU_BLOCK``, matrix products beside
    them, and O(n _LDU_BLOCK) temporaries beside K_plus, K_minus and V;
    K_minus = (1 + K_plus)(1 + Phi) - 1 is read from the sweep's products,
    so no product is formed after it.  ``Phi`` is one kernel (n, n) or a
    stack (B, n, n) swept in lockstep, each kernel keeping its bits; real
    for a real Phi.  Raises DiscretizationError on a
    non-square kernel and SingularMinorError where gk_factorize does, and
    at the first row that overflows.
    """
    return _glm_sweep(_square_kernels(Phi))


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


def commutation_check(Phi: np.ndarray, L) -> float:
    """Normalized commutator ||[Phi, L]||_F / (||Phi||_F ||L||_F) of a square
    kernel and an operator of its shape (an array, or an
    :class:`~delsarte.grid_ops.OperatorMatrix` held dense or as its band),
    else :class:`DiscretizationError` naming both shapes.  Both products run
    on the band of a narrow Hermitian L, and the second is formed a block of
    rows at a time (:func:`_product_rows`) and subtracted in place from the
    first, so beside Phi the check holds one n x n array and one block.  A
    band-held L is never made dense: its products and ||L||_F
    (:func:`~delsarte.grid_ops._norm`) read its band."""
    Phi = np.asarray(Phi)
    L = _banded_or_dense(L)
    if Phi.ndim != 2 or Phi.shape[0] != Phi.shape[1] or L.shape != Phi.shape:
        raise DiscretizationError(
            f"commutation_check needs a square kernel and an operator of its shape, "
            f"got {Phi.shape} and {L.shape}")
    denom = np.linalg.norm(Phi) * _norm(L)
    if denom == 0.0:
        return 0.0
    C = _operator_product(L, Phi, right=True)
    for rows, block in _product_rows(L, Phi):
        C[rows] -= block
    return float(np.linalg.norm(C) / denom)


def _conjugate(M: np.ndarray, L, lower: bool, rows: slice = slice(None)) -> np.ndarray:
    """Rows ``rows`` (all by default) of M L M^{-1} for a triangular M (lower
    or upper as the caller says), by one triangular solve
    M^T X^T = (M[rows] L)^T, without forming the inverse.  M[rows] L runs on
    the band of a narrow Hermitian L, and the solve overwrites it, the
    product being this function's own.  On one BLAS thread, as every CLI
    job runs, a block of rows whose height is a multiple of 12 has the bits
    of the same rows of the whole solve: OpenBLAS's triangular solve takes
    the right-hand sides 12 at a time (and a tail of 4), so other heights
    split them differently, as do several threads."""
    return scipy.linalg.solve_triangular(
        M, _operator_product(L, M[rows], right=True).T, trans="T", lower=lower,
        overwrite_b=True).T


def break_relation_defect(K: np.ndarray) -> float:
    """Largest width-one break (P+ - P-) K (P+ - P-), i.e. diagonal mass.

    The width-one breaks of every chain are the diagonal entries, so no
    chain is needed.  Strictly triangular kernels subordinate to the chain
    carry exact zeros here; any diagonal leakage is reported as the defect.
    ``K`` is one square kernel or a stack of them; anything else raises
    :class:`DiscretizationError` naming its shape.
    """
    K = _square_kernels(K, "break_relation_defect")
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
