"""Orthonormal eigenfamilies and spectral kernels of Hermitian operators.

The eigenvectors psi_lam of a Hermitian matrix A, orthonormal, give

    E(Delta)  = sum_{lam in Delta} psi_lam psi_lam^*      (projection measure)
    K_f       = sum_lam f(lam) psi_lam psi_lam^*          (functional calculus)

as honest spectral objects: E is multiplicative, K_f commutes with A, and
the elementary kernels Z_lam = psi_lam psi_lam^* satisfy the two-sided
congruences A Z = lam Z and Z A = lam Z.  The operator is solved from its
band: a real tridiagonal band by LAPACK ``stevd``, any other by
``eig_banded``; their eigenvectors are orthonormal as LAPACK returns them,
so the adjoint family phi of a self-adjoint A is the right family itself.
A non-self-adjoint or weighted pair of families goes to
:meth:`~delsarte.transmute.TransmutationData.from_family` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, EmptyBandError
from .grid_ops import _BAND_PRODUCT_WIDTH, _as_matrix, _band_matvec, _is_hermitian, _upper_band

__all__ = [
    "EigenFamily",
    "eigensolve",
    "nearest_indices",
    "projection_measure",
    "elementary_kernel",
    "kernel_from_measure",
    "congruence_residual",
]


@dataclass
class EigenFamily:
    """Orthonormal eigenvectors of a Hermitian operator.

    ``right[:, k]`` is an eigenvector of A for ``lambdas[k]``, ascending;
    ``left``, the adjoint family, is the same array, so left^* right = I on
    the selected set.  ``residual`` is the worst relative eigen-residual,
    recorded at construction time.
    """

    lambdas: np.ndarray
    right: np.ndarray
    residual: float = 0.0

    @property
    def left(self) -> np.ndarray:
        return self.right

    def __len__(self) -> int:
        return len(self.lambdas)

    def biorthogonality_defect(self) -> float:
        G = self.right.conj().T @ self.right
        return float(np.linalg.norm(G - np.eye(len(self.lambdas))))


def nearest_indices(lams: np.ndarray, count: int) -> np.ndarray:
    """Ascending positions of the ``count`` eigenvalues nearest the origin
    (ties keep the earlier position)."""
    return np.sort(np.argsort(np.abs(lams), kind="stable")[:count])


def _eigen_residual(AV: np.ndarray, V: np.ndarray, lams: np.ndarray) -> float:
    """Worst column of |A v - lam v| / |v|, given AV = A @ V."""
    return float(np.max(np.linalg.norm(AV - V * lams, axis=0)
                        / np.linalg.norm(V, axis=0)))


def _tridiagonal_eigh(ab: np.ndarray):
    """Ascending eigenvalues and eigenvectors of a real symmetric
    tridiagonal band in upper storage, by LAPACK ``stevd``.  It runs the
    divide and conquer of ``sbevd`` (what ``eig_banded`` calls) on the same
    diagonals, without ``sbevd``'s n x n Q = I and the product that
    multiplies it in, so it returns the same eigenpairs bit for bit once
    0.0 is added, as that product adds it, to the zero entries."""
    stevd = scipy.linalg.lapack.get_lapack_funcs("stevd", (ab,))
    lams, vecs, info = stevd(ab[1], ab[0, 1:])
    if info != 0:
        raise np.linalg.LinAlgError(f"stevd failed with info = {info}")
    vecs += 0.0
    return lams, vecs


def eigensolve(A, count: int | None = None, band=None,
               hermitian: bool = True) -> EigenFamily:
    """Orthonormal eigenfamily of a Hermitian operator, from its band.

    The upper band of the operator, as wide as its farthest nonzero
    diagonal (a periodic or dense operator is its own full band), goes to
    LAPACK ``stevd`` when it is real and tridiagonal
    (:func:`_tridiagonal_eigh`, with the bits ``eig_banded`` gives) and to
    ``eig_banded`` otherwise.  The eigenvalues are real and ascending, as
    LAPACK returns them; the eigenvectors keep the operator's dtype and are
    taken as LAPACK returns them, orthonormal, each only rotated so that its
    largest component is positive real.  The eigen-residual is taken from
    the same band.

    ``count`` keeps that many eigenvalues closest to the origin (the rule of
    :func:`nearest_indices`); ``band`` keeps those in the real interval
    [lo, hi].  ``hermitian`` has one accepted value, True: the operator is
    held to |A - A^H| <= 1e-14 ||A||_inf entrywise, read on the band.

    Raises :class:`EmptyBandError` when the selection is empty, and
    :class:`DiscretizationError` on a non-finite or non-square operator, a
    non-Hermitian one or ``hermitian`` other than True (naming
    max |A - A^H|).
    """
    M = _as_matrix(A)
    n = M.shape[0] if M.ndim == 2 else 0
    if n == 0 or M.shape != (n, n):
        raise DiscretizationError(
            f"eigensolve needs a square operator of size at least 1, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DiscretizationError("eigensolve needs a finite operator")
    scale = np.linalg.norm(M, ord=np.inf) or 1.0
    ab = _upper_band(M)
    if hermitian is not True or not _is_hermitian(M, ab, atol=1e-14 * scale):
        raise DiscretizationError(
            f"eigensolve solves Hermitian operators only, got hermitian={hermitian!r} "
            f"and max |A - A^H| = {np.max(np.abs(M - M.conj().T)):.3e}")
    if ab.shape[0] == 2 and not np.iscomplexobj(ab):
        lams, right = _tridiagonal_eigh(ab)
    else:
        lams, right = scipy.linalg.eig_banded(ab, check_finite=False)

    keep = np.arange(n)
    if band is not None:
        lo, hi = float(band[0]), float(band[1])
        keep = np.flatnonzero((lo <= lams) & (lams <= hi))
        if keep.size == 0:
            raise EmptyBandError(f"no eigenvalues inside band [{lo}, {hi}]")
    if count is not None:
        if count < 1 or count > keep.size:
            raise EmptyBandError(f"requested {count} eigenvalues, {keep.size} available")
        keep = keep[nearest_indices(lams[keep], count)]
    lams, right = lams[keep], right[:, keep]
    # tie-break inside an exactly degenerate cluster: rotate each vector's
    # phase so its largest component is positive real (LAPACK's orthonormal
    # columns leave no zero column)
    piv = right[np.argmax(np.abs(right), axis=0), np.arange(len(lams))]
    right /= piv / np.abs(piv)
    res = _eigen_residual(_band_matvec(ab, right), right, lams) / scale
    return EigenFamily(lams, right, res)


def projection_measure(fam: EigenFamily, delta=None) -> np.ndarray:
    """E(Delta) = sum over lam in Delta of psi_lam psi_lam^*.

    ``delta`` is a predicate on eigenvalues (None keeps all).
    Multiplicative on the family: E(D1) E(D2) = E(D1 and D2).  This is
    :func:`kernel_from_measure` with the indicator of Delta as the weight.
    """
    return kernel_from_measure(
        fam, lambda lam: 1.0 if delta is None or delta(lam) else 0.0)


def elementary_kernel(fam: EigenFamily, lam: float) -> np.ndarray:
    """Z_lam = sum of psi psi^* over the eigenvalue's cluster.

    The cluster is every eigenvalue within 1e-10 max(|lambda|_max, 1) of
    the real lam (the family is Hermitian, so its eigenvalues are real).
    """
    scale = max(np.max(np.abs(fam.lambdas)), 1.0)
    keep = np.abs(fam.lambdas - lam) <= 1e-10 * scale
    if not keep.any():
        raise EmptyBandError(f"{lam} is not an eigenvalue of this family")
    return fam.right[:, keep] @ fam.right[:, keep].conj().T


def kernel_from_measure(fam: EigenFamily, weight_fn) -> np.ndarray:
    """Functional calculus K = sum_lam weight_fn(lam) psi_lam psi_lam^*.

    ``weight_fn`` gets each eigenvalue as a Python float; K is real when
    the family and every weight are real, complex otherwise.
    """
    vals = np.array([weight_fn(l) for l in fam.lambdas.tolist()])
    return (fam.right * vals[None, :]) @ fam.right.conj().T


def _two_norm(A: np.ndarray) -> float:
    """||A||_2 of a square operator matrix.  A Hermitian A of half-bandwidth
    at most ``_BAND_PRODUCT_WIDTH`` (tridiagonal) takes it from the two
    extreme eigenvalues of its band; any other A, which
    :func:`_upper_band` refuses or which is not Hermitian, from the dense
    SVD."""
    ab = _upper_band(A, _BAND_PRODUCT_WIDTH)
    if ab is None or not _is_hermitian(A, ab):
        return float(np.linalg.norm(A, 2))
    ends = [scipy.linalg.eig_banded(ab, eigvals_only=True, select="i",
                                    select_range=(k, k), check_finite=False)
            for k in (0, ab.shape[1] - 1)]
    return float(max(abs(e[0]) for e in ends))


def congruence_residual(K, Ltil, L) -> float:
    """|| Ltil K - K L ||_F normalized by ||K||_F max(||L||_2, ||Ltil||_2),
    each 2-norm from :func:`_two_norm`."""
    Km = _as_matrix(K)
    Lm, Tm = _as_matrix(L), _as_matrix(Ltil)
    denom = np.linalg.norm(Km) * max(_two_norm(Lm), _two_norm(Tm))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(Tm @ Km - Km @ Lm) / denom)
