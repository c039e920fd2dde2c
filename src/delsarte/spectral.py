"""Biorthogonal eigenfamilies and spectral kernels.

For a (generally non-self-adjoint) matrix A with a diagonal weight rho,
the right eigenvectors psi of A and the eigenvectors phi of its
rho-adjoint rho^-1 A^* rho (the left family) can be normalized so that
<phi_mu, psi_lam>_rho = phi_mu^* rho psi_lam = delta_{mu lam}.  In that
normalization

    E(Delta)  = sum_{lam in Delta} psi_lam phi_lam^* rho      (projection measure)
    K_f       = sum_lam f(lam) psi_lam phi_lam^* rho          (functional calculus)

are honest spectral objects: E is multiplicative, K_f commutes with A, and
the elementary kernels Z_lam = psi_lam phi_lam^* satisfy the two-sided
congruences A Z = lam Z and Z A = lam Z.  A Hermitian operator is solved
from its band: a real tridiagonal band by LAPACK ``stevd``, any other by
``eig_banded``; their eigenvectors are orthonormal as LAPACK returns them,
so the left family is the right one scaled by 1/rho.  A general operator
takes the two-sided ``eig``, whose vectors are not biorthonormal: each
cluster of numerically equal eigenvalues is normalized through an SVD of
its cross-Gram, and clusters of one size share one stacked SVD, so all
simple eigenvalues take a single call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefectiveFamilyError, DiscretizationError, EmptyBandError
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

_GRAM_FLOOR = 1e-8  # smallest tolerated singular value of a cluster cross-Gram


@dataclass
class EigenFamily:
    """Matched right/left eigenvector families with diagonal weight.

    ``right[:, k]`` is an eigenvector of A and ``left[:, k]`` one of its
    W-adjoint W^-1 A^* W (W = diag(weights)), both for ``lambdas[k]``; they
    satisfy left^* W right = I on the selected set.  ``residual_right`` and
    ``residual_left`` are the worst relative eigen-residuals of A and of
    its W-adjoint, recorded at construction time.
    """

    lambdas: np.ndarray
    right: np.ndarray
    left: np.ndarray
    weights: np.ndarray
    residual_right: float = 0.0
    residual_left: float = 0.0

    def __len__(self) -> int:
        return len(self.lambdas)

    def biorthogonality_defect(self) -> float:
        G = self.left.conj().T @ (self.weights[:, None] * self.right)
        return float(np.linalg.norm(G - np.eye(len(self.lambdas))))


def _in_band(lam: complex, band) -> bool:
    z1, z2 = complex(band[0]), complex(band[1])
    re_lo, re_hi = min(z1.real, z2.real), max(z1.real, z2.real)
    im_lo, im_hi = min(z1.imag, z2.imag), max(z1.imag, z2.imag)
    return (re_lo - 1e-300 <= lam.real <= re_hi + 1e-300
            and im_lo - 1e-300 <= lam.imag <= im_hi + 1e-300)


def nearest_indices(lams: np.ndarray, count: int) -> np.ndarray:
    """Ascending positions of the ``count`` eigenvalues nearest the origin
    (ties keep the earlier position)."""
    return np.sort(np.argsort(np.abs(lams), kind="stable")[:count])


def _eigen_residual(AV: np.ndarray, V: np.ndarray, lams: np.ndarray) -> float:
    """Worst column of |A v - lam v| / |v|, given AV = A @ V."""
    return float(np.max(np.linalg.norm(AV - V * lams, axis=0)
                        / np.linalg.norm(V, axis=0)))


def _normalize_clusters(lams, right, left, weights, cols) -> None:
    """Biorthonormalize, in place, k clusters of m columns each (``cols`` is
    k x m) of the two-sided ``eig`` families through one stacked SVD of
    their k cross-Grams left^* W right."""
    R = right[:, cols].transpose(1, 0, 2)  # k x n x m
    Lv = left[:, cols].transpose(1, 0, 2)
    U, s, Vh = np.linalg.svd(Lv.conj().swapaxes(1, 2) @ (weights[:, None] * R))
    # NaN-safe floor gate: a NaN singular value fails the comparison
    ok = s[:, -1] >= _GRAM_FLOOR * np.maximum(s[:, 0], 1.0)
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise DefectiveFamilyError(
            f"cluster at {lams[cols[k, 0]]:.6g} has cross-Gram singular values "
            f"{s[k].min():.3e} .. {s[k].max():.3e}; family is defective")
    inv_sqrt = 1.0 / np.sqrt(s)[:, None, :]
    right[:, cols] = ((R @ Vh.conj().swapaxes(1, 2)) * inv_sqrt).transpose(1, 0, 2)
    left[:, cols] = ((Lv @ U) * inv_sqrt).transpose(1, 0, 2)


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
               weights: np.ndarray | None = None,
               hermitian: bool | None = None) -> EigenFamily:
    """Full biorthonormalized eigenfamily of a dense operator.

    ``count`` keeps that many eigenvalues closest to the origin (the rule of
    :func:`nearest_indices`); ``band`` keeps those inside the axis-aligned
    rectangle spanned by two complex corners.  Weights default to 1.
    Hermitian input (|A - A^H| <= 1e-14 ||A||_inf entrywise, tested on the
    band: detected, or required by ``hermitian=True``) takes the one-sided
    path: the upper band of the operator, as wide as its farthest nonzero
    diagonal (a periodic or dense operator is its own full band), goes to
    LAPACK ``stevd`` when it is real and tridiagonal
    (:func:`_tridiagonal_eigh`, with the bits ``eig_banded`` gives) and to
    ``eig_banded`` otherwise.  It keeps the operator's dtype, so a real
    symmetric operator gives real eigenvalues and real vectors.  Its
    eigenvectors are taken as LAPACK returns them, orthonormal, with no
    further normalization: with unit weights the left family is the right
    one, and otherwise it is the right one scaled by 1/weights.  Its
    eigen-residuals are taken from the same band.  Other input takes the
    two-sided ``eig`` path, whose eigenvalues are complex, whose families
    are biorthonormalized cluster by cluster (:func:`_normalize_clusters`)
    and whose residuals come from dense products (its solve is already
    O(n^3)).

    Raises :class:`DefectiveFamilyError` when a cluster's cross-Gram on the
    two-sided path is singular to working precision, and
    :class:`EmptyBandError` when the selection is empty, and
    :class:`DiscretizationError` on a non-finite operator or weight, a non-square
    operator, weights not one per row, or ``hermitian=True`` on a non-Hermitian one.
    """
    M = _as_matrix(A)
    n = M.shape[0] if M.ndim == 2 else 0
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if n == 0 or M.shape != (n, n) or weights.shape != (n,):
        raise DiscretizationError(
            f"eigensolve needs a square operator of size at least 1 and one weight "
            f"per row, got shapes {M.shape} and {weights.shape}")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(weights))):
        raise DiscretizationError("eigensolve needs a finite operator and weights")
    scale = np.linalg.norm(M, ord=np.inf) or 1.0

    if hermitian is not False:
        ab = _upper_band(M)
        symmetric = _is_hermitian(M, ab, atol=1e-14 * scale)
        if hermitian and not symmetric:
            raise DiscretizationError(f"hermitian=True, but the operator is not Hermitian: max "
                                      f"|A - A^H| = {np.max(np.abs(M - M.conj().T)):.3e}")
        hermitian = symmetric

    if hermitian:
        if ab.shape[0] == 2 and not np.iscomplexobj(ab):
            lams, right = _tridiagonal_eigh(ab)
        else:
            lams, right = scipy.linalg.eig_banded(ab, check_finite=False)
        left = right
    else:
        lams, left, right = scipy.linalg.eig(M, left=True, right=True)
    one_sided = hermitian and bool(np.all(weights == 1.0))

    # ascending (real, imag) order; both selections keep it
    keep = np.lexsort((lams.imag, lams.real))
    if band is not None:
        keep = keep[[_in_band(complex(lams[k]), band) for k in keep]]
        if keep.size == 0:
            raise EmptyBandError(f"no eigenvalues inside band {band}")
    if count is not None:
        if count < 1 or count > keep.size:
            raise EmptyBandError(f"requested {count} eigenvalues, {keep.size} available")
        keep = keep[nearest_indices(lams[keep], count)]
    lams, right = lams[keep], right[:, keep]
    # eigenvectors of the W-adjoint W^-1 M^H W, which pair with the right
    # family under <u, v>_W = u^H W v
    left = right if one_sided else left[:, keep] / weights[:, None]

    if not hermitian:
        # biorthonormalization against the weighted pairing, one stacked SVD
        # per cluster size (the simple eigenvalues are the clusters of size one)
        cluster_tol = 1e-8 * max(scale, 1.0)
        starts = np.r_[0, np.flatnonzero(np.abs(np.diff(lams)) > cluster_tol) + 1]
        sizes = np.diff(np.r_[starts, len(lams)])
        for m in np.unique(sizes):
            cols = starts[sizes == m][:, None] + np.arange(m)
            _normalize_clusters(lams, right, left, weights, cols)
    # tie-break inside an exactly degenerate cluster: rotate each pair's
    # phase so the left vector's largest component is positive real (the
    # gate above, or LAPACK's orthonormal columns, leave no zero column)
    piv = left[np.argmax(np.abs(left), axis=0), np.arange(len(lams))]
    ph = piv / np.abs(piv)
    left /= ph
    if left is not right:
        right *= np.conj(ph)

    res_r = _eigen_residual(_band_matvec(ab, right) if hermitian else M @ right,
                            right, lams) / scale
    if left is right:
        res_l = res_r
    else:
        # W^-1 M^H W left, where M^H = M on the Hermitian path
        WL = weights[:, None] * left
        adj_left = _band_matvec(ab, WL) if hermitian else M.conj().T @ WL
        res_l = _eigen_residual(adj_left / weights[:, None], left, np.conj(lams)) / scale
    return EigenFamily(lams, right, left, weights, res_r, res_l)


def projection_measure(fam: EigenFamily, delta=None) -> np.ndarray:
    """E(Delta) = sum over lam in Delta of psi_lam phi_lam^* rho.

    ``delta`` is a predicate on eigenvalues (None keeps all).
    Multiplicative on the family: E(D1) E(D2) = E(D1 and D2).  This is
    :func:`kernel_from_measure` with the indicator of Delta as the weight.
    """
    return kernel_from_measure(
        fam, lambda lam: 1.0 if delta is None or delta(lam) else 0.0)


def elementary_kernel(fam: EigenFamily, lam: complex) -> np.ndarray:
    """Z_lam = sum of psi phi^* over the eigenvalue's cluster (no weight).

    The cluster is every eigenvalue within 1e-10 max(|lambda|_max, 1) of lam.
    """
    scale = max(np.max(np.abs(fam.lambdas)), 1.0)
    keep = np.abs(fam.lambdas - lam) <= 1e-10 * scale
    if not keep.any():
        raise EmptyBandError(f"{lam} is not an eigenvalue of this family")
    return fam.right[:, keep] @ fam.left[:, keep].conj().T


def kernel_from_measure(fam: EigenFamily, weight_fn) -> np.ndarray:
    """Functional calculus K = sum_lam weight_fn(lam) psi_lam phi_lam^* rho.

    ``weight_fn`` gets each eigenvalue as a Python scalar of the family's
    kind (float for a real family); K is real when the family and every
    weight are real, complex otherwise.
    """
    vals = np.array([weight_fn(l) for l in fam.lambdas.tolist()])
    return (fam.right * vals[None, :]) @ (fam.left.conj().T * fam.weights[None, :])


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
