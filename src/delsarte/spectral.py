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
congruences A Z = lam Z and Z A = lam Z.  Degenerate eigenvalues are handled
cluster by cluster through an SVD of the cluster cross-Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefectiveFamilyError, DiscretizationError, EmptyBandError
from .grid_ops import _as_matrix

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


def _cluster(lams: np.ndarray, tol: float) -> list:
    """Group indices of (sorted) eigenvalues within tol of each other."""
    groups, current = [], [0]
    for k in range(1, len(lams)):
        if abs(lams[k] - lams[current[-1]]) <= tol:
            current.append(k)
        else:
            groups.append(current)
            current = [k]
    groups.append(current)
    return groups


def nearest_indices(lams: np.ndarray, count: int) -> np.ndarray:
    """Ascending positions of the ``count`` eigenvalues nearest the origin
    (ties keep the earlier position)."""
    return np.sort(np.argsort(np.abs(lams), kind="stable")[:count])


def eigensolve(A, count: int | None = None, band=None,
               weights: np.ndarray | None = None,
               hermitian: bool | None = None) -> EigenFamily:
    """Full biorthonormalized eigenfamily of a dense operator.

    ``count`` keeps that many eigenvalues closest to the origin (the rule of
    :func:`nearest_indices`); ``band`` keeps those inside the axis-aligned
    rectangle spanned by two complex corners.  Weights default to 1.
    Hermitian input (detected, or forced with the flag) takes the one-sided
    path where left = right; it keeps ``eigh``'s dtypes, so a real
    symmetric operator gives real eigenvalues and real vectors.  Other input
    takes the two-sided ``eig`` path, whose eigenvalues are complex.

    Raises :class:`DefectiveFamilyError` when a degenerate cluster's
    cross-Gram is singular to working precision, and
    :class:`EmptyBandError` when the selection is empty, and
    :class:`DiscretizationError` on a non-finite operator or weight.
    """
    M = _as_matrix(A)
    n = M.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(weights))):
        raise DiscretizationError("eigensolve needs a finite operator and weights")
    scale = np.linalg.norm(M, ord=np.inf) or 1.0

    if hermitian is None:
        hermitian = bool(np.allclose(M, M.conj().T, atol=1e-14 * scale, rtol=0.0))

    if hermitian:
        lams, right = scipy.linalg.eigh(M)
        left = right
    else:
        lams, VL, VR = scipy.linalg.eig(M, left=True, right=True)
        order = np.lexsort((lams.imag, lams.real))
        lams, VL, VR = lams[order], VL[:, order], VR[:, order]
        right, left = VR, VL
    # eigenvectors of the W-adjoint W^-1 M^H W, which pair with the right
    # family under <u, v>_W = u^H W v
    left = left / weights[:, None]

    # selection
    idx = np.arange(len(lams))
    if band is not None:
        idx = np.array([k for k in idx if _in_band(complex(lams[k]), band)], dtype=int)
        if idx.size == 0:
            raise EmptyBandError(f"no eigenvalues inside band {band}")
    if count is not None:
        if count < 1 or count > idx.size:
            raise EmptyBandError(f"requested {count} eigenvalues, {idx.size} available")
        idx = idx[nearest_indices(lams[idx], count)]
    lams, right, left = lams[idx], right[:, idx], left[:, idx]

    order = np.lexsort((lams.imag, lams.real))
    lams, right, left = lams[order], right[:, order], left[:, order]

    # cluster-wise biorthonormalization against the weighted pairing
    cluster_tol = 1e-8 * max(scale, 1.0)
    for grp in _cluster(lams, cluster_tol):
        sl = np.s_[:, grp]
        G = left[sl].conj().T @ (weights[:, None] * right[sl])
        U, s, Vh = np.linalg.svd(G)
        if not (s[-1] >= _GRAM_FLOOR * max(s[0], 1.0)):
            raise DefectiveFamilyError(
                f"cluster at {lams[grp[0]]:.6g} has cross-Gram singular values "
                f"{s.min():.3e} .. {s.max():.3e}; family is defective")
        inv_sqrt = np.diag(1.0 / np.sqrt(s))
        right[sl] = right[sl] @ Vh.conj().T @ inv_sqrt
        left[sl] = left[sl] @ U @ inv_sqrt
        # tie-break inside an exactly degenerate cluster: rotate each pair's
        # phase so the left vector's largest component is positive real
        for k in grp:
            j = int(np.argmax(np.abs(left[:, k])))
            ph = left[j, k] / abs(left[j, k]) if left[j, k] != 0 else 1.0
            left[:, k] /= ph
            right[:, k] *= np.conj(ph)

    res_r = float(np.max(np.linalg.norm(M @ right - right * lams, axis=0)
                         / np.linalg.norm(right, axis=0)) / scale)
    adj_left = (M.conj().T @ (weights[:, None] * left)) / weights[:, None]
    res_l = float(np.max(np.linalg.norm(adj_left - left * np.conj(lams), axis=0)
                         / np.linalg.norm(left, axis=0)) / scale)
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


def congruence_residual(K, Ltil, L) -> float:
    """|| Ltil K - K L ||_F normalized by ||K||_F max(||L||, ||Ltil||)."""
    Km = _as_matrix(K)
    Lm, Tm = _as_matrix(L), _as_matrix(Ltil)
    denom = np.linalg.norm(Km) * max(np.linalg.norm(Lm, 2), np.linalg.norm(Tm, 2))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(Tm @ Km - Km @ Lm) / denom)
