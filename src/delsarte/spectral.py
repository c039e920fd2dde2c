"""Biorthogonal eigenfamilies and spectral kernels.

For a (generally non-self-adjoint) matrix A the right and left eigenvector
families can be normalized so that  <phi_mu, psi_lam>_rho = delta_{mu lam}
with respect to a diagonal weight rho.  In that normalization

    E(Delta)  = sum_{lam in Delta} psi_lam phi_lam^* rho      (projection measure)
    K_f       = sum_lam f(lam) psi_lam phi_lam^* rho          (functional calculus)

are honest spectral objects: E is multiplicative, K_f commutes with A, and
the elementary kernels Z_lam = psi_lam phi_lam^* satisfy the two-sided
congruences A Z = lam Z and Z A = lam Z.  Degenerate eigenvalues are handled
cluster by cluster through an SVD of the cluster cross-Gram.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DefectiveFamilyError, EmptyBandError
from .grid_ops import _as_matrix
from .ioutil import load_matrix_csv, save_json, save_matrix_csv

__all__ = [
    "EigenFamily",
    "SpectralKernel",
    "eigensolve",
    "projection_measure",
    "elementary_kernel",
    "kernel_from_measure",
    "congruence_residual",
    "save_family",
    "load_family",
]

_GRAM_FLOOR = 1e-8  # smallest tolerated singular value of a cluster cross-Gram


@dataclass
class EigenFamily:
    """Matched right/left eigenvector families with diagonal weight.

    ``right[:, k]`` and ``left[:, k]`` belong to ``lambdas[k]`` and satisfy
    left^* diag(weights) right = I on the selected set.  ``residual_right``
    and ``residual_left`` are the worst relative eigen-residuals, recorded at
    construction time.
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


@dataclass
class SpectralKernel:
    """A kernel matrix tagged by which index pairs it couples."""

    domain_tag: str  # "GridByGrid" | "SpectrumBySpectrum"
    values: np.ndarray
    note: str = ""


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


def eigensolve(A, count: int | None = None, band=None,
               weights: np.ndarray | None = None,
               hermitian: bool | None = None) -> EigenFamily:
    """Full biorthonormalized eigenfamily of a dense operator.

    ``count`` keeps that many eigenvalues closest to the origin; ``band``
    keeps those inside the axis-aligned rectangle spanned by two complex
    corners.  Weights default to 1.  Hermitian input (detected, or forced
    with the flag) takes the one-sided path where left = right.

    Raises :class:`DefectiveFamilyError` when a degenerate cluster's
    cross-Gram is singular to working precision, and
    :class:`EmptyBandError` when the selection is empty.
    """
    M = _as_matrix(A)
    n = M.shape[0]
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    scale = np.linalg.norm(M, ord=np.inf) or 1.0

    if hermitian is None:
        hermitian = bool(np.allclose(M, M.conj().T, atol=1e-14 * scale, rtol=0.0))

    if hermitian:
        lams_r, V = scipy.linalg.eigh(M)
        lams = lams_r.astype(complex)
        right = V.astype(complex)
        left = right.copy()
    else:
        lams, VL, VR = scipy.linalg.eig(M, left=True, right=True)
        order = np.lexsort((lams.imag, lams.real))
        lams, VL, VR = lams[order], VL[:, order], VR[:, order]
        right, left = VR, VL

    # selection
    idx = np.arange(len(lams))
    if band is not None:
        idx = np.array([k for k in idx if _in_band(complex(lams[k]), band)], dtype=int)
        if idx.size == 0:
            raise EmptyBandError(f"no eigenvalues inside band {band}")
    if count is not None:
        if count < 1 or count > idx.size:
            raise EmptyBandError(f"requested {count} eigenvalues, {idx.size} available")
        sel = np.argsort(np.abs(lams[idx]), kind="stable")[:count]
        idx = np.sort(idx[sel])
    lams, right, left = lams[idx], right[:, idx], left[:, idx]

    order = np.lexsort((lams.imag, lams.real))
    lams, right, left = lams[order], right[:, order], left[:, order]

    # cluster-wise biorthonormalization against the weighted pairing
    cluster_tol = 1e-8 * max(scale, 1.0)
    for grp in _cluster(lams, cluster_tol):
        sl = np.s_[:, grp]
        G = left[sl].conj().T @ (weights[:, None] * right[sl])
        U, s, Vh = np.linalg.svd(G)
        if s[-1] < _GRAM_FLOOR * max(s[0], 1.0):
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
    res_l = float(np.max(np.linalg.norm(M.conj().T @ left - left * np.conj(lams), axis=0)
                         / np.linalg.norm(left, axis=0)) / scale)
    return EigenFamily(lams, right, left, weights, res_r, res_l)


def projection_measure(fam: EigenFamily, delta=None) -> np.ndarray:
    """E(Delta) = sum over lam in Delta of psi_lam phi_lam^* rho.

    ``delta`` is a predicate on complex eigenvalues (None keeps all).
    Multiplicative on the family: E(D1) E(D2) = E(D1 and D2).
    """
    if delta is None:
        keep = np.arange(len(fam))
    else:
        keep = np.array([k for k in range(len(fam)) if delta(complex(fam.lambdas[k]))],
                        dtype=int)
    E = np.zeros((fam.right.shape[0],) * 2, dtype=complex)
    for k in keep:
        E += np.outer(fam.right[:, k], fam.left[:, k].conj()) * fam.weights[None, :]
    return E


def elementary_kernel(fam: EigenFamily, lam: complex, tol: float = 1e-10) -> np.ndarray:
    """Z_lam = sum of psi phi^* over the eigenvalue's cluster (no weight)."""
    scale = max(np.max(np.abs(fam.lambdas)), 1.0)
    keep = [k for k in range(len(fam)) if abs(fam.lambdas[k] - lam) <= tol * scale]
    if not keep:
        raise EmptyBandError(f"{lam} is not an eigenvalue of this family")
    Z = np.zeros((fam.right.shape[0],) * 2, dtype=complex)
    for k in keep:
        Z += np.outer(fam.right[:, k], fam.left[:, k].conj())
    return Z


def kernel_from_measure(fam: EigenFamily, weight_fn) -> SpectralKernel:
    """Functional calculus K = sum_lam weight_fn(lam) psi_lam phi_lam^* rho."""
    vals = np.array([weight_fn(complex(l)) for l in fam.lambdas], dtype=complex)
    K = (fam.right * vals[None, :]) @ (fam.left.conj().T * fam.weights[None, :])
    return SpectralKernel("GridByGrid", K, note="functional calculus kernel")


def congruence_residual(K, Ltil, L) -> float:
    """|| Ltil K - K L ||_F normalized by ||K||_F max(||L||, ||Ltil||)."""
    Km = K.values if isinstance(K, SpectralKernel) else _as_matrix(K)
    Lm, Tm = _as_matrix(L), _as_matrix(Ltil)
    denom = np.linalg.norm(Km) * max(np.linalg.norm(Lm, 2), np.linalg.norm(Tm, 2))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(Tm @ Km - Km @ Lm) / denom)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_family(fam: EigenFamily, directory: str | Path, name: str = "family") -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(directory / f"{name}_lambdas.csv", fam.lambdas)
    save_matrix_csv(directory / f"{name}_right.csv", fam.right)
    save_matrix_csv(directory / f"{name}_left.csv", fam.left)
    save_matrix_csv(directory / f"{name}_weights.csv", fam.weights)
    manifest = {
        "count": len(fam),
        "dim": int(fam.right.shape[0]),
        "files": {key: f"{name}_{key}.csv" for key in ("lambdas", "right", "left", "weights")},
        "residual_right": fam.residual_right,
        "residual_left": fam.residual_left,
    }
    path = directory / f"{name}.json"
    save_json(path, manifest)
    return path


def load_family(manifest_path: str | Path) -> EigenFamily:
    manifest_path = Path(manifest_path)
    spec = json.loads(manifest_path.read_text(encoding="utf-8"))
    base = manifest_path.parent
    lam = np.atleast_1d(load_matrix_csv(base / spec["files"]["lambdas"]).ravel())
    right = load_matrix_csv(base / spec["files"]["right"])
    left = load_matrix_csv(base / spec["files"]["left"])
    weights = np.real(load_matrix_csv(base / spec["files"]["weights"]).ravel())
    return EigenFamily(lam, right, left, weights,
                       spec.get("residual_right", 0.0), spec.get("residual_left", 0.0))
