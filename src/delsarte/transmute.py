"""Triangular dressing operators on a grid.

The Delsarte operators Omega_pm = 1 + K_pm come from one of two kinds of
data, each its own class that builds its own factors.

:class:`TransmutationData` holds spectral transmutation data: a finite family
of right solutions psi_1..psi_m and left solutions phi_1..phi_m sampled on
the nodes, a measure rho and a normalization Omega_0.  The plus-side dressing
operator is the unit lower-triangular matrix

    (Omega_+ f)(x_i) = f(x_i) + sum_{j < i} K(x_i, x_j) f(x_j),
    K(x_i, x_j)      = - psi(x_i) W_i^{-1} phi(x_j)^* h rho_j,

where W_i = Omega_0 + h sum_{k < i} rho_k phi(x_k)^* psi(x_k) is the running
normalization accumulated strictly below the evaluation row.  The inverse
carries the same profile with the normalization taken inclusively at the
source column, V_j = W_{j+1}; the mismatch between the two cumulants
telescopes exactly, so Omega_+^{-1} is available in closed form with no
matrix inversion.  The minus-side operator mirrors the construction from the
right end of the grid.

:class:`KernelData` holds a kernel Phi commuting with the operator and
routes through the chain factorization, which realizes both signs at once
with the diagonal normalizer D carried outside the Volterra kernels.

Independent of any dressing data, :func:`pair_intertwiner` builds the unique
strictly lower kernel intertwining two given tridiagonal operators by
marching the discrete characteristic recursion row by row; the defect of
that construction is confined to the last row, so the conjugated operator
reproduces the target's interior rows at roundoff level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (ConditionNumberError, DiscretizationError, GridError,
                     SingularKernelError)
from .factorize import (TriangularPair, _conjugate, commutation_check,
                        gk_factorize)
from .grid_ops import _BAND_ROWS, Grid1D, _as_matrix, _is_hermitian, _upper_band

__all__ = [
    "TransmutationData",
    "KernelData",
    "DelsarteOp",
    "pair_intertwiner",
    "transform_operator",
    "locality_check",
    "independence_check",
    "adjoint_compat_check",
]


def _checked_operator(L, n: int) -> np.ndarray:
    """L as a finite (n, n) array, else DiscretizationError."""
    Lm = _as_matrix(L)
    if Lm.shape != (n, n) or not np.all(np.isfinite(Lm)):
        raise DiscretizationError(f"dressing data needs a finite operator of "
                                  f"shape {(n, n)}, got one of shape {Lm.shape}")
    return Lm


def _minus(sign: str) -> bool:
    """Whether a dressing sign is "-"; any sign but "+" or "-" raises by name."""
    if sign not in ("+", "-"):
        raise DiscretizationError(f"sign must be '+' or '-', got {sign!r}")
    return sign == "-"


# ---------------------------------------------------------------------------
# spectral transmutation data: families psi, phi, measure rho and Omega_0
# ---------------------------------------------------------------------------

@dataclass
class TransmutationData:
    """Sampled solution families (rows = nodes) with their measure and
    normalization; build it with :meth:`from_family`.

    The factors come in closed form from the running normalization W (the
    ``_prefix`` cumulants): :meth:`operator`, its exact :meth:`inverse`,
    the dual-side :meth:`adjoint`, and the streamed action :meth:`apply`.
    The arrays keep their data's dtype: real families (with a real
    ``omega0``) give real prefixes and real factors, and a complex input
    anywhere gives complex ones.
    """

    grid: Grid1D
    L: np.ndarray
    right: np.ndarray
    left: np.ndarray
    weights: np.ndarray
    omega0: np.ndarray
    _prefix: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_family(cls, grid: Grid1D, L, right, left, weights=None,
                    omega0=1.0) -> "TransmutationData":
        Lm = _checked_operator(L, grid.n)
        right, left, om = np.asarray(right), np.asarray(left), np.asarray(omega0)
        dtype = np.result_type(right, left, om, float)
        right = np.atleast_2d(right.astype(dtype, copy=False))
        left = np.atleast_2d(left.astype(dtype, copy=False))
        if right.shape[0] == 1 and right.shape[1] == grid.n:
            right = right.T
        if left.shape[0] == 1 and left.shape[1] == grid.n:
            left = left.T
        if right.shape[0] != grid.n or left.shape != right.shape or right.shape[1] == 0:
            raise DiscretizationError(
                f"family arrays must be ({grid.n}, m) with m >= 1, got right "
                f"{right.shape} and left {left.shape}")
        m = right.shape[1]
        om = om.astype(dtype, copy=False)
        w = np.ones(grid.n) if weights is None else np.asarray(weights, dtype=float)
        if w.shape != (grid.n,):
            raise DiscretizationError("weights must be one value per node")
        # before the scalar promotion, which would multiply inf into zeros
        if not all(np.all(np.isfinite(v)) for v in (right, left, w, om)):
            raise DiscretizationError("family data must be finite")
        if om.ndim == 0:
            om = np.eye(m, dtype=dtype) * om
        if om.shape != (m, m):
            raise DiscretizationError("omega0 must be scalar or (m, m)")
        data = cls(grid, Lm, right, left, w, om)
        data._build_prefix()
        return data

    def _build_prefix(self) -> None:
        """P[i] = Omega_0 + h sum_{k<i} rho_k phi_k^* psi_k, i = 0..n."""
        n, m = self.right.shape
        h = self.grid.h
        g = h * self.weights[:, None, None] * (
            np.conj(self.left)[:, :, None] * self.right[:, None, :])
        P = np.empty((n + 1, m, m), dtype=self.right.dtype)
        P[0] = self.omega0
        np.cumsum(g, axis=0, out=P[1:])
        P[1:] += self.omega0
        s = np.linalg.svd(P, compute_uv=False)
        floor = 1e-12 * np.maximum(np.maximum.accumulate(s[:, 0]), 1.0)
        bad = ~(s[:, -1] > floor)
        if bad.any():
            i = int(np.argmax(bad))
            raise SingularKernelError(
                f"running normalization W is singular at prefix length {i}")
        self._prefix = P

    def _reversed(self) -> "TransmutationData":
        """The same family walked from the right end (minus-side helper)."""
        return TransmutationData.from_family(
            self.grid, self.L[::-1, ::-1], self.right[::-1], self.left[::-1],
            self.weights[::-1], self.omega0)

    def _dressed_rows(self) -> np.ndarray:
        """u_i with u_i^T = psi(x_i) W_i^{-1}; rows of the dressed right family."""
        P = self._prefix[:-1]
        return np.linalg.solve(np.swapaxes(P, -1, -2), self.right[..., None])[..., 0]

    def omega_at(self, x: float) -> np.ndarray:
        """Accumulated spectral kernel Omega_x = Omega_0 + h sum_{a < y <= x} ...

        The sum runs over grid nodes in the half-open window from the left
        end a of the grid; at x = a the result is exactly Omega_0.
        """
        g = self.grid
        if not (g.a - 1e-12 <= x <= g.b + 1e-12):
            raise GridError(f"evaluation point {x} outside [{g.a}, {g.b}]")
        cx = int(np.searchsorted(g.x, x, side="right"))
        c0 = int(np.searchsorted(g.x, g.a, side="right"))
        return self.omega0 + (self._prefix[cx] - self._prefix[c0])

    def apply(self, f: np.ndarray, sign: str = "+") -> np.ndarray:
        """Apply 1 + K by streaming prefix sums (no dense kernel is formed).

        The result has the dtype numpy promotes ``f`` and the data to.
        """
        f = np.asarray(f)
        if f.shape != (self.grid.n,):
            raise DiscretizationError(
                f"apply needs one value per node, shape ({self.grid.n},), got {f.shape}")
        if _minus(sign):
            return self._reversed().apply(f[::-1], "+")[::-1]
        U = self._dressed_rows()
        moments = (self.grid.h * self.weights * f)[:, None] * np.conj(self.left)  # (n, m)
        S = np.zeros_like(moments)
        np.cumsum(moments[:-1], axis=0, out=S[1:])  # strict prefix
        return f - np.einsum("im,im->i", U, S)

    def _generators(self) -> np.ndarray:
        """The plus kernel's rank-m generators [U | C], shape (n, 2m), with
        K_+ = -tril(U C^T, -1): U the dressed rows (:meth:`_dressed_rows`)
        and C[j] = conj(phi(x_j)) h rho_j."""
        C = np.conj(self.left) * (self.grid.h * self.weights)[:, None]
        return np.hstack([self._dressed_rows(), C])

    def operator(self, sign: str = "+") -> DelsarteOp:
        """Dense triangular dressing operator for the requested sign; the
        plus kernel is formed from :meth:`_generators`."""
        if _minus(sign):
            return _mirror(self._reversed().operator("+"))
        U, C = np.hsplit(self._generators(), 2)
        return DelsarteOp("+", -np.tril(U @ C.T, -1))

    def inverse(self, sign: str = "+") -> DelsarteOp:
        """Closed-form inverse operator.

        The inverse kernel uses the inclusive cumulant V_j = W_{j+1} at the
        source column,  Khat(x_i, x_j) = + psi(x_i) V_j^{-1} phi(x_j)^* h rho_j,
        and (1+K)(1+Khat) = 1 telescopes exactly.
        """
        if _minus(sign):
            return _mirror(self._reversed().inverse("+"))
        Wc = (self.grid.h * self.weights)[:, None] * np.linalg.solve(
            self._prefix[1:], np.conj(self.left)[..., None])[..., 0]
        return DelsarteOp("+", np.tril(self.right @ Wc.T, -1))

    def adjoint(self) -> DelsarteOp:
        """The plus factor's dressing operator on the dual side.

        Built independently from the left family, it satisfies
        Omega_adj = (Omega_+^{-1})^dagger, so conjugating the adjoint
        operator with it reproduces the adjoint of the dressed operator.
        """
        A = (self.grid.h * self.weights)[:, None] * np.linalg.solve(
            np.conj(self._prefix[1:]), self.left[..., None])[..., 0]
        return DelsarteOp("-", np.triu(A @ np.conj(self.right).T, 1))


# ---------------------------------------------------------------------------
# kernel data: a kernel Phi commuting with L, split along the projector chain
# ---------------------------------------------------------------------------

@dataclass
class KernelData:
    """A kernel Phi commuting with L, factorized along the natural
    (grid-ordered) chain only; for another node order p, pass L[p][:, p]
    and Phi[p][:, p].

    1 + Phi = (1 + K_+)^{-1} D (1 + K_-) gives both signs at once:
    :meth:`operator` and :meth:`inverse` read the cached
    :meth:`factorization`.  A real kernel gives real factors.
    """

    L: np.ndarray
    Phi: np.ndarray
    _pair: TriangularPair | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        Phi = np.asarray(self.Phi)
        self.Phi = Phi.astype(np.result_type(Phi, float), copy=False)
        if self.Phi.ndim != 2 or self.Phi.shape[0] != self.Phi.shape[1]:
            raise DiscretizationError(f"kernel must be square, got shape {self.Phi.shape}")
        self.L = _checked_operator(self.L, self.Phi.shape[0])

    def factorization(self) -> TriangularPair:
        if self._pair is None:
            self._pair = gk_factorize(self.Phi)
        return self._pair

    def operator(self, sign: str = "+") -> DelsarteOp:
        """1 + K_+ for sign "+", D (1 + K_-) for sign "-"."""
        minus = _minus(sign)
        pair = self.factorization()
        if not minus:
            return DelsarteOp("+", pair.K_plus)
        return DelsarteOp("-", pair.K_minus, diag=pair.D)

    def inverse(self, sign: str = "+") -> DelsarteOp:
        """The inverse factor, by a triangular solve."""
        minus = _minus(sign)
        pair = self.factorization()
        eye = np.eye(len(pair.D))
        if not minus:
            Minv = scipy.linalg.solve_triangular(
                eye + pair.K_plus, eye, lower=True, unit_diagonal=True)
            return DelsarteOp("+", Minv - eye)
        B = scipy.linalg.solve_triangular(
            eye + pair.K_minus, eye, lower=False, unit_diagonal=True)
        return DelsarteOp("-", (pair.D[:, None] * B) / pair.D[None, :] - eye,
                          diag=1.0 / pair.D)


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

@dataclass
class DelsarteOp:
    """1 + K with K strictly triangular, optionally led by a diagonal.

    ``kernel`` is strictly lower for sign "+" and strictly upper for "-";
    the full matrix is diag * (1 + kernel) when a diagonal normalizer is
    present (the minus side of :class:`KernelData`), else 1 + kernel.
    Because the kernel is exactly triangular its spectrum is its diagonal:
    identically zero.
    """

    sign: str
    kernel: np.ndarray
    diag: np.ndarray | None = None
    _cond: float | None = field(default=None, init=False, repr=False, compare=False)

    def matrix(self) -> np.ndarray:
        """The assembled factor; its dtype is the kernel's (and the
        diagonal's), so a real kernel gives a real matrix.  The kernel is
        added to an identity and the diagonal scales the rows in place, so
        the assembly holds the one n x n array it returns."""
        dtype = self.kernel.dtype if self.diag is None else \
            np.result_type(self.kernel, self.diag)
        M = np.eye(self.kernel.shape[0], dtype=dtype)
        M += self.kernel
        if self.diag is not None:
            M *= self.diag[:, None]
        return M

    def volterra_defect(self) -> float:
        """Largest |entry| of the kernel on or across its diagonal.

        The kernel of every factor the library builds is strictly triangular
        by construction, so its spectrum is its zero diagonal and the defect
        reads exactly 0.0.  Mass on the diagonal or in the other triangle
        reads as its largest modulus, and a NaN there reads NaN.  The kernel
        is read in blocks of ``_BAND_ROWS`` rows, so the temporaries span
        one block, never the whole kernel.
        """
        K = self.kernel
        part = np.triu if self.sign == "+" else np.tril
        # row r0 + i of a block keeps the columns j >= r0 + i ("+") or <= ("-")
        worst = [np.max(np.abs(part(K[r0:r0 + _BAND_ROWS], r0)), initial=0.0)
                 for r0 in range(0, K.shape[0], _BAND_ROWS)]
        return float(np.max(worst, initial=0.0))

    def cond(self) -> float:
        """Upper bound sqrt(kappa_1 kappa_inf) on the 2-norm condition number.

        The factor is triangular, so one triangular inversion (LAPACK
        ``trtri``) gives its inverse and the 1- and inf-norm condition
        numbers exactly.  Because ||A||_2 <= sqrt(||A||_1 ||A||_inf), their
        geometric mean bounds kappa_2 from above (and exceeds it by at most
        a factor n), so a guard on this value rejects every factor a 2-norm
        guard rejects.  A non-finite or singular factor, or a kernel with
        entries outside its strict triangle, gives inf.  The first call
        stores the bound in ``_cond`` and later calls return it without
        another inversion, so the kernel and diagonal are not to be changed
        once it is asked for.  :func:`transform_operator` stores it from the
        factor it assembles for the conjugation.  Beside the kernel the
        first call holds two n x n arrays, the factor and its inverse.
        """
        if self._cond is None:
            self._cond = self._cond_bound(self.matrix())
        return self._cond

    def _cond_bound(self, M: np.ndarray) -> float:
        """:meth:`cond` of the assembled factor ``M`` (:meth:`matrix`).

        The norms of M and of its inverse are read in blocks
        (:func:`_norms_1_inf`), so beside the two the bound holds no n x n
        temporary.  A non-finite entry of M makes a norm non-finite, and
        the bound inf, before any inversion.
        """
        if not self.volterra_defect() == 0.0:
            return float("inf")
        m1, minf = _norms_1_inf(M)
        if not (np.isfinite(m1) and np.isfinite(minf)):
            return float("inf")
        # the other triangle of M is zero, and with a unit diagonal the
        # diagonal LAPACK leaves untouched is the inverse's
        trtri = scipy.linalg.lapack.get_lapack_funcs("trtri", (M,))
        Minv, info = trtri(M, lower=self.sign == "+", unitdiag=self.diag is None)
        if info != 0:
            return float("inf")
        i1, iinf = _norms_1_inf(Minv)
        bound = float(np.sqrt(m1 * i1) * np.sqrt(minf * iinf))
        return bound if np.isfinite(bound) else float("inf")


def _norms_1_inf(A: np.ndarray):
    """``np.linalg.norm(A, 1)`` and ``np.linalg.norm(A, np.inf)`` of a square
    A, bit for bit, from blocks of ``_BAND_ROWS`` columns and rows: each
    column and row sum is the one numpy forms over the whole ``abs(A)``, in
    the same order for C and Fortran order, and a maximum does not depend
    on how its candidates are grouped."""
    starts = range(0, A.shape[0], _BAND_ROWS)
    one = np.max([np.abs(A[:, c:c + _BAND_ROWS]).sum(axis=0).max() for c in starts])
    inf = np.max([np.abs(A[r:r + _BAND_ROWS]).sum(axis=1).max() for r in starts])
    return one, inf


def _mirror(op: DelsarteOp) -> DelsarteOp:
    """Minus-side operator from a plus-side one built on the reversed grid."""
    return DelsarteOp("-", op.kernel[::-1, ::-1])



# ---------------------------------------------------------------------------
# pair intertwiner: discrete characteristic marching
# ---------------------------------------------------------------------------

def _extract_tridiag(M: np.ndarray):
    """Diagonal and off-diagonal scale c of a real symmetric tridiagonal
    operator with constant off-diagonals -c, read from its upper band
    (:func:`grid_ops._upper_band`); anything else is named and refused."""
    if M.ndim != 2 or M.shape[0] < 2:
        raise DiscretizationError("pair intertwiner needs operators of size 2 or more")
    if not np.all(np.isfinite(M)):
        raise DiscretizationError("pair intertwiner needs finite operators")
    ab = _upper_band(M, 1)
    if ab is None:
        raise DiscretizationError("pair intertwiner needs tridiagonal operators")
    if np.iscomplexobj(ab) and np.any(ab.imag):
        raise DiscretizationError("pair intertwiner needs real operators, got complex "
                                  "entries (a complex potential or off-diagonal)")
    if not _is_hermitian(M, ab):
        raise DiscretizationError("pair intertwiner needs symmetric operators, got "
                                  "unequal off-diagonals")
    if len(ab) == 1 or ab[0, 1] == 0:
        raise DiscretizationError("pair intertwiner needs a nonzero off-diagonal, got c = 0")
    if not np.all(ab[0, 1:] == ab[0, 1]):
        raise DiscretizationError("pair intertwiner needs constant equal off-diagonals")
    return np.real(ab[1]), -float(np.real(ab[0, 1]))


def pair_intertwiner(L, Ltil, sign: str = "+", grid: Grid1D | None = None) -> DelsarteOp:
    """Strictly triangular K with (1 + K) L = Ltil (1 + K) on interior rows.

    Both operators must be real, symmetric and tridiagonal with the same
    constant off-diagonal (the standard second-difference shape); they may
    differ in their diagonals, i.e. in the potential.  Each is read through
    its band (:func:`_extract_tridiag`) with no tolerance: a complex entry
    (a complex potential), any nonzero off the band, unequal off-diagonals
    or off-diagonal scales that differ between L and Ltil by any amount
    raise :class:`DiscretizationError` naming the cause, as
    :func:`discretize` assembles every real -d^2 + q on one grid exactly
    symmetric, with the same off-diagonal bits.
    The kernel is marched row by row from the zero first row; each new row
    cancels one row of the intertwining defect, leaving all of it in the
    final row (first row for sign "-").
    A ``grid``, when given, must have one node per row of L.
    """
    Lm = _as_matrix(L)
    Tm = _as_matrix(Ltil)
    if Lm.shape != Tm.shape:
        raise DiscretizationError("operator shapes differ")
    if grid is not None and grid.n != Lm.shape[0]:
        raise DiscretizationError(f"grid has {grid.n} nodes but the operators "
                                  f"are {Lm.shape[0]}x{Lm.shape[1]}")
    if _minus(sign):
        return _mirror(pair_intertwiner(Lm[::-1, ::-1], Tm[::-1, ::-1], "+"))
    dL, c = _extract_tridiag(Lm)
    dT, cT = _extract_tridiag(Tm)
    if c != cT:
        raise DiscretizationError(f"off-diagonal scales differ between the pair: "
                                  f"c = {c!r} for L, {cT!r} for Ltil")
    n = Lm.shape[0]
    K = np.zeros((n, n))
    # K[i+1,j] = -K[i-1,j] + K[i,j-1] + K[i,j+1] + (dT_i - dL_j)/c K[i,j]
    #            + delta_{ij} (dT_i - dL_i)/c
    for i in range(n - 1):
        prev = K[i - 1] if i > 0 else np.zeros(n)
        cur = K[i]
        nxt = K[i + 1]
        if i > 0:
            j = np.arange(i)
            shift_left = np.zeros(i)
            shift_left[1:] = cur[:i - 1]
            nxt[:i] = -prev[:i] + shift_left + cur[1:i + 1] \
                + (dT[i] - dL[j]) / c * cur[:i]
        nxt[i] = cur[i - 1] if i > 0 else 0.0
        nxt[i] += (dT[i] - dL[i]) / c
    return DelsarteOp("+", K)


# ---------------------------------------------------------------------------
# conjugation and diagnostics
# ---------------------------------------------------------------------------

def transform_operator(L, om: DelsarteOp, cond_guard: float = 1e10) -> np.ndarray:
    """Ltil = Omega L Omega^{-1}, computed by linear solves.

    Refuses (with :class:`ConditionNumberError`) factors whose condition
    number would erase more than the guard allows, and (with
    :class:`DiscretizationError`) an operator that is not finite or not of
    the factor's size.  The factor is assembled once: the guard's
    :meth:`DelsarteOp.cond`, when not yet stored, and the conjugation
    share it.
    """
    Lm = _checked_operator(L, om.kernel.shape[0])
    M = om.matrix()
    if om._cond is None:
        om._cond = om._cond_bound(M)
    cond = om._cond
    if not np.isfinite(cond) or cond > cond_guard:
        raise ConditionNumberError(
            f"conjugation by the {om.sign} factor rejected: cond = {cond:.3e} "
            f"exceeds guard {cond_guard:.1e}")
    return _conjugate(M, Lm, lower=om.sign == "+")


def locality_check(Ltil, bandwidth: int) -> float:
    """Relative off-band mass of the interior rows.

    Rows within ``bandwidth + 2`` of either end are excluded: the dressing
    necessarily dumps its defect there (last or first row) and the
    discretization truncates stencils there anyway.  Raises
    :class:`DiscretizationError` for an operator that is not square or has
    no interior row left.
    """
    A = _as_matrix(Ltil)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DiscretizationError(
            f"locality check needs a square operator, got shape {A.shape}")
    n = A.shape[0]
    edge = bandwidth + 2
    if n - 2 * edge < 1:
        raise DiscretizationError(
            f"operator of size {n} has no interior rows for the locality "
            f"check at bandwidth {bandwidth}; at least {2 * edge + 1} are needed")
    sub = A[edge:n - edge]
    # |i - j| > bandwidth for row i of sub at node edge + i, from boolean
    # triangles: no n x n index array
    off_band = np.tri(n - 2 * edge, n, edge - bandwidth - 1, dtype=bool)
    off_band |= ~np.tri(n - 2 * edge, n, edge + bandwidth, dtype=bool)
    return float(np.linalg.norm(sub[off_band]) / max(np.linalg.norm(sub), 1e-300))


def independence_check(data: TransmutationData | KernelData):
    """(operator gap, commutation residual) between the two signs.

    The conjugations by Omega_plus and by Omega_minus agree exactly when
    Omega_plus^{-1} Omega_minus commutes with L; both deviations are
    returned so valid dressing data can be certified and generic data
    flagged.  Each factor's matrix lives only while it is needed, and the
    two conjugates only until their gap is read.
    """
    L = data.L
    plus = data.operator("+")
    Ltp = _conjugate(plus.matrix(), L, lower=True)
    Mm = data.operator("-").matrix()
    Ltm = _conjugate(Mm, L, lower=False)
    scale = np.linalg.norm(Ltp)
    Ltp -= Ltm
    gap = float(np.linalg.norm(Ltp) / max(scale, 1e-300))
    del Ltp, Ltm
    # Omega_plus is unit lower triangular for both data classes, so the
    # solve reads only the strict lower triangle, which is its kernel's
    ratio = scipy.linalg.solve_triangular(plus.kernel, Mm, lower=True, unit_diagonal=True)
    del Mm
    return gap, commutation_check(ratio, L)


def adjoint_compat_check(data: TransmutationData) -> float:
    """|| (Omega L Omega^{-1})^dagger - Omega_adj L^dagger Omega_adj^{-1} ||_F / ||L||_F.

    Omega_adj is constructed independently from the swapped family, so
    agreement certifies that dressing and taking adjoints commute for this
    data.  Any other input raises :class:`DiscretizationError`.
    """
    if not isinstance(data, TransmutationData):
        raise DiscretizationError(
            f"adjoint_compat_check needs TransmutationData, got {type(data).__name__}")
    L = data.L
    A = _conjugate(data.operator("+").matrix(), L, lower=True).conj().T
    B = _conjugate(data.adjoint().matrix(), L.conj().T, lower=False)
    return float(np.linalg.norm(A - B) / max(np.linalg.norm(L), 1e-300))
