"""Rank-one dressing of one-dimensional Schrodinger operators.

A nodeless solution tau of (-d^2 + q) tau = lambda0 tau generates the
dressed potential

    qtilde = q - 2 (ln tau)''

whose operator keeps the spectrum of the original except for one new bound
state at lambda0.  Iterating with several seeds at distinct energies stacks
bound states; for exponential-polynomial seeds the iterated potential has
the closed Wronskian form  qtilde_k = -2 (ln W(tau_1 .. tau_k))''  and every
logarithmic derivative can be evaluated analytically, which keeps the deep
bound-state values exact instead of limited by stencil accuracy.  That
analytic route is the only one: every seed carries its closed form, and
the sampled values serve the nodelessness and residual gates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, SeedNodeError
from .grid_ops import (DiffOp, Grid1D, OperatorMatrix, ProductGrid,
                       _band_matvec, _band_norm, _stencil, discretize)

__all__ = [
    "ExpPoly",
    "SchrodingerOp",
    "DressingSeed",
    "DressedResult",
    "darboux_once",
    "crum_iterate",
    "spectrum_compare",
]


# ---------------------------------------------------------------------------
# exponential polynomials
# ---------------------------------------------------------------------------

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _half_exponentials(kappa: float, center: float):
    """(k, e^{-k c}/2, e^{k c}/2) with k = kappa as a complex number;
    DiscretizationError when either coefficient passes the float range."""
    k = complex(kappa)
    if abs(k.real * center) > _LOG_FLOAT_MAX:
        raise DiscretizationError(
            f"seed coefficients e^(+-kappa center) pass the float range "
            f"at kappa = {kappa}, center = {center}")
    return k, 0.5 * np.exp(-k * center), 0.5 * np.exp(k * center)


class ExpPoly:
    """Finite sum  sum_mu c_mu e^{mu x}  with exact calculus.

    Wronskians of such sums stay in the class (:meth:`wronskian`), and
    (ln f)'' is evaluated in closed form.  Evaluation shifts out the dominant
    exponent per node, so ratios of derivatives are stable far beyond the
    naive overflow range.
    """

    def __init__(self, terms: dict):
        clean: dict = {}
        for mu, c in terms.items():
            mu = complex(mu)
            c = complex(c)
            if c != 0.0:
                clean[mu] = clean.get(mu, 0.0) + c
        self.terms = {mu: c for mu, c in clean.items() if c != 0.0}

    @classmethod
    def cosh(cls, kappa: float, center: float = 0.0) -> "ExpPoly":
        k, a, b = _half_exponentials(kappa, center)
        return cls({k: a, -k: b})

    @classmethod
    def sinh(cls, kappa: float, center: float = 0.0) -> "ExpPoly":
        k, a, b = _half_exponentials(kappa, center)
        return cls({k: a, -k: -b})

    def _mu_unit(self) -> float:
        """The power of two above every |mu| (at least 2): S1 and S2 are
        summed in units of it and its square, so c mu^p cannot overflow."""
        top = max((abs(mu) for mu in self.terms), default=1.0)
        return math.ldexp(1.0, max(1, math.frexp(top)[1]))

    def _scaled_sums(self, x: np.ndarray, unit: float = 1.0):
        """S_p(x) = sum c (mu/unit)^p e^{mu x - m(x)} for p = 0, 1, 2 (common
        shift m); a power-of-two ``unit`` scales S1 and S2 exactly.  The
        shift m = max (Re mu x + log|c|) is that of the largest term, so no
        term that a large coefficient pays for underflows before it is
        multiplied by that coefficient, and every term stays at most 1."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.terms:
            z = np.zeros_like(x, dtype=complex)
            return z, z, z, np.zeros_like(x)
        mus = np.array(list(self.terms.keys()))
        cs = np.array([self.terms[mu] for mu in mus])
        units = mus / unit
        expo = np.real(mus)[None, :] * x[:, None]
        m = np.max(expo + np.log(np.abs(cs)), axis=1)
        ph = np.exp(expo - m[:, None] + 1j * np.imag(mus)[None, :] * x[:, None])
        S0 = ph @ cs
        S1 = ph @ (cs * units)
        S2 = ph @ (cs * units ** 2)
        return S0, S1, S2, m

    def eval(self, x) -> np.ndarray:
        """S0 e^m, and inf wherever that passes the float range.  The
        overflow is read off m + log|S0| before exponentiating, so it is
        never computed (and never warns)."""
        S0, _, _, m = self._scaled_sums(x, self._mu_unit())
        over = m + np.log(np.maximum(np.abs(S0), 1.0)) > _LOG_FLOAT_MAX
        return np.where(over, np.inf, S0 * np.exp(np.where(over, 0.0, m)))

    def log_second_derivative(self, x) -> np.ndarray:
        """(ln f)'' = (f'' f - f'^2)/f^2, evaluated with the common shift
        cancelled, S1 and S2 in units of :meth:`_mu_unit`, and the sums
        scaled by the power of two at or above |f| at each point: exact,
        and the products cannot overflow."""
        unit = self._mu_unit()
        S0, S1, S2, _ = self._scaled_sums(x, unit)
        if np.any(S0 == 0):
            raise SeedNodeError("seed vanishes at an evaluation point")
        scale = np.ldexp(1.0, np.frexp(np.abs(S0))[1])
        S0, S1, S2 = S0 / scale, S1 / scale, S2 / scale
        return (S2 * S0 - S1 ** 2) / (S0 ** 2) * unit ** 2

    @staticmethod
    def wronskian(funcs: list) -> "ExpPoly":
        """Wronskian W(f_1 .. f_k) in closed form.  W is multilinear, and
        for one term c_j e^{mu_j x} of each f_j it is the Vandermonde form
        prod c_j prod_{i<j} (mu_j - mu_i) e^{(sum mu) x}; W sums that over
        every choice of terms.  No permutation terms cancel, so close
        exponents keep their differences mu_j - mu_i to relative precision."""
        total: dict = {}
        for choice in itertools.product(*(f.terms.items() for f in funcs)):
            mus = [mu for mu, _ in choice]
            coef = (math.prod(c for _, c in choice)
                    * math.prod(mj - mi for mi, mj in itertools.combinations(mus, 2)))
            mu = sum(mus)
            total[mu] = total.get(mu, 0.0) + coef
        return ExpPoly(total)


# ---------------------------------------------------------------------------
# operators and seeds
# ---------------------------------------------------------------------------

@dataclass
class SchrodingerOp:
    """L = -d^2/dx^2 + q(x) on a 1-D grid (Dirichlet elimination)."""

    grid: Grid1D
    q: np.ndarray  # sampled potential, shape (n,)

    @classmethod
    def free(cls, grid: Grid1D) -> "SchrodingerOp":
        return cls(grid, np.zeros(grid.n))

    def diffop(self) -> DiffOp:
        pg = ProductGrid.line(self.grid)
        return DiffOp(pg, {(2,): -1.0, (0,): self.q})

    def matrix(self) -> OperatorMatrix:
        """The second-order (3-point stencil) discretization, real for a
        real potential.  On a Dirichlet grid it is held as its band alone
        (:meth:`to_banded`, the dense matrix's bits), so no n x n array is
        formed unless its ``A`` is read; a periodic grid's is assembled
        densely (:func:`discretize`)."""
        if self.grid.boundary != "dirichlet":
            return discretize(self.diffop())
        return OperatorMatrix(band=self.to_banded())

    def to_banded(self) -> np.ndarray:
        """The upper band of the discretization, on a Dirichlet grid
        without the dense matrix: the tridiagonal band is written from q
        and the 3-point weights with the sums :func:`discretize` forms, in
        its order, so it has the bits of ``_upper_band`` of the assembled
        matrix.  A periodic grid's wrap entries make the band the whole
        matrix, which is then assembled."""
        op = self.diffop()
        if self.grid.boundary != "dirichlet":
            return discretize(op).to_banded()
        _, (_, w0, w1) = _stencil(self.grid, 2, 2)
        q, c = op.terms[(0,)][:, 0, 0], op.terms[(2,)][:, 0, 0]
        ab = np.zeros((2, self.grid.n), np.result_type(*op.terms.values(), float))
        ab[1] += q
        ab[1] += c * w0
        ab[0, 1:] += c[:-1] * w1
        return ab


@dataclass
class DressingSeed:
    """A formal solution tau at energy lambda0, nodeless on the grid.

    ``expr`` (an :class:`ExpPoly`) is the closed form the dressing
    differentiates; ``stencil_energy`` is the eigenvalue the sampled tau
    satisfies exactly against the second-difference stencil, used for the
    residual gate.
    """

    grid: Grid1D
    values: np.ndarray
    energy: float
    expr: ExpPoly

    @classmethod
    def hyperbolic(cls, grid: Grid1D, kappa: float, parity: str = "even",
                   center: float = 0.0) -> "DressingSeed":
        expr = ExpPoly.cosh(kappa, center) if parity == "even" else ExpPoly.sinh(kappa, center)
        vals = np.real(expr.eval(grid.x))
        return cls(grid, vals, -float(kappa) ** 2, expr)

    def stencil_energy(self) -> float:
        """Exact eigenvalue of pure exponential profiles on the 3-point stencil."""
        kappa = math.sqrt(max(-self.energy, 0.0))
        h = self.grid.h
        return -(2.0 * math.cosh(kappa * h) - 2.0) / h ** 2


@dataclass
class DressedResult:
    operator: SchrodingerOp
    qtilde: np.ndarray
    log_tau: ExpPoly
    base_is_zero: bool

    def qtilde_at(self, x) -> np.ndarray:
        """Off-grid dressed potential of a free base."""
        if not self.base_is_zero:
            raise DiscretizationError("base potential has no off-grid form")
        xa = np.asarray(x, dtype=float)
        return np.real(-2.0 * self.log_tau.log_second_derivative(xa))


def _check_grid(op: SchrodingerOp, seed: DressingSeed) -> None:
    if np.shape(seed.values) != (op.grid.n,):
        raise DiscretizationError("seed sampled on the wrong grid")


def _check_seed(op: SchrodingerOp, seed: DressingSeed) -> None:
    _check_grid(op, seed)
    vals = np.asarray(seed.values)
    if not np.all(np.isfinite(vals)):
        raise DiscretizationError("seed values overflow on the grid")
    sign = np.sign(np.real(vals))
    if np.any(sign[:-1] * sign[1:] <= 0.0):
        raise SeedNodeError("seed changes sign between neighboring nodes")
    # the gate is relative, so the seed is first scaled by the power of two
    # at or above its largest entry: exact, and no product overflows
    vals = vals / np.ldexp(1.0, np.frexp(np.max(np.abs(vals)))[1])
    # residual gate on interior rows; boundary rows see the eliminated nodes
    w = 3  # rows touched by the one-sided truncation of the 3-point stencil
    if op.grid.n - 2 * w < 1:
        raise DiscretizationError(
            f"grid of {op.grid.n} nodes has no interior rows for the seed "
            f"residual gate; at least {2 * w + 1} are needed")
    ab = op.to_banded()
    r = _band_matvec(ab, vals) - seed.stencil_energy() * vals
    res = np.max(np.abs(r[w:op.grid.n - w]))
    norm = _band_norm(ab, np.inf)
    gate = 1e-8 * norm * np.max(np.abs(vals))
    if not (res <= gate):
        raise DiscretizationError(
            f"seed is not a formal solution: interior residual "
            f"{res:.3e} exceeds gate {gate:.3e}")


def darboux_once(op: SchrodingerOp, seed: DressingSeed) -> DressedResult:
    """One dressing step qtilde = q - 2 (ln tau)'', with (ln tau)'' taken
    from the seed's closed form (exact values at every node)."""
    _check_seed(op, seed)
    qtilde = op.q - 2.0 * np.real(seed.expr.log_second_derivative(op.grid.x))
    return DressedResult(SchrodingerOp(op.grid, qtilde), qtilde, seed.expr,
                         base_is_zero=bool(np.max(np.abs(op.q)) == 0.0))


def crum_iterate(op: SchrodingerOp, seeds: list) -> list:
    """Stacked dressing; returns the list of per-stage results.

    Stage k is -2 (ln W(tau_1..tau_k))'' with W in closed form from the seeds'
    expressions (:meth:`ExpPoly.wronskian`), so the starting potential must
    vanish.  A single seed routes through :func:`darboux_once` unchanged.
    """
    if len(seeds) == 1:
        return [darboux_once(op, seeds[0])]
    for s in seeds:
        _check_grid(op, s)
    if np.max(np.abs(op.q)) != 0.0:
        raise DiscretizationError("iterated closed-form dressing starts from q = 0")
    energies = [s.energy for s in seeds]
    if len(set(np.round(energies, 12))) != len(energies):
        raise DiscretizationError("seed energies must be distinct")
    x = op.grid.x
    results = []
    for k in range(1, len(seeds) + 1):
        W = ExpPoly.wronskian([s.expr for s in seeds[:k]])
        sign = np.sign(np.real(W.eval(x)))
        if np.any(sign[:-1] * sign[1:] <= 0.0):
            raise SeedNodeError(f"stage {k} Wronskian changes sign on the grid")
        qtilde = -2.0 * np.real(W.log_second_derivative(x))
        results.append(DressedResult(SchrodingerOp(op.grid, qtilde), qtilde, W,
                                     base_is_zero=True))
    return results


_N_LOW = 8  # eigenvalues reported per side, and positive ones compared
_MATCH_RTOL = 1e-2  # relative distance at which a negative eigenvalue is matched


def _band_eigvals(A: OperatorMatrix | SchrodingerOp) -> np.ndarray:
    """Ascending eigenvalues of a symmetric operator, computed from its band
    (as wide as its farthest nonzero diagonal); a :class:`SchrodingerOp`
    gives the band without its dense matrix."""
    return scipy.linalg.eig_banded(A.to_banded(), eigvals_only=True)


def _low_spectrum(ab: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a symmetric operator, given by its
    upper band ``ab``, that :func:`_compare_spectra` reads: every one <= 0
    and the ``_N_LOW`` after them (fewer on a smaller operator)."""
    # Gershgorin lower bound a_ii - sum_{j != i} |a_ij|, moved down since
    # select='v' excludes its left end
    abs_rows = _band_matvec(np.abs(ab), np.ones(ab.shape[1]))
    lo = float(np.min(ab[-1].real + np.abs(ab[-1]) - abs_rows))
    lo -= 1.0 + abs(lo)
    k_neg = len(scipy.linalg.eig_banded(ab, eigvals_only=True, select="v",
                                        select_range=(lo, 0.0)))
    top = min(k_neg + _N_LOW, ab.shape[1]) - 1
    return scipy.linalg.eig_banded(ab, eigvals_only=True, select="i",
                                   select_range=(0, top))


def spectrum_compare(before: SchrodingerOp, after: SchrodingerOp) -> dict:
    """Eigenvalue bookkeeping for a dressing step.

    Reports the lowest ``_N_LOW`` (8) eigenvalues of both operators, the
    list of negative eigenvalues that appeared (no counterpart within the
    relative ``_MATCH_RTOL``, 1e-2), and the drift of the matched positive
    band over its lowest ``_N_LOW`` values.  Only those eigenvalues are
    computed: ``eig_banded`` on each banded symmetric discretization counts
    the ones <= 0 by value, then selects them and the next ``_N_LOW`` by
    index.  The bands come from :meth:`SchrodingerOp.to_banded`, so on a
    Dirichlet grid no dense matrix is formed.
    """
    return _compare_spectra(_low_spectrum(before.to_banded()),
                            _low_spectrum(after.to_banded()))


def _compare_spectra(lb: np.ndarray, la: np.ndarray) -> dict:
    """:func:`spectrum_compare` on the ascending spectra before and after."""
    neg_b = lb[lb < 0.0]
    neg_a = la[la < 0.0]
    new_negative = []
    used = np.zeros(len(neg_b), dtype=bool)
    for lam in neg_a:
        if len(neg_b):
            j = int(np.argmin(np.abs(neg_b - lam)))
            if not used[j] and abs(neg_b[j] - lam) <= _MATCH_RTOL * max(1.0, abs(lam)):
                used[j] = True
                continue
        new_negative.append(float(lam))
    pos_b = lb[lb > 0.0][:_N_LOW]
    pos_a = la[la > 0.0][:_N_LOW]
    m = min(len(pos_b), len(pos_a))
    drift = float(np.max(np.abs(pos_a[:m] - pos_b[:m]) / np.abs(pos_b[:m]))) if m else float("nan")
    return {
        "lowest_before": [float(v) for v in lb[:_N_LOW]],
        "lowest_after": [float(v) for v in la[:_N_LOW]],
        "new_negative": new_negative,
        "band_drift": drift,
    }
