"""Rank-one dressing of one-dimensional Schrodinger operators.

A nodeless solution tau of (-d^2 + q) tau = lambda0 tau generates the
dressed potential

    qtilde = q - 2 (ln tau)''

whose operator keeps the spectrum of the original except for one new bound
state at lambda0.  Iterating with several seeds at distinct energies stacks
bound states; for exponential-polynomial seeds the iterated potential has
the closed Wronskian form  qtilde_k = -2 (ln W(tau_1 .. tau_k))''  and every
logarithmic derivative can be evaluated analytically, which keeps the deep
bound-state values exact instead of limited by stencil accuracy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DiscretizationError, SeedNodeError
from .grid_ops import (DiffOp, Grid1D, OperatorMatrix, ProductGrid,
                       derivative_matrix, discretize)

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


class ExpPoly:
    """Finite sum  sum_mu c_mu e^{mu x}  with exact calculus.

    Closed under +, *, and d/dx, so Wronskians of seed families stay inside
    the class and (ln tau)'' can be evaluated in closed form.  Evaluation
    shifts out the dominant exponent per node, so ratios of derivatives are
    stable far beyond the naive overflow range.
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
        k = complex(kappa)
        return cls({k: 0.5 * np.exp(-k * center), -k: 0.5 * np.exp(k * center)})

    @classmethod
    def sinh(cls, kappa: float, center: float = 0.0) -> "ExpPoly":
        k = complex(kappa)
        return cls({k: 0.5 * np.exp(-k * center), -k: -0.5 * np.exp(k * center)})

    def derivative(self) -> "ExpPoly":
        return ExpPoly({mu: mu * c for mu, c in self.terms.items()})

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0.0) + c
        return ExpPoly(out)

    def __mul__(self, other) -> "ExpPoly":
        if isinstance(other, ExpPoly):
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mu = m1 + m2
                    out[mu] = out.get(mu, 0.0) + c1 * c2
            return ExpPoly(out)
        return ExpPoly({mu: c * other for mu, c in self.terms.items()})

    __rmul__ = __mul__

    def _scaled_sums(self, x: np.ndarray):
        """S_p(x) = sum c mu^p e^{mu x - m(x)} for p = 0, 1, 2 (common shift m)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not self.terms:
            z = np.zeros_like(x, dtype=complex)
            return z, z, z, np.zeros_like(x)
        mus = np.array(list(self.terms.keys()))
        cs = np.array([self.terms[mu] for mu in mus])
        expo = np.real(mus)[None, :] * x[:, None]
        m = np.max(expo, axis=1)
        ph = np.exp(expo - m[:, None] + 1j * np.imag(mus)[None, :] * x[:, None])
        S0 = ph @ cs
        S1 = ph @ (cs * mus)
        S2 = ph @ (cs * mus ** 2)
        return S0, S1, S2, m

    def eval(self, x) -> np.ndarray:
        """S0 e^m, and inf wherever that passes the float range.  The
        overflow is read off m + log|S0| before exponentiating, so it is
        never computed (and never warns)."""
        S0, _, _, m = self._scaled_sums(x)
        over = m + np.log(np.maximum(np.abs(S0), 1.0)) > _LOG_FLOAT_MAX
        return np.where(over, np.inf, S0 * np.exp(np.where(over, 0.0, m)))

    def log_second_derivative(self, x) -> np.ndarray:
        """(ln f)'' = (f'' f - f'^2)/f^2, evaluated with the common shift cancelled."""
        S0, S1, S2, _ = self._scaled_sums(x)
        if np.any(S0 == 0):
            raise SeedNodeError("seed vanishes at an evaluation point")
        return (S2 * S0 - S1 ** 2) / (S0 ** 2)

    def log_derivative(self, x) -> np.ndarray:
        S0, S1, _, _ = self._scaled_sums(x)
        if np.any(S0 == 0):
            raise SeedNodeError("seed vanishes at an evaluation point")
        return S1 / S0

    @staticmethod
    def wronskian(funcs: list) -> "ExpPoly":
        """Wronskian determinant, expanded symbolically (small families)."""
        k = len(funcs)
        rows = [funcs]
        for _ in range(k - 1):
            rows.append([f.derivative() for f in rows[-1]])
        total = ExpPoly({})
        for perm in itertools.permutations(range(k)):
            # permutation parity by counting inversions
            inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
            sign = -1 if inv % 2 else 1
            prod = ExpPoly({0.0: float(sign)})
            for r in range(k):
                prod = prod * rows[r][perm[r]]
            total = total + prod
        return total


# ---------------------------------------------------------------------------
# operators and seeds
# ---------------------------------------------------------------------------

@dataclass
class SchrodingerOp:
    """L = -d^2/dx^2 + q(x) on a 1-D grid (Dirichlet elimination)."""

    grid: Grid1D
    q: np.ndarray  # sampled potential, shape (n,)
    q_fn: object = None  # optional callable for off-grid evaluation

    @classmethod
    def from_potential(cls, grid: Grid1D, q) -> "SchrodingerOp":
        if callable(q):
            return cls(grid, np.asarray(q(grid.x), dtype=float), q)
        q_arr = np.zeros(grid.n) + np.asarray(q)
        return cls(grid, q_arr.astype(float), None)

    @classmethod
    def free(cls, grid: Grid1D) -> "SchrodingerOp":
        return cls.from_potential(grid, 0.0)

    def diffop(self) -> DiffOp:
        pg = ProductGrid.line(self.grid)
        return DiffOp(pg, {(2,): -1.0, (0,): self.q.astype(complex)})

    def matrix(self, scheme_order: int = 2) -> OperatorMatrix:
        return discretize(self.diffop(), scheme_order)


@dataclass
class DressingSeed:
    """A formal solution tau at energy lambda0, nodeless on the grid.

    ``expr`` (an :class:`ExpPoly`) unlocks the analytic derivative route;
    ``stencil_energy`` is the eigenvalue the sampled tau satisfies exactly
    against the second-difference stencil, used for the residual gate.
    """

    grid: Grid1D
    values: np.ndarray
    energy: float
    expr: ExpPoly | None = None

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
    log_tau: ExpPoly | None = None
    base_q_fn: object = None
    base_is_zero: bool = False

    def qtilde_at(self, x) -> np.ndarray:
        """Off-grid dressed potential; analytic route only."""
        if self.log_tau is None:
            raise DiscretizationError("stencil-dressed potentials exist only on the grid")
        xa = np.asarray(x, dtype=float)
        if self.base_q_fn is not None:
            base = np.asarray(self.base_q_fn(xa))
        elif self.base_is_zero:
            base = 0.0
        else:
            raise DiscretizationError("base potential has no off-grid form")
        return np.real(base - 2.0 * self.log_tau.log_second_derivative(xa))


def _check_seed(op: SchrodingerOp, seed: DressingSeed, scheme_order: int) -> None:
    vals = np.asarray(seed.values)
    if vals.shape != (op.grid.n,):
        raise DiscretizationError("seed sampled on the wrong grid")
    if not np.all(np.isfinite(vals)):
        raise DiscretizationError("seed values overflow on the grid")
    re = np.real(vals)
    if np.any(re[:-1] * re[1:] <= 0.0):
        raise SeedNodeError("seed changes sign between neighboring nodes")
    # residual gate on interior rows; boundary rows see the eliminated nodes
    w = 1 + scheme_order  # rows touched by the one-sided truncation
    if op.grid.n - 2 * w < 1:
        raise DiscretizationError(
            f"grid of {op.grid.n} nodes has no interior rows for the seed "
            f"residual gate; at least {2 * w + 1} are needed")
    A = op.matrix(scheme_order).A
    lam = seed.stencil_energy() if seed.expr is not None else seed.energy
    r = A @ vals - lam * vals
    res = np.max(np.abs(r[w:op.grid.n - w]))
    gate = 1e-8 * np.linalg.norm(A, np.inf) * np.max(np.abs(vals))
    if not (res <= gate):
        raise DiscretizationError(
            f"seed is not a formal solution: interior residual "
            f"{res:.3e} exceeds gate {gate:.3e}")


def darboux_once(op: SchrodingerOp, seed: DressingSeed, scheme_order: int = 2,
                 derivative: str = "analytic") -> DressedResult:
    """One dressing step qtilde = q - 2 (ln tau)''.

    ``derivative="analytic"`` uses the seed's closed form (exact values,
    available for exponential-polynomial seeds); ``"stencil"`` differentiates
    ln tau with grid stencils of the requested order, which caps the accuracy
    of the dressed potential at O(h^scheme_order).
    """
    _check_seed(op, seed, scheme_order)
    x = op.grid.x
    if derivative == "analytic":
        if seed.expr is None:
            raise DiscretizationError("seed has no closed form; use derivative='stencil'")
        ltau2 = np.real(seed.expr.log_second_derivative(x))
        log_tau = seed.expr
    elif derivative == "stencil":
        logs = np.log(np.abs(np.asarray(seed.values, dtype=float)))
        D2 = derivative_matrix(op.grid, 2, scheme_order, one_sided_edges=True)
        ltau2 = D2 @ logs
        log_tau = None
    else:
        raise DiscretizationError(f"unknown derivative mode {derivative!r}")
    qtilde = op.q - 2.0 * ltau2
    dressed = SchrodingerOp(op.grid, qtilde, None)
    result = DressedResult(dressed, qtilde, log_tau,
                           base_q_fn=op.q_fn,
                           base_is_zero=bool(np.max(np.abs(op.q)) == 0.0))
    if log_tau is not None and (op.q_fn is not None or result.base_is_zero):
        dressed.q_fn = result.qtilde_at
    return result


def crum_iterate(op: SchrodingerOp, seeds: list, scheme_order: int = 2,
                 derivative: str = "analytic") -> list:
    """Stacked dressing; returns the list of per-stage results.

    The analytic route forms the Wronskians W(tau_1..tau_k) symbolically and
    requires every seed to carry a closed form and the starting potential to
    vanish.  A single seed routes through :func:`darboux_once` unchanged.
    The stencil route handles one seed only: later stages would need seeds
    of the already-dressed operator, which have no grid-only construction.
    """
    if len(seeds) == 1:
        return [darboux_once(op, seeds[0], scheme_order, derivative)]
    if derivative != "analytic":
        raise DiscretizationError("iterated dressing needs the analytic route")
    if np.max(np.abs(op.q)) != 0.0:
        raise DiscretizationError("iterated closed-form dressing starts from q = 0")
    if any(s.expr is None for s in seeds):
        raise DiscretizationError("every seed needs a closed form for iteration")
    energies = [s.energy for s in seeds]
    if len(set(np.round(energies, 12))) != len(energies):
        raise DiscretizationError("seed energies must be distinct")
    x = op.grid.x
    results = []
    for k in range(1, len(seeds) + 1):
        W = ExpPoly.wronskian([s.expr for s in seeds[:k]])
        Wv = np.real(W.eval(x))
        if np.any(Wv[:-1] * Wv[1:] <= 0.0):
            raise SeedNodeError(f"stage {k} Wronskian changes sign on the grid")
        qtilde = -2.0 * np.real(W.log_second_derivative(x))
        dressed = SchrodingerOp(op.grid, qtilde, None)
        res = DressedResult(dressed, qtilde, W,
                            base_q_fn=None, base_is_zero=True)
        dressed.q_fn = res.qtilde_at
        results.append(res)
    return results


_N_LOW = 8  # eigenvalues reported per side, and positive ones compared
_MATCH_RTOL = 1e-2  # relative distance at which a negative eigenvalue is matched


def _band_eigvals(A: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of the real part of a symmetric operator,
    computed from its band (the bandwidth ``discretize`` records)."""
    return scipy.linalg.eig_banded(np.real(A.to_banded()), eigvals_only=True)


def spectrum_compare(before: SchrodingerOp, after: SchrodingerOp,
                     scheme_order: int = 2) -> dict:
    """Eigenvalue bookkeeping for a dressing step.

    Reports the lowest ``_N_LOW`` (8) eigenvalues of both operators, the
    list of negative eigenvalues that appeared (no counterpart within the
    relative ``_MATCH_RTOL``, 1e-2), and the drift of the matched positive
    band over its lowest ``_N_LOW`` values.  The spectra are those of the
    real parts of the banded symmetric discretizations, from a banded
    eigensolver.
    """
    lb = _band_eigvals(before.matrix(scheme_order))
    la = _band_eigvals(after.matrix(scheme_order))
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
