"""Acceptance suite: one function per shipped guarantee.

Each criterion returns a list of result rows; a row is a dict with the
measured value, the threshold it is held against, the comparison direction,
and the verdict.  ``run_all`` concatenates criteria 1-8: it is the battery
the CLI ``verify`` command reports.  Criterion 3's dense eigenvalue oracle
runs in one worker thread while the main thread runs the other criteria.
That the same seed gives the same ``verify`` report digest is checked by
the test suite (``tests/test_acceptance.py::test_verify_report_determinism``),
which runs the command twice.

The other commands take their rows, and the arrays they write, from the
shared checks below; the criteria call the same checks, so each residual
is computed in one place.  ``VERIFY_NAMES`` renames shared rows for verify.
"""

from __future__ import annotations

import concurrent.futures
import math

import numpy as np
import scipy.linalg

from .darboux import (DressingSeed, SchrodingerOp, _band_eigvals,
                      _low_spectrum, darboux_once, spectrum_compare)
from .derham import (d_L, expected_betti, flat_complex, flat_dimension,
                     harmonic_space, hodge_decompose, plain_complex,
                     skrypnik_map)
from .errors import DiscretizationError, SingularMinorError
from .factorize import (break_relation_defect, gk_factorize, glm_residual,
                        glm_solve, random_unit_minor)
from .grid_ops import (_BAND_ROWS, DiffOp, Grid1D, ProductGrid, _band_matvec, _norm,
                       _operator_product, inner)
from .lagrange import FormField, SurfaceRegion, d_matrix, divergence_residual
from .spectral import (_two_norm, congruence_residual, eigensolve, elementary_kernel,
                       kernel_from_measure, nearest_indices,
                       projection_measure)
from .transmute import (KernelData, TransmutationData, adjoint_compat_check,
                        independence_check, locality_check, pair_intertwiner,
                        transform_operator)

__all__ = ["run_all", "VERIFY_NAMES", "soliton_pair", "darboux_check",
           "pair_conjugation_rows", "dressing_data", "transmute_check",
           "unit_minors", "factorization_sweep", "torus_complex",
           "torus_rows"] + [f"criterion_{k}" for k in range(1, 9)]

# command row name -> the name the same row carries in verify reports
VERIFY_NAMES = {
    "new_negative_count": "dressing_new_negative_count",
    "bound_state_error": "dressing_bound_state_error",
    "interior_rows_match": "soliton_interior_rows_match",
    "offband_ratio": "soliton_offband_ratio",
    "intertwining_residual": "soliton_intertwining_residual",
    "structural_zeros_exact": "gk_structural_zeros_exact",
    "break_relation_defect": "gk_break_relation_exact",
    "d_squared_zero": "dL_squared_zero",
    "harmonic_dims_match_betti": "torus_harmonic_dims",
    "harmonic_gap": "torus_harmonic_gap",
    "period_matrix_vs_axis_periods": "torus_period_matrix",
}


def _row(name: str, value: float | None, threshold: float, direction: str = "max") -> dict:
    """One result row.  A non-finite value (or ``None``, the record of one)
    fails and is recorded as ``None``, since report JSON has no NaN or inf."""
    value = math.nan if value is None else float(value)
    if not math.isfinite(value):
        passed, value = False, None
    elif direction == "max":
        passed = value <= threshold
    elif direction == "min":
        passed = value >= threshold
    else:  # "eq": integer-valued checks
        passed = value == threshold
    return {"name": name, "value": value, "threshold": float(threshold),
            "direction": direction, "passed": bool(passed)}


def _verify_names(rows: list) -> list:
    return [dict(r, name=VERIFY_NAMES.get(r["name"], r["name"])) for r in rows]


# ---------------------------------------------------------------------------
# 1. divergence identity convergence
# ---------------------------------------------------------------------------

def criterion_1() -> list:
    """Interior residual of the divergence identity decays at order >= 1.8."""
    ns = (100, 200, 400)
    res = []
    for n in ns:
        g = Grid1D.periodic(0.0, 2.0 * math.pi, n)
        pg = ProductGrid.line(g)
        x = g.x
        op = DiffOp(pg, {(2,): -1.0, (0,): np.cos(x).astype(complex)})
        phi = np.exp(0.3 * np.sin(x)) + 0.2j * np.cos(2.0 * x)
        psi = np.cos(x) + 0.5 * np.sin(2.0 * x) + 0.1j * np.exp(np.cos(x))
        rep = divergence_residual(op, phi, psi, scheme_order=2)
        res.append(rep["interior_max"])
    slope = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(res), 1)[0]
    return [_row("lagrange_identity_order", -slope, 1.8, "min")]


# ---------------------------------------------------------------------------
# 2. one-soliton dressing end to end (shared with darboux and transmute)
# ---------------------------------------------------------------------------

def soliton_pair(domain, n: int, kappa: float = 1.0, parity: str = "even",
                 center: float = 0.0):
    """Free operator on a Dirichlet grid and its one-soliton dressing."""
    a, b = domain
    g = Grid1D.dirichlet(float(a), float(b), int(n))
    base = SchrodingerOp.free(g)
    seed = DressingSeed.hyperbolic(g, float(kappa), parity, float(center))
    return base, darboux_once(base, seed)


def _bound_state_rows(comp: dict, kappa: float) -> list:
    """Exactly one new negative eigenvalue, at -kappa^2, from
    :func:`spectrum_compare` output; when none appeared the error is
    infinite, a failing row recorded as null."""
    new = comp["new_negative"]
    return [_row("new_negative_count", float(len(new)), 1.0, "eq"),
            _row("bound_state_error",
                 abs(new[0] + kappa ** 2) if new else math.inf, 5e-3)]


def darboux_check(domain, n: int, kappa: float, parity: str = "even",
                  center: float = 0.0):
    """Dressing step rows at fixed thresholds; tables ``potential``
    (x, q, qtilde) and ``spectrum`` (lowest eigenvalues before, after)."""
    kappa, center = float(kappa), float(center)
    base, dressed = soliton_pair(domain, n, kappa, parity, center)
    rows = []
    if parity == "even":
        # the dressed well bottoms out at -2 kappa^2 at the seed center
        qc = np.asarray(dressed.qtilde_at(center)).item()
        rows.append(_row("qtilde_center_error", abs(qc + 2.0 * kappa ** 2), 1e-8))
    comp = spectrum_compare(base, dressed.operator)
    rows += _bound_state_rows(comp, kappa)
    rows.append(_row("positive_band_drift", comp["band_drift"], 1.0))
    nsp = min(len(comp["lowest_before"]), len(comp["lowest_after"]))
    return rows, {
        "potential": np.column_stack([base.grid.x, base.q, dressed.qtilde]),
        "spectrum": np.column_stack([comp["lowest_before"][:nsp],
                                     comp["lowest_after"][:nsp]]),
    }


def pair_conjugation_rows(L, dressed: SchrodingerOp, grid: Grid1D,
                          cond_guard: float = 1e10):
    """Conjugate L (an array or :class:`~delsarte.grid_ops.OperatorMatrix`)
    by the pair intertwiner of L and the ``dressed`` operator T; returns
    (rows, factor).

    T is held as its band (:meth:`SchrodingerOp.matrix`), which
    :func:`pair_intertwiner` and the rows read; a band-held L is read on
    its band too, ||L||_F included.  The conjugate is dropped once its rows
    are read, before the factor's matrix is assembled for the intertwining
    residual, and T M is subtracted from M L a block of columns at a time,
    so beside L and the pair kernel the rows hold three n x n arrays at
    most."""
    T = dressed.matrix()
    om = pair_intertwiner(L, T, "+", grid=grid)
    Ltil = transform_operator(L, om, cond_guard=cond_guard)
    tb = T.to_banded()
    n = grid.n
    offband = locality_check(Ltil, bandwidth=1)
    # |Ltil - T| in place: T is its band, exactly symmetric (pair_intertwiner
    # refuses any other), and an exact zero off it
    i = np.arange(n)
    Ltil[i, i] -= tb[1]
    Ltil[i[:-1], i[1:]] -= tb[0, 1:]
    Ltil[i[1:], i[:-1]] -= tb[0, 1:]
    np.abs(Ltil, out=Ltil)
    # the marching closure dumps its whole defect into the final row
    rows = [_row("interior_rows_match", float(np.max(Ltil[: n - 1])), 1e-6),
            _row("offband_ratio", offband, 1e-6)]
    del Ltil
    M = om.matrix()
    R = _operator_product(L, M, right=True)
    # T M by columns, each entry with the bits of the whole product
    for c in range(0, n, _BAND_ROWS):
        R[:, c:c + _BAND_ROWS] -= _band_matvec(tb, M[:, c:c + _BAND_ROWS])
    rows.append(_row("intertwining_residual",
                     float(np.linalg.norm(R[: n - 1])
                           / (np.linalg.norm(M) * _norm(L))), 1e-9))
    return rows, om


def _relative_volterra_defect(op) -> float:
    """Volterra defect over the kernel's Frobenius norm; NaN stays NaN."""
    return op.volterra_defect() / max(float(np.linalg.norm(op.kernel)), 1e-300)


def dressing_data(grid: Grid1D, L, family_size: int = 3):
    """(family data, kernel data) dressing L, from one eigensolve of L.

    The family is the ``family_size`` eigenvectors nearest the origin, the
    columns ``eigensolve(L, count=family_size)`` returns.  The kernel is a
    function of L, so it commutes with L as sign independence needs;
    one-sided eigenfamily walks differ at O(h^2) and would mask a real bug.
    A real L gives real family and kernel data, and a band-held L is held,
    as its band, by both.
    """
    full = eigensolve(L, hermitian=True)
    k = nearest_indices(full.lambdas, int(family_size))
    data = TransmutationData.from_family(grid, L, full.right[:, k], full.left[:, k],
                                         omega0=1.0)
    Phi = kernel_from_measure(full, lambda lam: 0.4 / (1.0 + abs(lam)))
    return data, KernelData(L, Phi)


def transmute_check(domain, n: int, kappa: float, center: float = 0.0,
                    family_size: int = 3):
    """Both dressing operators with the full diagnostic battery; arrays
    ``x`` (nodes), ``pair_kernel`` and ``family_generators``, the family's
    plus kernel as its (n, 2m) generators [U | C] with
    K_+ = -tril(U C^T, -1).

    The kernel route runs first, then the family route and the pair route
    last, so no route's arrays are alive while another runs; the rows keep
    the pair-first order.  Each route's n x n arrays die with the route:
    the kernel data goes to :func:`independence_check` alone, which lets
    the kernel go once it is factored and each factor once it is read; the
    family factor and its inverse die after ``inverse_kernel_exactness``,
    and every conjugate once its norms are read.  The base operator L and
    the dressed operator T are held as their bands
    (:meth:`SchrodingerOp.matrix`) and never made dense, so the job holds
    three n x n arrays at most and a few blocks, in every route: the
    kernel's eigenvectors and products, the kernel and its factorization's
    two, the sign check's two factors and one conjugate, or the pair
    kernel, its factor and the factor's inverse."""
    base, dressed = soliton_pair(domain, n, kappa, "even", center)
    g = base.grid
    L = base.matrix()
    # kernel and family routes on the base operator's own eigenvectors:
    # sign independence, exact inverses, adjoint compatibility; the kernel
    # data is handed over, not held, so its kernel goes once factored
    data, *kernel = dressing_data(g, L, family_size)
    gap, comm = independence_check(kernel.pop())
    # subtracting the identity changes only the diagonal's bits
    P = data.operator("+")._spend() @ data.inverse("+")._spend()
    P[np.arange(g.n), np.arange(g.n)] -= 1.0
    exactness = float(np.linalg.norm(P) / np.sqrt(g.n))
    del P
    family_rows = [
        _row("inverse_kernel_exactness", exactness, 1e-10),
        _row("sign_independence_gap", gap, 1e-8),
        _row("sign_commutation", comm, 1e-8),
        _row("adjoint_compatibility", adjoint_compat_check(data), 1e-9),
    ]
    rows, om = pair_conjugation_rows(L, dressed.operator, g)
    rows += [
        _row("pair_kernel_volterra", _relative_volterra_defect(om), 1e-10),
        _row("pair_condition_number", om.cond(), 1e10),
    ]
    return rows + family_rows, {"x": g.x, "pair_kernel": om.kernel,
                                "family_generators": data._generators()}


def criterion_2() -> list:
    base, dressed = soliton_pair((-20.0, 20.0), 400)
    # the dressing kernel's dynamic range puts cond(M) near 8e10 on this
    # domain; the conjugation stays accurate because M is unit triangular
    rows, _ = pair_conjugation_rows(base.matrix(), dressed.operator, base.grid,
                                    cond_guard=1e12)
    return _verify_names(rows)


# ---------------------------------------------------------------------------
# 3. spectral bookkeeping of the dressing
# ---------------------------------------------------------------------------

def _start_criterion_3(submit):
    """Criterion 3's one-soliton pair on [-8, 8], n=800: hands
    ``np.linalg.eigvals`` of the dense conjugate L~ = Omega L Omega^{-1}
    to ``submit`` and returns what ``submit`` returned, with the band side
    of the pair (the spectrum of L, the bound-state comparison).

    L and the dressed operator T are held as their bands
    (:meth:`SchrodingerOp.matrix`), so until the hand-off the main thread
    holds the kernel K, the factor M = 1 + K and its inverse at most (or M
    and the product M L the conjugation solves into).  K is dropped once
    the oracle has L~, and the band side reads the operators' bands
    (:meth:`SchrodingerOp.to_banded`).
    """
    # preservation is checked where the conjugation is well conditioned;
    # the seed grows like e^{|x|}, so a narrower box keeps cond(M) ~ 1e5
    base, dressed = soliton_pair((-8.0, 8.0), 800)
    L = base.matrix()
    om = pair_intertwiner(L, dressed.operator.matrix(), "+", grid=base.grid)
    # numpy's eigvals releases the GIL while LAPACK runs (SciPy's does not)
    oracle = submit(np.linalg.eigvals, transform_operator(L, om))
    del L, om
    # preservation needs the whole spectrum; the bound state and the drift
    # read the darboux command's low end
    return oracle, _band_eigvals(base), spectrum_compare(base, dressed.operator)


def criterion_3(started=None) -> list:
    """Spectral bookkeeping of the dressing.  :func:`run_all` passes what
    :func:`_start_criterion_3` returned for a pool that runs the dense
    oracle beside the other criteria; called alone, criterion 3 runs its
    oracle beside its own band side."""
    if started is None:
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            return criterion_3(_start_criterion_3(pool.submit))
    oracle, ev_L, comp = started
    bound_state = _bound_state_rows(comp, 1.0)

    # positive-band drift: same spacing, doubled domain
    drifts = []
    for n, w in ((400, 20.0), (800, 40.0)):
        base, dressed = soliton_pair((-w, w), n)
        pb = _low_spectrum(base.to_banded())
        pa = _low_spectrum(dressed.operator.to_banded())
        pb = pb[pb > 0.0][:8]
        pa = pa[pa > 0.0][:8]
        m = min(len(pa), len(pb))
        drifts.append(float(np.mean(np.abs(pa[:m] - pb[:m]))))
    shrink = drifts[1] / max(drifts[0], 1e-300)
    ev_c = np.asarray(sorted(oracle.result(), key=lambda z: z.real))
    radius = float(np.max(np.abs(ev_L)))
    preserve = float(np.max(np.abs(ev_c - ev_L)) / radius)
    return ([_row("conjugation_spectrum_preserved", preserve, 1e-10)]
            + _verify_names(bound_state)
            + [_row("band_drift_domain_doubling", shrink, 0.75)])


# ---------------------------------------------------------------------------
# 4. triangular factorization and the GLM equation (shared with factorize)
# ---------------------------------------------------------------------------

_STACK_ENTRIES = 1 << 17  # kernel entries per stack handed to the factorizations


def unit_minors(rng: np.random.Generator, size: int, count: int,
                scale: float = 0.35):
    """``count`` random kernels with unit leading minors, drawn lazily one
    stack (B, size, size) at a time.  A stack holds at most
    ``_STACK_ENTRIES`` entries (and at least one kernel); the kernels are
    drawn in the same order as one by one, so a seed gives the same
    kernels whatever the stack size."""
    size, count = int(size), int(count)
    per_stack = max(1, _STACK_ENTRIES // size ** 2)
    for start in range(0, count, per_stack):
        yield np.stack([random_unit_minor(size, rng, float(scale))
                        for _ in range(min(per_stack, count - start))])


def factorization_sweep(stacks):
    """Elimination and GLM routes on every kernel of every stack (B, n, n),
    each stack factored in lockstep; the rows hold the worst case.  Returns
    the rows and the last kernel's ``phi``, ``k_plus``, ``k_minus`` and
    ``diag`` tables."""
    # per-kernel values, reduced by np.max so that a NaN fails its row
    recon, diag, glm, agree = [], [], [], []
    structural = 0.0
    for Phi in stacks:
        pair = gk_factorize(Phi)
        recon.append(np.max(pair.residual))
        diag += [break_relation_defect(pair.K_plus),
                 break_relation_defect(pair.K_minus)]
        if np.count_nonzero(np.triu(pair.K_plus, 0)) \
                or np.count_nonzero(np.tril(pair.K_minus, 0)):
            structural = 1.0
        Kp, Km = glm_solve(Phi)
        glm += [glm_residual(*k) for k in zip(Phi, Kp, Km)]
        agree.append(np.max(np.abs(Kp - pair.K_plus)))
    rows = [
        _row("gk_reconstruction_residual", np.max(recon), 1e-10),
        _row("structural_zeros_exact", structural, 0.0),
        _row("break_relation_defect", np.max(diag), 0.0),
        _row("glm_residual", np.max(glm), 1e-10),
        _row("glm_vs_gk_agreement", np.max(agree), 1e-9),
    ]
    return rows, {"phi": Phi[-1], "k_plus": pair.K_plus[-1],
                  "k_minus": pair.K_minus[-1], "diag": pair.D[-1]}


def criterion_4(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    rows, _ = factorization_sweep(unit_minors(rng, 50, 200))
    # negative controls: first bad minor must be named exactly
    control = 0.0
    try:
        gk_factorize(np.array([[-1.0, 0.0], [0.0, 0.0]]))
        control = 1.0
    except SingularMinorError as exc:
        if exc.index != 1:
            control = 1.0
    Lr = np.eye(6) + np.tril(rng.normal(size=(6, 6)), -1)
    Ur = np.eye(6) + np.triu(rng.normal(size=(6, 6)), 1)
    d = np.ones(6)
    d[3] = 0.0
    M_bad = Lr @ np.diag(d) @ Ur
    try:
        gk_factorize(M_bad - np.eye(6))
        control = 1.0
    except SingularMinorError as exc:
        if exc.index != 4:
            control = 1.0
    return _verify_names(rows) + [_row("gk_singular_minor_index", control, 0.0)]


# ---------------------------------------------------------------------------
# 5. GLM equation: the worked 2x2 example
# ---------------------------------------------------------------------------

def criterion_5() -> list:
    """The random sweep of the GLM route runs in :func:`criterion_4`."""
    Phi0 = np.array([[0.0, 1.0], [1.0, 1.0]])
    Kp0, Km0 = glm_solve(Phi0)
    exact = 0.0
    if not np.array_equal(Kp0, np.array([[0.0, 0.0], [-1.0, 0.0]])):
        exact = 1.0
    if not np.array_equal(Km0, np.array([[0.0, 1.0], [0.0, 0.0]])):
        exact = 1.0
    pair0 = gk_factorize(Phi0)
    if not (np.array_equal(pair0.K_plus, Kp0) and np.array_equal(pair0.D, np.ones(2))):
        exact = 1.0
    return [_row("glm_2x2_example_bitwise", exact, 0.0)]


# ---------------------------------------------------------------------------
# 6. congruence / spectral-kernel layer
# ---------------------------------------------------------------------------

def criterion_6() -> list:
    g = Grid1D.dirichlet(0.0, math.pi, 200)
    A = SchrodingerOp.free(g).matrix().A
    fam = eigensolve(A, hermitian=True)
    E1 = projection_measure(fam, lambda lam: lam.real < 1e4)
    E2 = projection_measure(fam, lambda lam: lam.real > 3e3)
    E12 = projection_measure(fam, lambda lam: 3e3 < lam.real < 1e4)
    mult = float(np.linalg.norm(E1 @ E2 - E12) / max(np.linalg.norm(E12), 1e-300))

    lam5 = float(fam.lambdas[5])
    Z = elementary_kernel(fam, lam5)
    cong = float(np.linalg.norm(A @ Z - lam5 * Z)
                 / (np.linalg.norm(Z) * _two_norm(A)))
    comm = congruence_residual(Z, A, A)

    K = kernel_from_measure(fam, lambda lam: 1.0 / (1.0 + lam))
    kfm_comm = congruence_residual(K, A, A)

    t = 1e-3
    Kt = kernel_from_measure(fam, lambda lam: np.exp(-t * lam))
    Et = scipy.linalg.expm(-t * A)
    heat = float(np.linalg.norm(Kt - Et) / np.linalg.norm(Et))
    return [
        _row("measure_multiplicativity", mult, 1e-10),
        _row("elementary_kernel_congruence", cong, 1e-10),
        _row("elementary_kernel_commutation", comm, 1e-10),
        _row("kernel_from_measure_commutation", kfm_comm, 1e-10),
        _row("heat_kernel_vs_expm", heat, 1e-9),
    ]


# ---------------------------------------------------------------------------
# 7. de Rham / Hodge / period layer (torus rows shared with derham)
# ---------------------------------------------------------------------------

def torus_complex(shape, periods, fiber_dim: int = 1):
    """Plain complex on a periodic box.  ``periods`` holds one period, which
    applies to every axis, or exactly one period per axis of ``shape``; any
    other length raises :class:`DiscretizationError`."""
    shape = [int(v) for v in shape]
    periods = [float(v) for v in periods]
    if len(periods) == 1:
        periods *= len(shape)
    elif len(periods) != len(shape):
        raise DiscretizationError(
            f"{len(periods)} periods for a shape of {len(shape)} axes: give one "
            "period, or one per axis")
    axes = tuple(Grid1D.periodic(0.0, T, n) for T, n in zip(periods, shape))
    return plain_complex(ProductGrid(axes, int(fiber_dim)))


def torus_rows(c):
    """Nilpotency, harmonic dimensions against the Betti numbers, and the
    axis-loop period matrix (trivial fiber only); returns the rows and the
    per-degree ``harmonic`` summaries, Laplace-Hodge ``spectra`` and, when
    computed, ``periods``."""
    pg = c.grid
    r = pg.ndim
    rows = []
    if r > 1:
        # over the complex's blocks: 1 x 1 singular values for a separable family
        d_hi = d_matrix(pg, 1, c._blocks)
        d_lo = d_matrix(pg, 0, c._blocks)
        nil = float(np.linalg.norm(d_hi @ d_lo)
                    / max(np.linalg.norm(d_hi) * np.linalg.norm(d_lo), 1e-300))
        rows.append(_row("d_squared_zero", nil, 1e-12))
    betti = expected_betti(pg)
    dims_ok = 0.0
    gaps = []
    out = {"harmonic": [], "spectra": []}
    for k in range(r + 1):
        rep = harmonic_space(c, k)
        out["harmonic"].append(rep.as_json(betti_expected=pg.fiber_dim * betti[k]))
        out["spectra"].append(rep.singular_values)
        if rep.dim != pg.fiber_dim * betti[k]:
            dims_ok = 1.0
        gaps.append(rep.gap)
    rows.append(_row("harmonic_dims_match_betti", dims_ok, 0.0))
    # an infinite gap passes this min row, so it is capped, not failed;
    # np.minimum and np.min keep a NaN gap, which fails
    rows.append(_row("harmonic_gap", np.min(np.minimum(gaps, 1e300)), 1e4, "min"))

    if r >= 1 and pg.fiber_dim == 1:
        shp = pg.shape + (1,)
        psis = [FormField(pg, 1, {(axis,): np.ones(shp)}) for axis in range(r)]
        loops = [SurfaceRegion.axis_loop(pg, axis, (0,) * r) for axis in range(r)]
        P = skrypnik_map(c, np.ones(shp, dtype=complex), psis, loops)
        per_err = float(np.max(np.abs(P - np.diag([g.length for g in pg.axes]))))
        rows.append(_row("period_matrix_vs_axis_periods", per_err, 1e-10))
        out["periods"] = P
    return rows, out


def criterion_7(seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    T1, T2 = 2.0 * math.pi, 1.0
    c = torus_complex((12, 12), (T1, T2))
    pg = c.grid
    rows, _ = torus_rows(c)

    shp = pg.shape + (1,)
    beta = FormField(pg, 1, {(0,): rng.normal(size=shp), (1,): rng.normal(size=shp)})
    h, e, co = hodge_decompose(c, beta)
    parts = [h.stack(), e.stack(), co.stack()]
    scale = inner(pg, beta.stack(), beta.stack()).real
    orth = max(abs(inner(pg, parts[0], parts[1])),
               abs(inner(pg, parts[0], parts[2])),
               abs(inner(pg, parts[1], parts[2]))) / scale
    recon = float(np.linalg.norm(beta.stack() - (parts[0] + parts[1] + parts[2]))
                  / np.linalg.norm(beta.stack()))

    f0 = FormField(pg, 0, {(): rng.normal(size=shp)})
    psi_mixed = FormField(pg, 1, {(0,): np.ones(shp)}) + d_L(c, f0)
    loop_a = SurfaceRegion.axis_loop(pg, 0, (0, 0))
    loop_b = SurfaceRegion.axis_loop(pg, 0, (0, 5))
    Ph = skrypnik_map(c, np.ones(shp, dtype=complex), [psi_mixed], [loop_a, loop_b])
    homol = float(abs(Ph[0, 0] - Ph[1, 0]) / T1)

    # flat family: harmonic dims = (joint kernel dim) x (Betti numbers)
    pg2 = ProductGrid((Grid1D.periodic(0.0, T1, 8), Grid1D.periodic(0.0, T2, 8)),
                      fiber_dim=2)
    gens = [np.diag([0.0, 0.7]), np.diag([0.0, 0.31])]
    c2 = flat_complex(pg2, gens)
    nflat = flat_dimension(gens)
    betti = expected_betti(pg2)
    theorem = 0.0
    for k in range(3):
        rep = harmonic_space(c2, k)
        Dk = c2.d_matrix(k) if k < 2 else None
        Dm = c2.d_matrix(k - 1) if k > 0 else None
        blocks = [B for B in
                  (Dk, None if Dm is None else Dm.conj().T) if B is not None]
        stacked = np.vstack(blocks)
        s = np.linalg.svd(stacked, compute_uv=False)
        ncols = stacked.shape[1]
        brute = int(np.sum(s <= 1e-8 * s[0])) + max(0, ncols - len(s))
        if not rep.dim == brute == nflat * betti[k]:
            theorem = 1.0
    return _verify_names(rows) + [
        _row("hodge_orthogonality", orth, 1e-10),
        _row("hodge_reconstruction", recon, 1e-10),
        _row("homologous_cycle_invariance", homol, 1e-10),
        _row("flat_dimension_theorem", theorem, 0.0),
    ]


# ---------------------------------------------------------------------------
# 8. Volterra property of every constructed kernel
# ---------------------------------------------------------------------------

def criterion_8() -> list:
    g = Grid1D.dirichlet(0.0, math.pi, 60)
    data, datak = dressing_data(g, SchrodingerOp.free(g).matrix())
    ops = [d.operator(s) for d in (data, datak) for s in "+-"]
    ops += [d.inverse(s) for d in (data, datak) for s in "+-"]
    ops.append(data.adjoint())
    base2, dressed2 = soliton_pair((-20.0, 20.0), 200)
    L2, T2 = base2.matrix(), dressed2.operator.matrix()
    ops.append(pair_intertwiner(L2, T2, "+"))
    ops.append(pair_intertwiner(L2, T2, "-"))
    # np.max, not a running max(), so that a NaN defect fails the row
    worst = np.max([_relative_volterra_defect(op) for op in ops])
    return [_row("volterra_eigenvalue_bound", worst, 1e-10)]


# ---------------------------------------------------------------------------

def run_all(seed: int = 0) -> list:
    """The rows of criteria 1-8 in order, which ``verify`` reports as they
    are.  Criterion 3's dense eigenvalue oracle runs in one worker thread
    from the start; the ``with`` block joins it before returning, also
    when a criterion raises."""
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        started = _start_criterion_3(pool.submit)
        rows = criterion_1() + criterion_2()
        later = (criterion_4(seed) + criterion_5() + criterion_6()
                 + criterion_7(seed) + criterion_8())
        rows += criterion_3(started) + later
    return rows
