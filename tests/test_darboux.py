"""Potential dressing by nodeless seeds: analytic oracles for the
one-soliton well, stacked bound states, and the seed safety gates."""

import itertools

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delsarte import (DressingSeed, ExpPoly, Grid1D, SchrodingerOp,
                      SeedNodeError, crum_iterate, darboux_once, discretize,
                      spectrum_compare)
from delsarte.acceptance import darboux_check
from delsarte.darboux import _N_LOW, _band_eigvals, _compare_spectra
from delsarte.errors import DiscretizationError
from delsarte.grid_ops import _upper_band


def _setup(n=400, w=20.0, kappa=1.0, parity="even"):
    g = Grid1D.dirichlet(-w, w, n)
    op = SchrodingerOp.free(g)
    seed = DressingSeed.hyperbolic(g, kappa, parity)
    return g, op, seed


# ---------------------------------------------------------------------------
# exponential-polynomial calculus
# ---------------------------------------------------------------------------

def test_exppoly_eval_and_derivative():
    f = ExpPoly.cosh(1.0)
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(np.real(f.eval(x)), np.cosh(x), rtol=1e-14)


def test_exppoly_log_second_derivative_closed_form():
    # (ln cosh)'' = sech^2; exact in the bulk, absolutely small in the tails
    f = ExpPoly.cosh(2.0, center=0.5)
    x = np.linspace(-40.0, 40.0, 11)  # far beyond naive overflow of cosh^2
    want = 4.0 / np.cosh(2.0 * (x - 0.5)) ** 2
    np.testing.assert_allclose(np.real(f.log_second_derivative(x)), want,
                               rtol=1e-12, atol=1e-14)


def test_exppoly_wronskian_closed_form():
    # W(cosh x, sinh 2x) = 2 cosh x cosh 2x - sinh x sinh 2x
    W = ExpPoly.wronskian([ExpPoly.cosh(1.0), ExpPoly.sinh(2.0)])
    x = np.linspace(-2, 2, 9)
    want = 2 * np.cosh(x) * np.cosh(2 * x) - np.sinh(x) * np.sinh(2 * x)
    np.testing.assert_allclose(np.real(W.eval(x)), want, rtol=1e-13)


def test_exppoly_detects_zero():
    f = ExpPoly.sinh(1.0)
    with pytest.raises(SeedNodeError):
        f.log_second_derivative(np.array([0.0]))


# ---------------------------------------------------------------------------
# single dressing step
# ---------------------------------------------------------------------------

def test_one_soliton_potential_is_exact_sech2():
    g, op, seed = _setup()
    res = darboux_once(op, seed)
    want = -2.0 / np.cosh(g.x) ** 2
    np.testing.assert_allclose(res.qtilde, want, atol=1e-13)
    # off-grid too: the analytic route carries a closed form
    assert res.qtilde_at(0.0).item() == pytest.approx(-2.0, abs=1e-14)


def test_center_value_scales_with_kappa_squared():
    for kappa in (0.5, 1.5):
        g, op, _ = _setup(kappa=kappa)
        seed = DressingSeed.hyperbolic(g, kappa)
        res = darboux_once(op, seed)
        assert res.qtilde_at(0.0).item() == pytest.approx(-2 * kappa ** 2,
                                                          rel=1e-12)


def test_off_grid_potential_needs_a_free_base():
    # a constant offset far below the seed gate still makes the base non-free
    g, _, seed = _setup()
    res = darboux_once(SchrodingerOp(g, np.full(g.n, 1e-9)), seed)
    np.testing.assert_allclose(res.qtilde, 1e-9 - 2.0 / np.cosh(g.x) ** 2,
                               atol=1e-13)
    with pytest.raises(DiscretizationError, match="no off-grid form"):
        res.qtilde_at(0.0)


def test_stencil_energy_matches_discrete_dispersion():
    g, _, seed = _setup(n=200, kappa=1.5)
    h = g.h
    want = -(2.0 * np.cosh(1.5 * h) - 2.0) / h ** 2
    assert seed.stencil_energy() == pytest.approx(want, rel=1e-14)


def test_new_bound_state_appears_at_seed_energy():
    g, op, seed = _setup(n=600)
    res = darboux_once(op, seed)
    comp = spectrum_compare(op, res.operator)
    assert len(comp["new_negative"]) == 1
    assert comp["new_negative"][0] == pytest.approx(-1.0, abs=5e-3)
    assert comp["band_drift"] < 1.0


def test_dressed_potential_is_reflectionless_decay():
    g, op, seed = _setup(n=500, w=25.0)
    res = darboux_once(op, seed)
    # exponentially localized well: edge values under e^{-2(W-5)}
    edge = np.abs(res.qtilde[np.abs(g.x) > 20.0]).max()
    assert edge < 2 * np.exp(-2 * 20.0)


# ---------------------------------------------------------------------------
# stacked dressing
# ---------------------------------------------------------------------------

def test_crum_two_bound_states():
    g = Grid1D.dirichlet(-20.0, 20.0, 800)
    op = SchrodingerOp.free(g)
    seeds = [DressingSeed.hyperbolic(g, 1.0, "even"),
             DressingSeed.hyperbolic(g, 2.0, "odd")]
    stages = crum_iterate(op, seeds)
    assert len(stages) == 2
    comp = spectrum_compare(op, stages[-1].operator)
    got = sorted(comp["new_negative"])
    assert len(got) == 2
    assert got[0] == pytest.approx(-4.0, abs=5e-3)
    assert got[1] == pytest.approx(-1.0, abs=5e-3)


def test_crum_sign_gate_compares_signs_not_products():
    # stage Wronskians above 1e154: their neighbor products overflow, which
    # the suite's warnings-as-errors turns into a failure
    g = Grid1D.dirichlet(-5.0, 25.0, 300)
    op = SchrodingerOp.free(g)
    seeds = [DressingSeed.hyperbolic(g, 10.0, "even", 20.0),
             DressingSeed.hyperbolic(g, 12.0, "odd", 20.0)]
    stages = crum_iterate(op, seeds)
    assert len(stages) == 2
    assert np.max(np.abs(stages[1].log_tau.eval(g.x))) > 1e154
    assert all(np.all(np.isfinite(s.qtilde)) for s in stages)
    one_soliton = -200.0 / np.cosh(10.0 * (g.x - 20.0)) ** 2
    assert np.max(np.abs(stages[0].qtilde - one_soliton)) < 1e-12 * 200.0
    # stage 2 is -2 (ln W)'' with W = cosh 22 xi + 11 cosh 2 xi, xi = x - 20
    # (up to a constant factor); its depth is 2 * 12^2
    xi = g.x - 20.0
    W = np.cosh(22.0 * xi) + 11.0 * np.cosh(2.0 * xi)
    dW = (22.0 * np.sinh(22.0 * xi) + 22.0 * np.sinh(2.0 * xi)) / W
    ddW = (484.0 * np.cosh(22.0 * xi) + 44.0 * np.cosh(2.0 * xi)) / W
    two_soliton = -2.0 * (ddW - dW ** 2)
    assert np.max(np.abs(stages[1].qtilde - two_soliton)) < 1e-12 * 288.0


def _crum_reference(kappas, centres, x):
    """-2 (ln W)'' in 60 digits for W = W(cosh, sinh, cosh, ...) of
    kappa_j (x - c_j).  W is multilinear in the seeds, so it sums one
    exponential e^{mu_j x}, mu_j = +-kappa_j, per seed: each choice adds its
    coefficients times det[mu_j^r] e^{(sum mu) x}, the determinant taken by
    mpmath."""
    with mpmath.workdps(60):
        terms = []
        for signs in itertools.product((1, -1), repeat=len(kappas)):
            mus = [e * mpmath.mpf(k) for e, k in zip(signs, kappas)]
            coef = mpmath.det(mpmath.matrix([[m ** r for m in mus]
                                             for r in range(len(mus))]))
            for j, (e, k, c) in enumerate(zip(signs, kappas, centres)):
                # cosh for even j, sinh for odd j: the e^{-kappa x} half flips sign
                coef *= mpmath.exp(-e * mpmath.mpf(k) * mpmath.mpf(c)) / 2
                coef *= -1 if (e < 0 and j % 2) else 1
            terms.append((coef, sum(mus)))
        out = []
        for xv in x:
            S0 = S1 = S2 = mpmath.mpf(0)
            for coef, mu in terms:
                t = coef * mpmath.exp(mu * mpmath.mpf(xv))
                S0, S1, S2 = S0 + t, S1 + mu * t, S2 + mu * mu * t
            out.append(float(-2 * (S2 / S0 - (S1 / S0) ** 2)))
        return np.array(out)


@st.composite
def _crum_seeds(draw):
    n = draw(st.integers(2, 4))
    kappas = sorted(draw(st.lists(st.floats(0.3, 8.0), min_size=n, max_size=n)))
    # crum_iterate needs distinct energies
    assume(np.min(np.diff(kappas)) >= 1e-6)
    centres = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    return kappas, centres


@settings(derandomize=True, deadline=None, max_examples=15)
@given(seeds=_crum_seeds())
def test_crum_stages_match_an_exact_wronskian(seeds):
    # ascending decay rates with parities alternating from even keep every
    # stage Wronskian nodeless; each stage is -2 (ln W)'' of its seeds.  The
    # worst error over these draws is 1.0e-12 of 2 kappa_max^2, a margin of
    # 100 on the bound
    kappas, centres = seeds
    g = Grid1D.dirichlet(-10.0, 10.0, 200)
    parities = ["even", "odd"] * 2
    stages = crum_iterate(SchrodingerOp.free(g), [
        DressingSeed.hyperbolic(g, k, p, c) for k, p, c in zip(kappas, parities, centres)])
    assert len(stages) == len(kappas)
    scale = 2.0 * max(kappas) ** 2
    for k, stage in enumerate(stages, 1):
        exact = _crum_reference(kappas[:k], centres[:k], g.x)
        assert np.max(np.abs(stage.qtilde - exact)) <= 1e-10 * scale


@pytest.mark.parametrize("spacing", [0.2, 0.05, 0.01, 0.001])
def test_crum_stages_keep_close_decay_rates(spacing):
    # decay rates kappa_1 + j spacing: the Wronskian's Vandermonde factors
    # are as small as spacing^(k(k-1)/2) and must survive to relative
    # precision, with no stage read as changing sign
    rng = np.random.default_rng(int(1e4 * spacing))
    g = Grid1D.dirichlet(-10.0, 10.0, 200)
    for count in (2, 3, 4, 2, 3, 4):
        kappas = rng.uniform(0.3, 4.0) + spacing * np.arange(count)
        centres = rng.uniform(-5.0, 5.0, count)
        stages = crum_iterate(SchrodingerOp.free(g), [
            DressingSeed.hyperbolic(g, k, ("even", "odd")[j % 2], c)
            for j, (k, c) in enumerate(zip(kappas, centres))])
        scale = 2.0 * max(kappas) ** 2
        for k, stage in enumerate(stages, 1):
            exact = _crum_reference(kappas[:k], centres[:k], g.x)
            assert np.max(np.abs(stage.qtilde - exact)) <= 1e-12 * scale


def test_crum_wrong_order_is_singular():
    # swapping the parities puts a node in the stage-2 Wronskian
    g = Grid1D.dirichlet(-20.0, 20.0, 400)
    op = SchrodingerOp.free(g)
    seeds = [DressingSeed.hyperbolic(g, 2.0, "even"),
             DressingSeed.hyperbolic(g, 1.0, "odd")]
    with pytest.raises(SeedNodeError):
        crum_iterate(op, seeds)


# ---------------------------------------------------------------------------
# safety gates
# ---------------------------------------------------------------------------

def test_seed_with_node_is_rejected():
    g, op, _ = _setup()
    bad = DressingSeed.hyperbolic(g, 1.0, parity="odd")  # sinh crosses zero
    with pytest.raises(SeedNodeError):
        darboux_once(op, bad)


def test_sampled_seed_off_grid_rejected():
    g, op, _ = _setup()
    other = Grid1D.dirichlet(-20.0, 20.0, 300)
    bad = DressingSeed.hyperbolic(other, 1.0)
    with pytest.raises(DiscretizationError):
        darboux_once(op, bad)
    # stacked seeds are held to the same grid, though only their closed
    # forms enter the Wronskians
    odd = DressingSeed.hyperbolic(other, 2.0, "odd")
    for seeds in ([bad, odd], [DressingSeed.hyperbolic(g, 1.0), odd]):
        with pytest.raises(DiscretizationError, match="wrong grid"):
            crum_iterate(op, seeds)


def test_grid_without_interior_rows_rejected():
    # the residual gate skips 3 rows at each end
    _, op, seed = _setup(n=6, w=5.0)
    with pytest.raises(DiscretizationError, match="no interior rows"):
        darboux_once(op, seed)


def test_overflowing_seed_rejected():
    # cosh(50 * 20) is not a float; the gate must fail closed, not pass NaN
    with np.errstate(over="ignore", invalid="ignore"):
        _, op, seed = _setup(n=200, kappa=50.0)
    with pytest.raises(DiscretizationError, match="overflow"):
        darboux_once(op, seed)


def test_large_seed_coefficients_dress_without_overflow():
    """cosh(20 (x - 18)) on [-5, 20]: the seed stays below 1e199, but its
    coefficient e^360 and the neighbor products pass the float range, so
    the gates compare signs and the sums are scaled (warnings are errors
    here)."""
    g = Grid1D.dirichlet(-5.0, 20.0, 200)
    kappa, center = 20.0, 18.0
    dressed = darboux_once(SchrodingerOp.free(g),
                           DressingSeed.hyperbolic(g, kappa, "even", center))
    want = -2.0 * kappa ** 2 * (1.0 / np.cosh(kappa * (g.x - center))) ** 2
    assert np.max(np.abs(dressed.qtilde - want)) <= 1e-9 * 2.0 * kappa ** 2
    with pytest.raises(DiscretizationError, match="float range"):
        ExpPoly.cosh(24.0, 30.0)
    # kappa center = 705: the coefficient e^705 / 2 is a float but its
    # products with mu^2 = 625 are not, so S1 and S2 are summed in units of
    # a power of two above |mu|; past the center the e^{kappa x} term, whose
    # coefficient is e^-705 / 2, dominates, and the shift follows it there
    kappa, center = 25.0, 28.2
    for b in (14.0, 30.0):
        g = Grid1D.dirichlet(0.0, b, 200)
        seed = DressingSeed.hyperbolic(g, kappa, "even", center)
        dressed = darboux_once(SchrodingerOp.free(g), seed)
        want = -2.0 * kappa ** 2 * (1.0 / np.cosh(kappa * (g.x - center))) ** 2
        assert np.max(np.abs(dressed.qtilde - want)) <= 1e-9 * 2.0 * kappa ** 2


def test_scaled_log_second_derivative_keeps_the_bits():
    """Scaling the sums by a power of two is exact where the plain
    quotient does not overflow."""
    f = ExpPoly.cosh(1.03, center=0.37)
    x = Grid1D.dirichlet(-8.0, 8.0, 600).x
    S0, S1, S2, _ = f._scaled_sums(x)
    plain = (S2 * S0 - S1 ** 2) / (S0 ** 2)
    assert f._mu_unit() == 2.0
    assert f.log_second_derivative(x).tobytes() == plain.tobytes()


def test_spectrum_compare_trivial_dressing():
    g, op, _ = _setup(n=200)
    comp = spectrum_compare(op, op)
    assert comp["new_negative"] == []
    assert comp["band_drift"] == 0.0


def test_operator_matrix_takes_the_potential_dtype():
    g, op, seed = _setup(n=100)
    dressed = darboux_once(op, seed).operator
    assert op.matrix().A.dtype == np.float64
    assert dressed.matrix().A.dtype == np.float64
    assert SchrodingerOp(g, dressed.q + 0.5j).matrix().A.dtype == np.complex128


@pytest.mark.parametrize("order", [2, 4])
def test_banded_spectrum_matches_dense(order):
    g, op, seed = _setup(n=300, w=10.0)
    dressed = darboux_once(op, seed).operator
    for A in (discretize(op.diffop(), order), discretize(dressed.diffop(), order)):
        bw = A.to_banded().shape[0] - 1
        assert bw == order // 2
        assert np.count_nonzero(np.triu(A.A, bw + 1)) == 0
        assert np.count_nonzero(np.tril(A.A, -bw - 1)) == 0
        dense = scipy.linalg.eigvalsh(A.A)
        banded = _band_eigvals(A)
        assert np.max(np.abs(banded - dense)) <= 1e-12 * np.max(np.abs(dense))
    if order == 2:
        comp = spectrum_compare(op, dressed)
        assert len(comp["new_negative"]) == 1


@pytest.mark.parametrize("shift", [0.0, -0.7])
def test_periodic_spectrum_keeps_the_wrap_entries(shift):
    """On a periodic grid the wrap entries sit in the matrix corners; the
    band the spectra come from must hold them.  The free operator's lowest
    eigenvalue is 0, and a constant shift moves every eigenvalue by it."""
    g = Grid1D.periodic(0.0, 2.0 * np.pi, 64)
    free = SchrodingerOp.free(g)
    shifted = SchrodingerOp(g, np.full(g.n, shift))
    comp = spectrum_compare(free, shifted)
    for op, lowest in ((free, comp["lowest_before"]), (shifted, comp["lowest_after"])):
        dense = scipy.linalg.eigvalsh(op.matrix().A)
        tol = 1e-12 * np.max(np.abs(dense))
        np.testing.assert_allclose(_band_eigvals(op.matrix()), dense, rtol=0.0, atol=tol)
        np.testing.assert_allclose(lowest, dense[:len(lowest)], rtol=0.0, atol=tol)
    assert comp["lowest_before"][0] == pytest.approx(0.0, abs=1e-10)
    assert comp["lowest_after"][0] == pytest.approx(shift, abs=1e-10)


def _three_soliton_stages():
    g = Grid1D.dirichlet(-20.0, 20.0, 800)
    op = SchrodingerOp.free(g)
    seeds = [DressingSeed.hyperbolic(g, 1.0, "even"),
             DressingSeed.hyperbolic(g, 2.0, "odd"),
             DressingSeed.hyperbolic(g, 3.0, "even")]
    return op, crum_iterate(op, seeds)[-1].operator, 3


def _coarse_soliton():
    # 8 nodes carry two negative eigenvalues, so the selection k_neg + 8
    # runs past the operator and is clipped at n
    g = Grid1D.dirichlet(-8.0, 8.0, 8)
    op = SchrodingerOp.free(g)
    return op, darboux_once(op, DressingSeed.hyperbolic(g, 1.0)).operator, 2


def _sturm_spectrum(op):
    """The lowest eigenvalues of a Dirichlet operator's real tridiagonal
    matrix: every one <= 0 and twice ``_N_LOW`` after them, more than
    :func:`_compare_spectra` reads.  Each is bisected in extended precision
    on the count of negative pivots of T - x (Sturm), from a bracket around
    its float64 value, to the last bit of ``np.longdouble``."""
    assert np.finfo(np.longdouble).nmant >= 63, "reference needs an 80-bit longdouble"
    A = op.matrix()
    ab = _upper_band(A.A)
    assert ab.shape[0] == 2 and not np.iscomplexobj(ab)
    d = ab[1].astype(np.longdouble)
    e2 = ab[0, 1:].astype(np.longdouble) ** 2
    lams = _band_eigvals(A)
    m = min(int(np.sum(lams <= 0.0)) + 2 * _N_LOW, len(lams))
    idx = np.arange(m)
    norm = np.longdouble(np.max(np.abs(lams)))
    floor = np.finfo(np.longdouble).eps * norm

    def below(x):
        # eigenvalues below each x: negative pivots of the LDL^T of T - x
        q = d[0] - x
        count = (q < 0).astype(int)
        for di, ei in zip(d[1:], e2):
            q = di - x - ei / np.where(q == 0, -floor, q)
            count += q < 0
        return count

    lo = lams[:m].astype(np.longdouble) - 1e-10 * norm
    hi = lams[:m].astype(np.longdouble) + 1e-10 * norm
    assert np.all(below(lo) <= idx) and np.all(below(hi) > idx)
    while True:
        mid = (lo + hi) / 2
        inside = (mid > lo) & (mid < hi)
        if not inside.any():
            return ((lo + hi) / 2).astype(float)
        left = below(mid) <= idx
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)


@pytest.mark.parametrize("make", [_three_soliton_stages, _coarse_soliton],
                         ids=["crum-3-seeds", "n-below-k_neg-plus-8"])
def test_selected_spectrum_matches_full_spectrum(make):
    # the reference is the extended-precision spectrum, since the float64
    # full-spectrum band_drift of the three-soliton pair is itself off by
    # about 1e-10 relative
    before, after, new = make()
    got = spectrum_compare(before, after)
    want = _compare_spectra(_sturm_spectrum(before), _sturm_spectrum(after))
    assert len(got["new_negative"]) == len(want["new_negative"]) == new
    for key in ("lowest_before", "lowest_after", "new_negative"):
        assert len(got[key]) == len(want[key])
        np.testing.assert_allclose(got[key], want[key], rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(got["band_drift"], want["band_drift"], rtol=1e-10)


@pytest.mark.parametrize("n", [50, 400, 1600])
def test_band_is_written_with_the_bits_of_the_matrix(n):
    g = Grid1D.dirichlet(-8.0, 8.0, n)
    rng = np.random.default_rng(n)
    for q in (np.zeros(n), rng.normal(size=n), rng.normal(size=n) + 0.5j,
              darboux_once(SchrodingerOp.free(g), DressingSeed.hyperbolic(g, 1.1)).qtilde):
        op = SchrodingerOp(g, q)
        dense = discretize(op.diffop()).A
        got, want = op.to_banded(), _upper_band(dense)
        assert got.dtype == want.dtype and got.shape == want.shape == (2, n)
        assert got.tobytes() == want.tobytes()
        # matrix() holds that band alone, and forms the dense bits from it
        held = op.matrix()
        assert held.band.tobytes() == want.tobytes()
        assert held.shape == dense.shape and held.dtype == dense.dtype
        assert held.A.tobytes() == dense.tobytes()
    # a periodic operator's wrap entries make its band the whole matrix
    op = SchrodingerOp(Grid1D.periodic(0.0, 1.0, 12), rng.normal(size=12))
    assert op.to_banded().tobytes() == _upper_band(op.matrix().A).tobytes()


def test_darboux_check_forms_no_dense_matrix(traced_peak):
    # at n=1600 a dense operator is 2.56e6 entries; the seed gate and the
    # spectra read the band, so no array of n^2 entries (even of bytes) is made
    n = 1600
    (rows, _), peak = traced_peak(darboux_check, (-8.0, 8.0), n, 1.03, "even", 0.37)
    assert all(r["passed"] for r in rows)
    assert peak < n * n
