"""Scaling ladders: time single layer calls on a ladder of sizes and fit the
log-log exponent of time against size.

Each rung is timed untraced, as the median of up to three calls (fewer once
a rung has used half a second).  The inputs are fixed, so every run times
the same work.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from delsarte.darboux import (DressingSeed, SchrodingerOp, darboux_once,
                              spectrum_compare)
from delsarte.derham import harmonic_space, plain_complex
from delsarte.factorize import glm_solve, gk_factorize, random_unit_minor
from delsarte.grid_ops import Grid1D, ProductGrid
from delsarte.ioutil import save_matrix_csv
from delsarte.spectral import eigensolve
from delsarte.transmute import pair_intertwiner, transform_operator

DRESSING_SIZES = (200, 400, 800, 1600)
# writing the n x n kernel as CSV takes about 10 s at n = 1600 on a 2-core Xeon VM
CSV_SIZES = (200, 400, 800)
FACTOR_SIZES = (50, 100, 200, 400)
TORUS_2D = (12, 16, 20, 24)
TORUS_3D = (6, 7, 8)


def time_call(fn, max_repeats: int = 3, budget_s: float = 0.5) -> float:
    samples = []
    while len(samples) < max_repeats and sum(samples) < budget_s:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def exponent(sizes, seconds) -> float:
    """Slope of log(seconds) against log(size), by least squares."""
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def _dressing_rungs(scratch: Path) -> dict:
    names = ("transmute.transform_operator", "darboux.spectrum_compare",
             "spectral.eigensolve", "ioutil.save_matrix_csv")
    rungs = {name: (CSV_SIZES if name == "ioutil.save_matrix_csv" else DRESSING_SIZES, [])
             for name in names}
    for n in DRESSING_SIZES:
        g = Grid1D.dirichlet(-8.0, 8.0, n)
        base = SchrodingerOp.free(g)
        dressed = darboux_once(base, DressingSeed.hyperbolic(g, 1.0, "even"))
        L = np.real(base.matrix().A)
        T = np.real(dressed.operator.matrix().A)
        om = pair_intertwiner(L, T, "+", grid=g)
        calls = {
            "transmute.transform_operator": lambda: transform_operator(L, om),
            "darboux.spectrum_compare": lambda: spectrum_compare(base, dressed.operator),
            "spectral.eigensolve": lambda: eigensolve(L, count=3, hermitian=True),
            "ioutil.save_matrix_csv": lambda: save_matrix_csv(scratch / "kernel.csv", om.kernel),
        }
        for name, (sizes, seconds) in rungs.items():
            if n in sizes:
                seconds.append(time_call(calls[name]))
    return rungs


def _factor_rungs() -> dict:
    rng = np.random.default_rng(0)
    gk, glm = [], []
    for n in FACTOR_SIZES:
        Phi = random_unit_minor(n, rng)
        gk.append(time_call(lambda: gk_factorize(Phi)))
        glm.append(time_call(lambda: glm_solve(Phi)))
    return {"factorize.gk_factorize": (FACTOR_SIZES, gk),
            "factorize.glm_solve": (FACTOR_SIZES, glm)}


def _torus_rungs(sides, ndim: int) -> tuple:
    nodes, times = [], []
    for m in sides:
        axes = tuple(Grid1D.periodic(0.0, 1.0 + k, m) for k in range(ndim))
        c = plain_complex(ProductGrid(axes))
        nodes.append(m ** ndim)
        times.append(time_call(lambda: harmonic_space(c, 1)))
    return tuple(nodes), times


def run_ladders(scratch: Path) -> dict:
    """Return ``{metric name: {"sizes", "seconds", "exponent"}}``.

    Degree-1 harmonic spaces are timed against the number of torus nodes,
    2-D and 3-D tori separately.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    rungs = _dressing_rungs(scratch)
    rungs.update(_factor_rungs())
    rungs["derham.harmonic_space@2d"] = _torus_rungs(TORUS_2D, 2)
    rungs["derham.harmonic_space@3d"] = _torus_rungs(TORUS_3D, 3)
    out = {}
    for name, (sizes, seconds) in rungs.items():
        layer, _, suffix = name.partition("@")
        metric = f"{layer}.exponent" + (f"_{suffix}" if suffix else "")
        out[metric] = {"sizes": list(sizes), "seconds": seconds,
                       "exponent": exponent(sizes, seconds)}
    return out
