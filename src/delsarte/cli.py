"""Batch front end.

One invocation runs one command against one JSON config, writes a report
(plus CSV artifacts and optional SVG plots) into the output directory, and
exits 0 only if every residual row passed.  Exit codes: 0 all pass, 1 a
residual failed, 2 the config did not validate, 3 the computation raised.

Every command takes its rows from the shared checks in
:mod:`delsarte.acceptance`, the same functions the verify battery runs, so
a residual is computed in one place.  ``COMMANDS`` maps each command to its
check, the data tables it saves as CSV and its optional plot; one runner,
:func:`run_command`, times the check, writes the artifacts and assembles
the report for every command.

Reports are reproducible: identical config + seed give byte-identical
digest lines; wall-clock timings live in a ``*_seconds`` field that the
digest ignores.  Each job runs with every OpenBLAS loaded in the process
set to one thread (see :func:`_one_blas_thread`), so the digest does not
depend on the BLAS thread count either.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import functools
import json
import math
import os
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import acceptance
from .acceptance import _row
# re-exported: the benchmark's tracer self-test checks that unwrapping
# restores this module's binding
from .acceptance import transform_operator  # noqa: F401
from .errors import DelsarteError
from .ioutil import (_atomic_write_text, load_matrix_csv, report_digest,
                     save_json, save_matrix_csv)

__all__ = ["main", "validate_config", "run_command", "COMMANDS"]


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_schema() -> dict:
    text = resources.files("delsarte").joinpath("config_schema.json").read_text("utf-8")
    return json.loads(text)


@functools.cache
def _validator():
    """The schema's validator, checked against its metaschema once."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_config(config: dict) -> None:
    """Raises jsonschema.ValidationError when the config is malformed: the
    error ``jsonschema.validate`` would raise."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(config))
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# plotting: self-contained SVG polylines, no rendering dependencies
# ---------------------------------------------------------------------------

def _svg_plot(path: Path, x: np.ndarray, series: list, title: str) -> None:
    """series = [(label, y-array), ...]; all sampled on the same x."""
    W, H, pad = 640, 360, 45
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for _, y in series]
    lo = min(float(np.min(y)) for y in ys)
    hi = max(float(np.max(y)) for y in ys)
    if hi - lo < 1e-300:
        hi = lo + 1.0
    xlo, xhi = float(x[0]), float(x[-1])
    if xhi - xlo < 1e-300:
        xhi = xlo + 1.0

    def sx(v):
        return pad + (v - xlo) / (xhi - xlo) * (W - 2 * pad)

    def sy(v):
        return H - pad - (v - lo) / (hi - lo) * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W // 2}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" '
        f'stroke="#444" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" '
        f'stroke="#444" stroke-width="1"/>',
        f'<text x="{pad}" y="{H - pad + 16}" font-family="monospace" '
        f'font-size="11">{xlo:.4g}</text>',
        f'<text x="{W - pad}" y="{H - pad + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{xhi:.4g}</text>',
        f'<text x="{pad - 4}" y="{H - pad}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{lo:.4g}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{hi:.4g}</text>',
    ]
    for k, (label, y) in enumerate(series):
        color = colors[k % len(colors)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                       for a, b in zip(x, np.asarray(y, dtype=float)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{W - pad}" y="{pad + 14 * (k + 1)}" '
                     f'text-anchor="end" font-family="monospace" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    _atomic_write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# checks: each takes the config, seed resolved, and returns (rows, data)
# ---------------------------------------------------------------------------

def _darboux(config: dict):
    """Single dressing step with spectral bookkeeping."""
    return acceptance.darboux_check(
        config["domain"], config["n"], config["kappa"],
        config.get("parity", "even"), config.get("center", 0.0),
        config.get("tolerance", 1e-8))


def _transmute(config: dict):
    """Both dressing operators with the full diagnostic battery."""
    return acceptance.transmute_check(
        config["domain"], config["n"], config["kappa"],
        config.get("center", 0.0), config.get("family_size", 3))


def _factorize(config: dict):
    """Triangular factorization battery on supplied or generated kernels."""
    if "phi_file" in config:
        path = config["phi_file"]
        try:
            Phi = load_matrix_csv(path)
        except (OSError, ValueError) as exc:
            raise DelsarteError(f"cannot read phi_file {path!r}: {exc}") from exc
        stacks = [Phi[None]]
    else:
        stacks = acceptance.unit_minors(np.random.default_rng(config["seed"]),
                                        config["size"], config["count"],
                                        config.get("scale", 0.35))
    return acceptance.factorization_sweep(stacks)


def _derham(config: dict):
    """Complex assembly, harmonic dimensions, periods."""
    return acceptance.torus_rows(acceptance.torus_complex(
        config["shape"], config["periods"], config.get("fiber_dim", 1)))


def _verify(config: dict):
    """The full acceptance battery, criteria 1-8."""
    result = acceptance.run_all(config["seed"])
    # tolerance_scale rescales the max-direction thresholds only
    scale = float(config.get("tolerance_scale", 1.0))
    return [_row(r["name"], r["value"],
                 r["threshold"] * scale if r["direction"] == "max"
                 else r["threshold"], r["direction"])
            for r in result["rows"]], {}


# ---------------------------------------------------------------------------
# plots: each takes the check's data and returns (x, series, title)
# ---------------------------------------------------------------------------

def _potential_plot(data: dict):
    pot = data["potential"]
    return (pot[:, 0], [("base q", pot[:, 1]), ("dressed q", pot[:, 2])],
            "potential before/after dressing")


def _kernel_rows_plot(data: dict):
    rown = np.linalg.norm(data["pair_kernel"], axis=1)
    return data["x"], [("|K| row norm", rown)], "dressing kernel row profile"


def _diag_plot(data: dict):
    idx = np.arange(len(data["diag"]), dtype=float)
    return (idx, [("diagonal factor", np.real(data["diag"]))],
            "factorization diagonal")


def _spectrum_plot(data: dict):
    deg = 1 if len(data["spectra"]) > 2 else 0
    low = np.sort(data["spectra"][deg])[:20]
    return (np.arange(len(low), dtype=float), [(f"degree-{deg} spectrum", low)],
            "lowest Laplace-Hodge eigenvalues")


# name -> (check, the data tables saved as <table>.csv, (SVG file, plot) or None)
COMMANDS = {
    "darboux": (_darboux, ("potential", "spectrum"),
                ("potential.svg", _potential_plot)),
    "transmute": (_transmute, ("pair_kernel", "family_generators"),
                  ("kernel_rows.svg", _kernel_rows_plot)),
    "factorize": (_factorize, ("phi", "k_plus", "k_minus", "diag"),
                  ("diag.svg", _diag_plot)),
    "derham": (_derham, ("periods",), ("laplace_spectrum.svg", _spectrum_plot)),
    "verify": (_verify, (), None),
}


# one OpenBLAS: file name, build string, and its thread-count getter and setter
_Pool = collections.namedtuple("_Pool", "library config get put")


def _openblas_pools() -> list:
    """A :data:`_Pool` for each OpenBLAS mapped into this process, sorted
    by path.

    numpy and SciPy each ship their own OpenBLAS, with its own thread pool
    and symbol names.  Without ``/proc`` or an OpenBLAS the list is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get is not None and put is not None and config is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                pools.append(_Pool(os.path.basename(path), config().decode(), get, put))
                break
    return pools


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS pool of the process at one thread,
    and give each pool back its own count afterwards, also on error.

    numpy's and SciPy's pools each start a thread per core, and a job
    alternates between them, so on a few cores the two pools' spinning
    threads contend; the thread count also changes the roundoff of the
    blocked kernels.  Yields one ``{library, config, threads}`` entry per
    pool, the threads read back after the change; an empty list when no
    OpenBLAS was found (another BLAS, or no ``/proc``), which is left as
    it is.  The counts are process-wide: jobs run concurrently in threads
    of one process would share them.
    """
    pools = _openblas_pools()
    before = [pool.get() for pool in pools]
    try:
        for pool in pools:
            pool.put(1)
        yield [{"library": pool.library, "config": pool.config, "threads": pool.get()}
               for pool in pools]
    finally:
        for pool, threads in zip(pools, before):
            pool.put(threads)


def run_command(command: str, config: dict, out_dir: Path, seed: int = 0,
                plots: bool = False) -> dict:
    """Run one command's check, write its artifacts and ``report.json``
    into ``out_dir``, and return the report.

    The report records ``config`` as given, with ``seed`` alongside it,
    and ``health.blas``, the OpenBLAS pools the job ran on (one thread
    each, see :func:`_one_blas_thread`).  The check and the artifact
    writes are timed under ``timings_seconds``, which the digest ignores.
    """
    check, tables, plot = COMMANDS[command]
    with _one_blas_thread() as blas:
        t0 = time.perf_counter()
        rows, data = check(dict(config, seed=seed))
        t1 = time.perf_counter()
        out_dir.mkdir(parents=True, exist_ok=True)
        artifacts = []
        if "harmonic" in data:
            save_json(out_dir / "harmonic.json", data["harmonic"])
            artifacts.append("harmonic.json")
        for name in tables:
            if name in data:
                save_matrix_csv(out_dir / f"{name}.csv", data[name])
                artifacts.append(f"{name}.csv")
        if plots and plot is not None:
            name, series = plot
            _svg_plot(out_dir / name, *series(data))
            artifacts.append(name)
        report = {
            "command": command,
            "config": config,
            "seed": int(seed),
            "rows": rows,
            "all_passed": bool(all(r["passed"] for r in rows)),
            "artifacts": sorted(artifacts),
            "health": {"blas": blas},
            "timings_seconds": {"check": t1 - t0,
                                "artifacts": time.perf_counter() - t1},
        }
        report["digest"] = report_digest(report)
        save_json(out_dir / "report.json", report)
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _seed_type(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a nonnegative integer")
    return value


def _finite_number(text: str) -> float:
    """A JSON number of the config; NaN, Infinity and overflowing literals
    such as 1e999 are rejected by name."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in config")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="dressing-operator pipelines: dress, factor, verify")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default="delsarte-out",
                        help="output directory (default: ./delsarte-out)")
    parser.add_argument("--plots", action="store_true",
                        help="emit SVG plot files alongside the report")
    parser.add_argument("--seed", type=_seed_type, default=None,
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"),
                            parse_float=_finite_number, parse_constant=_finite_number)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        validate_config(config)
    except jsonschema.ValidationError as exc:
        print(f"config does not validate: {exc.message}", file=sys.stderr)
        return 2
    if config.get("command") != args.command:
        print(f"config command {config.get('command')!r} does not match "
              f"invocation {args.command!r}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    out_dir = Path(args.out)
    try:
        report = run_command(args.command, config, out_dir, seed=seed,
                             plots=args.plots)
    except DelsarteError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the contract is exit code 3
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for r in report["rows"]:
        verdict = "PASS" if r["passed"] else "FAIL"
        rel = {"max": "<=", "min": ">=", "eq": "=="}[r["direction"]]
        value = "null" if r["value"] is None else f"{r['value']:.4e}"
        print(f"{r['name']:<36} {value:>12} {rel} "
              f"{r['threshold']:<12.4e} {verdict}")
    print(f"report digest: {report['digest']}")
    print(f"report written to {out_dir / 'report.json'}")
    return 0 if report["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
