"""Benchmark of the delsarte command line, run in-process.

Run from the repository root:

    python3 bench/run.py --workload dressing --seed 1 --seconds 30 --trace 0

One runner process imports ``delsarte.cli`` from ``src/`` and drives one
closed-loop client: each job is one ``cli.main`` call, started after the
previous one has finished and its output has been checked.  Workloads are
defined in ``workloads.py``.  A checked but untimed warm-up pass comes first.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``setup_s``: median over fresh Python processes of the time to import
  ``delsarte.cli`` and load and validate the first config against the schema;
- ``cycle_s``: median wall time of one job of each command of the workload,
  summed over the workload's commands;
- ``jobs_per_s``: jobs completed per second of the workload's wall time;
- ``peak_rss_mb``: peak resident set size of the runner.

``--trace 1`` alternates untraced and traced passes over the same configs,
reports per-layer metrics from the spans of the traced passes (per traced
job), the tracing overhead, and log-log scaling exponents from the ladders
in ``ladder.py``.  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (per-command medians and tails, machine, BLAS threads).
The runner leaves ``OPENBLAS_NUM_THREADS`` and similar variables as it finds
them and records them with the results.

Self-tests: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, aggregate
from workloads import (WORKLOADS, check_digests, commands, draw_round, run_job,
                       summarize)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
# the traced run spends this share of --seconds on jobs, the rest on ladders
TRACE_JOB_SHARE = 0.5

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

MODULES = ("grid_ops", "spectral", "lagrange", "transmute", "factorize",
           "darboux", "derham", "ioutil", "acceptance", "cli")

# functions reported with self time, calls and CPU per wall second
LAYER_FUNCTIONS = (
    "transmute.transform_operator", "transmute.DelsarteOp.cond",
    "transmute.independence_check", "transmute.adjoint_compat_check",
    "transmute.pair_intertwiner", "transmute.TransmutationData.from_family",
    "factorize.gk_factorize", "factorize.glm_solve", "factorize.glm_residual",
    "factorize.random_unit_minor",
    "spectral.eigensolve", "spectral.kernel_from_measure",
    "darboux.darboux_once", "darboux.spectrum_compare", "grid_ops.discretize",
    "derham.harmonic_space", "derham.skrypnik_map", "derham.hodge_decompose",
    "ioutil.save_matrix_csv", "ioutil.save_json", "ioutil.report_digest",
    "lagrange.divergence_residual", "cli.validate_config",
)
# reported with self time only
CRITERIA = tuple(f"acceptance.criterion_{k}" for k in range(1, 9))
# the root span of every job; it counts toward the cli module only
TRACE_TARGETS = ("cli.main",) + LAYER_FUNCTIONS + CRITERIA

LADDER_METRICS = (
    "transmute.transform_operator.exponent", "darboux.spectrum_compare.exponent",
    "spectral.eigensolve.exponent", "ioutil.save_matrix_csv.exponent",
    "factorize.gk_factorize.exponent", "factorize.glm_solve.exponent",
    "derham.harmonic_space.exponent_2d", "derham.harmonic_space.exponent_3d",
)

END_TO_END = {"setup_s": "s", "cycle_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in LAYER_FUNCTIONS:
        units.update({f"{fn}.self_s": "s", f"{fn}.calls": "count",
                      f"{fn}.cpu_per_wall": "ratio"})
    units["ioutil.save_matrix_csv.bytes"] = "B"
    units.update({f"{c}.self_s": "s" for c in CRITERIA})
    for mod in MODULES:
        units.update({f"{mod}.self_s": "s", f"{mod}.failed_calls": "count"})
    units.update({name: "1" for name in LADDER_METRICS})
    units["trace.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# set-up time and machine
# ---------------------------------------------------------------------------

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
import delsarte.cli
delsarte.cli.validate_config(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
"""


def measure_setup(config: dict) -> list[float]:
    """Import-and-validate time in fresh interpreters, one per repeat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(config)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_runtime() -> list[dict]:
    """Thread count and build string of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_runtime": _openblas_runtime(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def run_pass(cli, configs, jobs: list, work_dir: Path, tracer=None,
             warmup: bool = False) -> float:
    """Run one job per (config, seed), appending to ``jobs``; with a tracer,
    the jobs run traced.  Returns the summed job time."""
    if tracer is not None:
        tracer.install(TRACE_TARGETS, count_bytes=("ioutil.save_matrix_csv",))
    try:
        for config, seed in configs:
            if tracer is not None:
                tracer.job = len(jobs)
            job = run_job(cli, config, seed, work_dir / f"job{len(jobs)}")
            job.traced, job.warmup = tracer is not None, warmup
            jobs.append(job)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return sum(j.seconds for j in jobs[-len(configs):])


def run_loop(cli, workload: str, rng: random.Random, seconds: float,
             work_dir: Path, tracer=None) -> tuple[list, float, list]:
    """Run a warm-up pass, then rounds for about ``seconds`` since the loop
    began: another round starts only if it would end nearer to ``seconds``
    than stopping now, judged by the last round's length.  At least one
    round runs.

    The warm-up pass lets lazy imports and first-call costs finish; its jobs
    are checked but not timed.  A round draws one (config, seed) per command
    (the first round reuses the warm-up's) and runs that pass twice:
    untraced both times, or untraced then traced when a tracer is given.
    Returns the jobs, the loop's wall time and, when traced, the ratio of
    traced to untraced pass time of each round.
    """
    jobs, overhead = [], []
    t_start = time.perf_counter()
    configs = draw_round(workload, rng)
    run_pass(cli, configs, jobs, work_dir, warmup=True)
    while True:
        t_round = time.perf_counter()
        plain = run_pass(cli, configs, jobs, work_dir)
        second = run_pass(cli, configs, jobs, work_dir, tracer)
        if tracer is not None:
            overhead.append(second / plain)
        now = time.perf_counter()
        if now - t_start + (now - t_round) / 2 >= seconds:
            break
        configs = draw_round(workload, rng)
    wall = time.perf_counter() - t_start
    check_digests(jobs)
    return jobs, wall, overhead


def layer_metrics(spans, traced_jobs: int, ladders: dict, overhead: list) -> dict:
    stats = aggregate(spans)
    empty = {"self_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0, "calls": 0, "failed": 0, "bytes": 0}
    values = {}
    for fn in LAYER_FUNCTIONS + CRITERIA:
        values[f"{fn}.self_s"] = stats.get(fn, empty)["self_s"] / traced_jobs
    for fn in LAYER_FUNCTIONS:
        st = stats.get(fn, empty)
        values[f"{fn}.calls"] = st["calls"] / traced_jobs
        values[f"{fn}.cpu_per_wall"] = st["cpu_s"] / st["wall_s"] if st["wall_s"] > 0 else 0.0
    values["ioutil.save_matrix_csv.bytes"] = \
        stats.get("ioutil.save_matrix_csv", empty)["bytes"] / traced_jobs
    for mod in MODULES:
        in_mod = [st for name, st in stats.items() if name.split(".")[0] == mod]
        values[f"{mod}.self_s"] = sum(st["self_s"] for st in in_mod) / traced_jobs
        values[f"{mod}.failed_calls"] = sum(st["failed"] for st in in_mod) / traced_jobs
    for name in LADDER_METRICS:
        values[name] = ladders[name]["exponent"]
    values["trace.overhead_ratio"] = statistics.median(overhead)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "delsarte" / "__init__.py").is_file():
        print(f"no delsarte sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    run_dir = OUT / f"run-{os.getpid()}"
    details: dict = {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace}
    if not args.trace:
        # the config the first job will validate; drawn from a copy of the
        # generator so the jobs see the same configs with or without this
        first_config = draw_round(args.workload, random.Random(args.seed))[0][0]
        details["setup_samples_s"] = measure_setup(first_config)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import delsarte.cli as cli
    details["runner_import_s"] = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parents[1] != SRC:
        print(f"delsarte was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    details["machine"] = machine()

    try:
        if args.trace:
            from ladder import run_ladders

            tracer = Tracer()
            jobs, wall, overhead = run_loop(cli, args.workload, rng,
                                            args.seconds * TRACE_JOB_SHARE,
                                            run_dir / "jobs", tracer)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            ladders = run_ladders(run_dir / "ladder")
            metrics = layer_metrics(tracer.spans, sum(j.traced for j in jobs),
                                    ladders, overhead)
            units = per_layer_units()
            details.update(spans_file=str(spans_path.relative_to(ROOT)),
                           spans=len(tracer.spans), ladders=ladders)
        else:
            jobs, wall, _ = run_loop(cli, args.workload, rng, args.seconds,
                                     run_dir / "jobs")
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    summary = summarize(jobs, commands(args.workload))
    details.update(summary, loop_wall_s=wall,
                   job_seconds=[[j.command, j.seconds, j.warmup] for j in jobs],
                   problems=[[j.command, j.config, j.seed, j.problems]
                             for j in jobs if j.failed])
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(details["setup_samples_s"]),
            "cycle_s": sum(c["median_s"] for c in summary["per_command"].values()),
            "jobs_per_s": (summary["attempted"] - summary["failed"]) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"details": details, "result": result}, indent=1),
                           encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
