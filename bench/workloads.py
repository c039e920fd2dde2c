"""Workloads, jobs and their output checks.

A workload is a rotation of CLI commands.  Each config is drawn from the
workload seed; the library only ever sees the generated config file and the
``--seed`` argument.  One job is one in-process ``delsarte.cli.main`` call,
including the report and CSV files it writes.

A job counts as failed unless it exits 0, every report row passes, and the
report's row names equal the set recorded for that command
(``expected_rows.json``).  Every (config, seed) runs twice in a round; the
second run also fails if its report digest differs from the first.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EXPECTED_ROWS = json.loads(
    (Path(__file__).with_name("expected_rows.json")).read_text(encoding="utf-8"))

SEED_RANGE = 2 ** 32


def _dressing(command: str, n: int):
    def draw(rng: random.Random) -> dict:
        return {"command": command, "domain": [-8.0, 8.0], "n": n,
                "kappa": rng.uniform(0.8, 1.2), "center": rng.uniform(-1.0, 1.0)}
    return draw


def _verify(rng: random.Random) -> dict:
    return {"command": "verify"}


def _factorize(rng: random.Random) -> dict:
    return {"command": "factorize", "size": 300, "count": 2}


def _derham(rng: random.Random) -> dict:
    return {"command": "derham", "shape": [7, 7, 7],
            "periods": [rng.uniform(0.5, 3.0) for _ in range(3)]}


# workload name -> its rotation of (command, config generator)
WORKLOADS = {
    "verify": (("verify", _verify),),
    "dressing": (("darboux", _dressing("darboux", 1600)),
                 ("transmute", _dressing("transmute", 600))),
    "structured": (("factorize", _factorize), ("derham", _derham)),
}


def commands(workload: str) -> list[str]:
    return [command for command, _ in WORKLOADS[workload]]


def draw_round(workload: str, rng: random.Random) -> list[tuple[dict, int]]:
    """One (config, seed) per command of the workload's rotation."""
    return [(gen(rng), rng.randrange(SEED_RANGE)) for _, gen in WORKLOADS[workload]]


@dataclass
class Job:
    command: str
    config: dict
    seed: int
    seconds: float = 0.0
    exit_code: int | None = None
    digest: str | None = None
    traced: bool = False
    warmup: bool = False
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_job(cli, config: dict, seed: int, work_dir: Path) -> Job:
    """Run one CLI job in-process, time it and check its output.

    Only the ``cli.main`` call is timed; writing the config beforehand and
    reading and deleting the output afterwards are not.
    """
    job = Job(config["command"], config, seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = work_dir / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = work_dir / "out"
    argv = [job.command, "--config", str(cfg_path), "--out", str(out_dir),
            "--seed", str(seed)]
    sink = io.StringIO()
    # drop garbage left by earlier jobs, so peak memory is this job's own
    gc.collect()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            job.exit_code = cli.main(argv)
            job.seconds = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
        job.problems.append(f"raised {type(exc).__name__}: {exc}")
    if job.exit_code != 0:
        job.problems.append(f"exit code {job.exit_code}: {sink.getvalue()[-300:]}")
    report_path = out_dir / "report.json"
    if report_path.is_file():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        job.digest = report["digest"]
        failing = [r["name"] for r in report["rows"] if not r["passed"]]
        if failing:
            job.problems.append(f"rows not passed: {failing}")
        names = sorted(r["name"] for r in report["rows"])
        if names != EXPECTED_ROWS[job.command]:
            job.problems.append(f"row names differ from the recorded set: {names}")
    else:
        job.problems.append("no report written")
    shutil.rmtree(work_dir)
    return job


def check_digests(jobs: list[Job]) -> None:
    """Mark a job failed when an earlier job with the same command, config
    and seed produced another report digest."""
    first: dict[str, str | None] = {}
    for job in jobs:
        key = json.dumps([job.config, job.seed], sort_keys=True)
        if key not in first:
            first[key] = job.digest
        elif job.digest != first[key]:
            job.problems.append(f"digest {job.digest} differs from {first[key]}")


TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def timing_summary(seconds: list[float]) -> dict:
    """Median, sample count and the highest listed percentile that still has
    at least ten samples beyond it (``None`` with fewer than 20 samples)."""
    n = len(seconds)
    tail_pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), None)
    return {
        "median_s": statistics.median(seconds),
        "samples": n,
        "tail_pct": tail_pct,
        "tail_s": None if tail_pct is None else float(np.percentile(seconds, tail_pct)),
    }


def summarize(jobs: list[Job], command_names) -> dict:
    """Per-command timing of the jobs that completed outside the warm-up,
    plus failure counts over all jobs."""
    failed = sum(job.failed for job in jobs)
    per_command = {}
    for command in command_names:
        times = [j.seconds for j in jobs
                 if j.command == command and j.exit_code == 0 and not j.warmup]
        if times:
            per_command[command] = timing_summary(times)
    return {"attempted": len(jobs), "failed": failed,
            "fail_ratio": failed / len(jobs) if jobs else 0.0,
            "per_command": per_command}
