"""Self-tests of the benchmark: span arithmetic, tracing through the CLI,
failure accounting and agreement with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import random
from pathlib import Path

import pytest

import run
import workloads
from tracer import Span, Tracer, aggregate, self_times

ROOT = Path(__file__).resolve().parents[2]


def _ancestors(spans, span):
    out, parent = [], span.parent
    while parent is not None:
        out.append(spans[parent].name)
        parent = spans[parent].parent
    return out


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 0, 0.0, False)


def test_self_time_subtracts_covered_child_interval_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),   # overlaps span 1
        _span(3, 8.0, 12.0, parent=0),  # runs past its parent's end
        _span(4, 2.5, 4.5, parent=2),   # grandchild: only its parent pays
    ]
    # children of 0 cover [1, 5] and [8, 10]: 6 of its 10 seconds
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 4.0, 2.0])


def test_tracer_records_nested_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)), cpu_clock=lambda: 0.0)

    def inner():
        return 1

    def outer():
        return traced_inner() + 1

    traced_inner = tracer.wrap("m.inner", inner)
    assert tracer.wrap("m.outer", outer)() == 2
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.id
    # outer: start 0, end 3; inner: start 1, end 2
    assert self_times(tracer.spans) == [2.0, 1.0]
    assert aggregate(tracer.spans)["m.outer"]["calls"] == 1


def test_traced_transmute_job_reaches_transform_operator_through_cli(tmp_path):
    import delsarte.cli as cli
    from delsarte import transmute

    original = (cli.transform_operator, transmute.DelsarteOp.__dict__["cond"],
                transmute.TransmutationData.__dict__["from_family"])
    config = {"command": "transmute", "domain": [-8.0, 8.0], "n": 120,
              "kappa": 1.0, "center": 0.2}
    tracer = Tracer()
    tracer.install(run.TRACE_TARGETS, count_bytes=("ioutil.save_matrix_csv",))
    try:
        job = workloads.run_job(cli, config, 5, tmp_path / "job")
    finally:
        tracer.uninstall()
    assert not job.failed, job.problems
    names = {s.name for s in tracer.spans}
    assert {"transmute.DelsarteOp.cond",
            "transmute.TransmutationData.from_family"} <= names
    [span] = [s for s in tracer.spans if s.name == "transmute.transform_operator"]
    assert "cli.main" in _ancestors(tracer.spans, span)
    csv_bytes = aggregate(tracer.spans)["ioutil.save_matrix_csv"]["bytes"]
    assert csv_bytes > 120 * 120
    assert (cli.transform_operator, transmute.DelsarteOp.__dict__["cond"],
            transmute.TransmutationData.__dict__["from_family"]) == original


def test_failing_job_counts_in_fail_ratio(tmp_path):
    import delsarte.cli as cli

    # README-scale box: cond(1 + K) ~ 8e10 trips the 1e10 guard, exit 3
    bad = {"command": "transmute", "domain": [-20.0, 20.0], "n": 400, "kappa": 1.0}
    good = {"command": "darboux", "domain": [-8.0, 8.0], "n": 200, "kappa": 1.0}
    jobs = [workloads.run_job(cli, good, 0, tmp_path / "a"),
            workloads.run_job(cli, bad, 0, tmp_path / "b")]
    assert jobs[1].exit_code == 3 and jobs[1].failed
    summary = workloads.summarize(jobs, ["darboux", "transmute"])
    assert (summary["attempted"], summary["failed"]) == (2, 1)
    assert summary["fail_ratio"] == 0.5


def test_digest_mismatch_fails_the_repeat():
    config = {"command": "verify"}
    jobs = [workloads.Job("verify", config, 1, exit_code=0, digest="a"),
            workloads.Job("verify", config, 1, exit_code=0, digest="b"),
            workloads.Job("verify", config, 2, exit_code=0, digest="b")]
    workloads.check_digests(jobs)
    assert [j.failed for j in jobs] == [False, True, False]


def test_rounds_repeat_each_config_with_seed_drawn_configs():
    a = workloads.draw_round("dressing", random.Random(3))
    b = workloads.draw_round("dressing", random.Random(3))
    assert a == b
    assert [c["command"] for c, _ in a] == ["darboux", "transmute"]
    assert all(0.8 <= c["kappa"] <= 1.2 and -1.0 <= c["center"] <= 1.0 for c, _ in a)


def test_tail_needs_ten_samples_beyond_it():
    assert workloads.timing_summary([1.0] * 19)["tail_pct"] is None
    assert workloads.timing_summary([1.0] * 25)["tail_pct"] == 50.0
    assert workloads.timing_summary([1.0] * 100)["tail_pct"] == 90.0


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(spec["per_layer"]) <= 128
