"""End-to-end battery: every headline capability, one test each, printed
as a pass/fail line per residual row."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from delsarte import acceptance, cli
from delsarte.transmute import DelsarteOp


def _assert_rows(rows):
    """Every row must pass; the failure message carries the whole table."""
    lines = []
    for r in rows:
        rel = {"max": "<=", "min": ">=", "eq": "=="}[r["direction"]]
        verdict = "PASS" if r["passed"] else "FAIL"
        lines.append(f"  {r['name']:<40} {r['value']:>12.4e} {rel} "
                     f"{r['threshold']:<12.4e} {verdict}")
    table = "\n".join(lines)
    print("\n" + table)
    failed = [r for r in rows if not r["passed"]]
    assert not failed, f"{len(failed)} residual row(s) failed:\n{table}"


def test_divergence_identity_convergence_order():
    _assert_rows(acceptance.criterion_1())


def test_dressing_operator_localizes_conjugation():
    _assert_rows(acceptance.criterion_2())


def test_dressing_spectrum_bookkeeping():
    _assert_rows(acceptance.criterion_3())


def test_spectrum_oracle_sees_a_real_matrix(monkeypatch):
    # the dense eig oracle of criterion 3 runs on the real conjugate
    seen = []
    eigvals = np.linalg.eigvals

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    rows = acceptance.criterion_3()
    assert seen == [np.float64]
    preserved = [r for r in rows if r["name"] == "conjugation_spectrum_preserved"]
    assert len(preserved) == 1
    _assert_rows(preserved)


def test_criterion_3_alone_matches_the_battery(verify_battery):
    # run_all joins the oracle late, criterion_3() alone at once: same rows
    alone = acceptance.criterion_3()
    names = [r["name"] for r in alone]
    inside = [r for r in verify_battery["rows"] if r["name"] in names]
    assert inside == alone


def test_run_all_leaves_no_thread(battery_run):
    # the battery joins its worker and leaves no thread behind
    assert battery_run.threads_after == battery_run.threads_before


def test_failed_criterion_joins_the_oracle(monkeypatch):
    # a criterion that raises while the oracle runs: the error propagates
    # only after the worker has finished, and no thread is left
    finished = []
    eigvals = np.linalg.eigvals

    def recording(a):
        out = eigvals(a)
        finished.append(True)
        return out

    def failing(seed=0):
        raise RuntimeError("criterion 4 failed")

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    for k in (1, 2):
        monkeypatch.setattr(acceptance, f"criterion_{k}", lambda: [])
    monkeypatch.setattr(acceptance, "criterion_4", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="criterion 4 failed"):
        acceptance.run_all(seed=0)
    assert finished == [True]
    assert threading.active_count() == before


def test_triangular_factorization_battery():
    _assert_rows(acceptance.criterion_4(seed=0))


def test_layer_stripping_battery():
    _assert_rows(acceptance.criterion_5())


def test_spectral_projection_calculus():
    _assert_rows(acceptance.criterion_6())


def test_torus_harmonics_and_periods():
    _assert_rows(acceptance.criterion_7(seed=0))


def test_volterra_property_of_all_kernels():
    _assert_rows(acceptance.criterion_8())


def _nan_on_second_call(fn, nan):
    """``fn``, except that its second call returns ``nan(result)``: one
    non-finite value after a finite one."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        result = fn(*args, **kwargs)
        return nan(result) if len(calls) == 2 else result
    return wrapped


def _only_failing_row(rows):
    bad = [r for r in rows if not r["passed"]]
    assert len(bad) == 1 and bad[0]["value"] is None
    return bad[0]["name"]


# the worst-case reductions keep a NaN, so its row fails as a null
def test_nan_glm_residual_fails_the_sweep(monkeypatch):
    monkeypatch.setattr(acceptance, "glm_residual", _nan_on_second_call(
        acceptance.glm_residual, lambda value: math.nan))
    stacks = acceptance.unit_minors(np.random.default_rng(3), 12, 3)
    rows, _ = acceptance.factorization_sweep(stacks)
    assert _only_failing_row(rows) == "glm_residual"


def test_nan_volterra_defect_fails_criterion_8(monkeypatch):
    monkeypatch.setattr(DelsarteOp, "volterra_defect", _nan_on_second_call(
        DelsarteOp.volterra_defect, lambda value: math.nan))
    assert _only_failing_row(acceptance.criterion_8()) == "volterra_eigenvalue_bound"


def test_nan_harmonic_gap_fails_the_torus_rows(monkeypatch):
    monkeypatch.setattr(acceptance, "harmonic_space", _nan_on_second_call(
        acceptance.harmonic_space, lambda rep: dataclasses.replace(rep, gap=math.nan)))
    rows, _ = acceptance.torus_rows(acceptance.torus_complex((6, 6), (1.0, 2.0)))
    assert _only_failing_row(rows) == "harmonic_gap"


def test_verify_report_determinism(tmp_path):
    # the same config and seed give the same verify report digest
    config = {"command": "verify", "tolerance_scale": 1.0}
    digests = [cli.run_command("verify", config, tmp_path / run)["digest"]
               for run in ("first", "second")]
    assert digests[0] == digests[1]


def test_full_battery_aggregates(verify_battery):
    result = verify_battery
    _assert_rows(result["rows"])
    assert result["all_passed"] is True
    assert result["seed"] == 0
