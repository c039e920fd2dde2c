"""End-to-end battery: every headline capability, one test each, printed
as a pass/fail line per residual row."""

import numpy as np
import pytest

from delsarte import acceptance, cli


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
    eigvals = acceptance.scipy.linalg.eigvals

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigvals(a, *args, **kwargs)

    monkeypatch.setattr(acceptance.scipy.linalg, "eigvals", recording)
    rows = acceptance.criterion_3()
    assert seen == [np.float64]
    preserved = [r for r in rows if r["name"] == "conjugation_spectrum_preserved"]
    assert len(preserved) == 1
    _assert_rows(preserved)


def test_triangular_factorization_battery():
    _assert_rows(acceptance.criterion_4(seed=0))


def test_layer_stripping_battery():
    _assert_rows(acceptance.criterion_5(seed=0))


def test_spectral_projection_calculus():
    _assert_rows(acceptance.criterion_6())


def test_torus_harmonics_and_periods():
    _assert_rows(acceptance.criterion_7(seed=0))


def test_volterra_property_of_all_kernels():
    _assert_rows(acceptance.criterion_8(seed=0))


def test_verify_report_determinism(tmp_path):
    # the same config and seed give the same verify report digest
    config = {"command": "verify", "tolerance_scale": 1.0}
    digests = [cli.cmd_verify(config, tmp_path / run, seed=0)["digest"]
               for run in ("first", "second")]
    assert digests[0] == digests[1]


def test_full_battery_aggregates():
    result = acceptance.run_all(seed=0)
    _assert_rows(result["rows"])
    assert result["all_passed"] is True
    assert result["seed"] == 0
