"""Command-line front end: exit codes, report files, digests, artifacts."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from delsarte import acceptance
from delsarte.cli import main
from delsarte.factorize import gk_factorize, random_unit_minor
from delsarte.ioutil import load_matrix_csv, report_digest, save_matrix_csv

DARBOUX_CFG = {"command": "darboux", "domain": [-12.0, 12.0], "n": 200,
               "kappa": 1.0}
TRANSMUTE_CFG = {"command": "transmute", "domain": [-10.0, 10.0], "n": 240,
                 "kappa": 1.0}
FACTORIZE_CFG = {"command": "factorize", "size": 12, "count": 3, "seed": 7}
DERHAM_CFG = {"command": "derham", "shape": [8, 10], "periods": [1.0, 2.0]}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def _run(tmp_path, cfg, *extra, name="cfg.json", outname="out"):
    path = _write_cfg(tmp_path, cfg, name)
    out = tmp_path / outname
    code = main([cfg["command"], "--config", path, "--out", str(out), *extra])
    return code, out


# ---------------------------------------------------------------------------
# happy paths, one per command
# ---------------------------------------------------------------------------

def test_darboux_command_passes(tmp_path, capsys):
    code, out = _run(tmp_path, DARBOUX_CFG)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["command"] == "darboux"
    assert (out / "potential.csv").exists()
    assert (out / "spectrum.csv").exists()
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert "report digest:" in text


def test_transmute_command_passes(tmp_path):
    code, out = _run(tmp_path, TRANSMUTE_CFG)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    names = [r["name"] for r in report["rows"]]
    assert "sign_independence_gap" in names
    assert "inverse_kernel_exactness" in names
    assert (out / "pair_kernel.csv").exists()


def test_factorize_command_passes(tmp_path):
    code, out = _run(tmp_path, FACTORIZE_CFG)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    # the CSV artifacts reproduce the factorization bitwise
    Phi = load_matrix_csv(out / "phi.csv")
    Kp = load_matrix_csv(out / "k_plus.csv")
    np.testing.assert_array_equal(gk_factorize(Phi).K_plus, Kp)


def test_derham_command_passes(tmp_path):
    code, out = _run(tmp_path, DERHAM_CFG)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    harmonic = json.loads((out / "harmonic.json").read_text())
    assert [h["dim"] for h in harmonic] == [1, 2, 1]
    P = load_matrix_csv(out / "periods.csv")
    np.testing.assert_allclose(P, np.diag([1.0, 2.0]), atol=1e-10)


def test_verify_command_passes(tmp_path):
    code, out = _run(tmp_path, {"command": "verify"})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["rows"]) >= 25


# ---------------------------------------------------------------------------
# one source per residual: command rows equal the verify criteria's rows
# ---------------------------------------------------------------------------

def _as_verify_rows(rows):
    return [dict(r, name=acceptance.VERIFY_NAMES.get(r["name"], r["name"]))
            for r in rows]


def test_factorize_command_reproduces_criterion_4(tmp_path):
    seed = 11
    code, out = _run(tmp_path, {"command": "factorize", "size": 50,
                                "count": 200}, "--seed", str(seed))
    assert code == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    criterion = {r["name"]: r for r in acceptance.criterion_4(seed)}
    assert len(rows) == 5
    for r in _as_verify_rows(rows):
        assert r == criterion[r["name"]]


def test_derham_command_reproduces_criterion_7(tmp_path):
    code, out = _run(tmp_path, {"command": "derham", "shape": [12, 12],
                                "periods": [2.0 * math.pi, 1.0]})
    assert code == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    criterion = {r["name"]: r for r in acceptance.criterion_7(seed=0)}
    assert len(rows) == 4
    for r in _as_verify_rows(rows):
        assert r == criterion[r["name"]]


def test_cli_imports_no_residual_layer():
    """The front end reaches the numerics only through the shared checks."""
    import delsarte.cli as cli
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                used.add(node.module.split(".")[0])
            else:
                used.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names])
            assert not any(n.split(".")[0] == "delsarte" for n in names)
    assert used == {"acceptance", "errors", "ioutil"}


# ---------------------------------------------------------------------------
# exit code 1: a residual fails
# ---------------------------------------------------------------------------

def test_zero_tolerance_scale_fails_residuals(tmp_path):
    code, out = _run(tmp_path, {"command": "verify", "tolerance_scale": 0.0})
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is False
    # only max-direction rows are scaled; nonzero residuals now fail
    failed = [r for r in report["rows"] if not r["passed"]]
    assert failed
    assert all(r["direction"] == "max" for r in failed)


# ---------------------------------------------------------------------------
# exit code 2: config rejected before any computation
# ---------------------------------------------------------------------------

def test_schema_violation(tmp_path, capsys):
    cfg = dict(DARBOUX_CFG, kappa=-1.0)
    code, _ = _run(tmp_path, cfg)
    assert code == 2
    assert "does not validate" in capsys.readouterr().err


def test_command_mismatch(tmp_path, capsys):
    path = _write_cfg(tmp_path, {"command": "verify"})
    code = main(["darboux", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    code = main(["verify", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--config", str(p)]) == 2


def test_missing_required_field(tmp_path):
    cfg = {"command": "darboux", "domain": [-12.0, 12.0], "n": 200}  # no kappa
    code, _ = _run(tmp_path, cfg)
    assert code == 2


def test_grid_too_small_for_the_seed_gate(tmp_path):
    for command in ("darboux", "transmute"):
        code, _ = _run(tmp_path, dict(DARBOUX_CFG, command=command, n=6))
        assert code == 2


def test_derham_axis_too_short_for_a_grid(tmp_path, capsys):
    # Grid1D needs 5 unknowns per axis; the schema rejects fewer up front
    code, _ = _run(tmp_path, dict(DERHAM_CFG, shape=[4, 4], periods=[1.0, 1.0]))
    assert code == 2
    assert "does not validate" in capsys.readouterr().err


def test_negative_seed_rejected_by_parser(tmp_path):
    path = _write_cfg(tmp_path, FACTORIZE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["factorize", "--config", path, "--seed", "-1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# exit code 3: the computation itself raises
# ---------------------------------------------------------------------------

def test_seed_node_gives_computation_error(tmp_path, capsys):
    # odd parity on an odd-count symmetric grid puts a seed zero on a node
    cfg = {"command": "darboux", "domain": [-12.0, 12.0], "n": 199,
           "kappa": 1.0, "parity": "odd"}
    code, _ = _run(tmp_path, cfg)
    assert code == 3
    assert "computation failed" in capsys.readouterr().err


def test_overflowing_seed_gives_computation_error(tmp_path, capsys):
    # kappa * max|x| = 1000: the seed is not representable, so the gate
    # must fail closed instead of passing a NaN residual
    cfg = {"command": "darboux", "domain": [-20, 20], "n": 200, "kappa": 50}
    with np.errstate(over="ignore", invalid="ignore"):
        code, _ = _run(tmp_path, cfg)
    assert code == 3
    assert "computation failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_same_seed_same_digest(tmp_path):
    _, out1 = _run(tmp_path, FACTORIZE_CFG, outname="o1")
    _, out2 = _run(tmp_path, FACTORIZE_CFG, outname="o2")
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["digest"] == r2["digest"]
    # the rows themselves agree entry for entry
    assert r1["rows"] == r2["rows"]


def test_seed_override_changes_digest(tmp_path):
    path = _write_cfg(tmp_path, FACTORIZE_CFG)
    o1, o2 = tmp_path / "a", tmp_path / "b"
    assert main(["factorize", "--config", path, "--out", str(o1)]) == 0
    assert main(["factorize", "--config", path, "--out", str(o2),
                 "--seed", "123"]) == 0
    r1 = json.loads((o1 / "report.json").read_text())
    r2 = json.loads((o2 / "report.json").read_text())
    assert r1["digest"] != r2["digest"]
    assert r2["seed"] == 123


def test_digest_recomputes_from_report(tmp_path):
    _, out = _run(tmp_path, DARBOUX_CFG)
    report = json.loads((out / "report.json").read_text())
    stored = report.pop("digest")
    assert report_digest(report) == stored


def test_digest_ignores_timings(tmp_path):
    _, out = _run(tmp_path, DARBOUX_CFG)
    report = json.loads((out / "report.json").read_text())
    stored = report.pop("digest")
    report["timings_seconds"] = {"dressing": 99.0, "spectra": -1.0}
    assert report_digest(report) == stored


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def test_plots_flag_emits_svg(tmp_path):
    code, out = _run(tmp_path, DARBOUX_CFG, "--plots")
    assert code == 0
    svg = (out / "potential.svg").read_text()
    assert svg.lstrip().startswith("<svg")
    assert "polyline" in svg
    report = json.loads((out / "report.json").read_text())
    assert "potential.svg" in report["artifacts"]


def test_factorize_reads_phi_from_file(tmp_path):
    rng = np.random.default_rng(3)
    Phi = random_unit_minor(10, rng, 0.3)
    pf = tmp_path / "phi_in.csv"
    save_matrix_csv(pf, Phi)
    cfg = dict(FACTORIZE_CFG, phi_file=str(pf))
    code, out = _run(tmp_path, cfg)
    assert code == 0
    np.testing.assert_array_equal(load_matrix_csv(out / "phi.csv"), Phi)


def test_matrix_csv_round_trip_complex(tmp_path):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    p = tmp_path / "m.csv"
    save_matrix_csv(p, A)
    np.testing.assert_array_equal(load_matrix_csv(p), A)
