"""Command-line front end: exit codes, report files, digests, artifacts."""

import ast
import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_darboux_command_reproduces_criterion_3():
    rows, _ = acceptance.darboux_check((-8.0, 8.0), 800, 1.0)
    criterion = {r["name"]: r for r in acceptance.criterion_3()}
    shared = [r for r in _as_verify_rows(rows) if r["name"] in criterion]
    assert [r["name"] for r in shared] == ["dressing_new_negative_count",
                                           "dressing_bound_state_error"]
    for r in shared:
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


def test_only_the_front_end_touches_files():
    """Files and JSON belong to ``cli`` and its helper ``ioutil``; no other
    module imports a file module, ``ioutil`` or ``cli``, not even inside a
    function."""
    import delsarte
    forbidden = {"json", "os", "pathlib", "shutil", "tempfile",
                 "delsarte.ioutil", "delsarte.cli"}
    offenders = []
    for path in sorted(Path(delsarte.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "ioutil.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # spell every import as an absolute module path
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level:
                names = ([f"delsarte.{node.module}"] if node.module
                         else [f"delsarte.{a.name}" for a in node.names])
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if {parts[0], ".".join(parts[:2])} & forbidden:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_library_modules_use_every_import():
    """No module imports a name it never uses.  The exceptions are the
    re-exports: the package ``__init__`` and ``cli.transform_operator``."""
    import delsarte
    allowed = {"cli.py": {"transform_operator"}}
    unused = []
    for path in sorted(Path(delsarte.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    imported[a.asname or a.name] = node.lineno
        # an attribute chain such as np.linalg.norm starts at the Name np
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name in sorted(set(imported) - used - allowed.get(path.name, set())):
            unused.append(f"{path.name}:{imported[name]} {name}")
    assert unused == []


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


def test_overflowing_seed_is_rejected_without_warnings(tmp_path, capsys):
    # kappa * max|x| = 2400: the overflow is detected before exponentiating,
    # so the gate's error is the only signal
    cfg = {"command": "darboux", "domain": [-60, 60], "n": 50, "kappa": 40}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(tmp_path, cfg)
    assert code == 3
    assert ("computation failed: seed values overflow on the grid"
            in capsys.readouterr().err)


def test_non_finite_phi_file_gives_computation_error(tmp_path, capsys):
    Phi = random_unit_minor(10, np.random.default_rng(3), 0.3)
    Phi[4, 7] = np.nan
    pf = tmp_path / "phi_in.csv"
    save_matrix_csv(pf, Phi)
    code, _ = _run(tmp_path, dict(FACTORIZE_CFG, phi_file=str(pf)))
    assert code == 3
    assert "computation failed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exit-code contract over drawn schema-valid configs
# ---------------------------------------------------------------------------

@st.composite
def _line_configs(draw):
    command = draw(st.sampled_from(["darboux", "transmute"]))
    n = draw(st.integers(7, 60))
    half = draw(st.floats(0.5, 60.0))
    cfg = {"command": command, "domain": [-half, half], "n": n,
           "kappa": draw(st.floats(1e-3, 40.0)),
           "center": draw(st.floats(-half, half, exclude_min=True,
                                    exclude_max=True))}
    if command == "darboux":
        cfg["parity"] = draw(st.sampled_from(["even", "odd"]))
    else:
        cfg["family_size"] = draw(st.integers(1, n + 10))
    return cfg


_factorize_configs = st.fixed_dictionaries({
    "command": st.just("factorize"), "size": st.integers(2, 30),
    "count": st.integers(1, 3),
    "scale": st.floats(0.0, 0.49, exclude_min=True),
    "seed": st.integers(0, 2 ** 16)})


@st.composite
def _derham_configs(draw):
    axes = draw(st.integers(1, 3))
    return {"command": "derham",
            "shape": draw(st.lists(st.integers(5, 6), min_size=axes,
                                   max_size=axes)),
            "periods": draw(st.lists(st.floats(1e-3, 50.0), min_size=axes,
                                     max_size=axes)),
            "fiber_dim": draw(st.integers(1, 2))}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(cfg=st.one_of(_line_configs(), _factorize_configs, _derham_configs()))
def test_drawn_configs_keep_the_exit_code_contract(cfg, tmp_path_factory):
    # a drawn config either reports finite rows (exit 0 or 1) or names a
    # library error (exit 3); it never ends as an unexpected exception
    tmp = tmp_path_factory.mktemp("drawn")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code, out = _run(tmp, cfg)
    err = stderr.getvalue()
    assert "unexpected failure" not in err
    assert code in (0, 1, 3)
    if code == 3:
        assert "computation failed" in err
    else:
        report = json.loads((out / "report.json").read_text())
        assert all(math.isfinite(r["value"]) for r in report["rows"])


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


def test_matrix_csv_bytes_are_repr_of_each_float(tmp_path):
    # the writer must keep the bytes of the per-value repr(float(v)) form
    real = np.array([[-0.0, 5e-324, 2.2e-310, 1e300],
                     [3.0, -7.0, 1.0 / 3.0, 2.0 ** 60]])
    cplx = real[:, :3] + 1j * real[:, 1:]
    for A in (real, cplx, real[0], np.arange(4)):
        p = tmp_path / "m.csv"
        save_matrix_csv(p, A)
        A2 = np.atleast_2d(A)
        if np.iscomplexobj(A2):
            flat = np.empty((A2.shape[0], 2 * A2.shape[1]))
            flat[:, 0::2], flat[:, 1::2] = A2.real, A2.imag
        else:
            flat = A2.astype(float)
        body = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in flat)
        assert p.read_text().split("\n", 1)[1] == body


def test_matrix_csv_round_trip_complex(tmp_path):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    p = tmp_path / "m.csv"
    save_matrix_csv(p, A)
    np.testing.assert_array_equal(load_matrix_csv(p), A)
