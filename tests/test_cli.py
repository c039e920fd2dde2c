"""Command-line front end: exit codes, report files, digests, artifacts."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from delsarte import acceptance, cli
from delsarte.cli import main
from delsarte.errors import DelsarteError
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


def test_verify_command_passes(tmp_path, cached_verify_battery):
    code, out = _run(tmp_path, {"command": "verify"})
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["rows"]) >= 25


@pytest.mark.parametrize("cfg", [DARBOUX_CFG, TRANSMUTE_CFG, FACTORIZE_CFG,
                                 DERHAM_CFG, {"command": "verify"}],
                         ids=lambda cfg: cfg["command"])
def test_report_lists_every_file_written(tmp_path, cached_verify_battery, cfg):
    code, out = _run(tmp_path, cfg, "--plots")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    written = {p.name for p in out.iterdir() if p.stat().st_size > 0}
    assert report["artifacts"] == sorted(written - {"report.json"})
    plot = cli.COMMANDS[cfg["command"]][2]
    assert plot is None or plot[0] in report["artifacts"]
    assert set(report["timings_seconds"]) == {"check", "artifacts"}


def test_schema_commands_are_the_command_table():
    schema = cli.load_schema()
    assert schema["properties"]["command"]["enum"] == list(cli.COMMANDS)


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


def test_cli_import_loads_no_sparse_module():
    """A fresh interpreter importing the front end must not pull in
    ``scipy.sparse``: every process start pays for what the import loads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, delsarte.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


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


def test_every_exported_name_exists():
    """Each name a module lists in ``__all__`` is defined there, so a
    deleted function or class cannot linger in an export list."""
    import importlib

    import delsarte
    missing = []
    for path in sorted(Path(delsarte.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "delsarte" if path.stem == "__init__" else f"delsarte.{path.stem}")
        missing += [f"{path.name} {name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_every_exported_name_has_a_caller():
    """Each name in a module's ``__all__`` is loaded, as a name or an
    attribute, in the library outside its own definition and the package
    ``__init__``, or in ``demos/`` or ``bench/``: a name that only the tests
    reach is not public surface.  Strings and docstrings do not count."""
    import importlib

    import delsarte
    root = Path(__file__).resolve().parent.parent
    modules = sorted(p for p in Path(delsarte.__file__).parent.glob("*.py")
                     if p.name != "__init__.py")
    loaded = set()
    for path in modules + sorted((root / "demos").rglob("*.py")) \
            + sorted((root / "bench").rglob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)  # a recursive call is no caller
            loaded |= {n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(stmt)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load)} - {own}
    uncalled = []
    for path in modules:
        module = importlib.import_module(f"delsarte.{path.stem}")
        uncalled += [f"{path.name} {name}" for name in getattr(module, "__all__", ())
                     if name not in loaded]
    assert uncalled == []


def test_library_parameters_are_read():
    """Every parameter of every function (lambdas included) is read in its
    body."""
    import delsarte
    unread = []
    for path in sorted(Path(delsarte.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "lambda")
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {name}({p})"
                       for p in params if p not in read]
    assert unread == []


def test_axis_layout_lives_in_two_helpers():
    """``np.tensordot`` and ``np.kron``, which spell out the Kronecker layout
    of flattened fields, appear only in ``grid_ops._apply_along`` and in
    ``derham.flat_complex`` (the fiber generator on every node); ``np.fft``
    and ``np.roll`` appear nowhere."""
    import delsarte
    allowed = {"tensordot": {("grid_ops.py", "_apply_along")},
               "kron": {("derham.py", "flat_complex")},
               "fft": set(),
               "roll": set()}
    offenders = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr in allowed
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                and (path.name, where) not in allowed[node.attr]):
            offenders.append(f"{path.name}:{node.lineno} {where} np.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(Path(delsarte.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    assert offenders == []


def test_band_diagonals_are_read_in_one_place():
    """``np.diagonal`` with an offset, which reads one band diagonal, appears
    only in ``grid_ops._upper_band`` (the one band packer) and in
    ``grid_ops._is_hermitian`` (which reads the lower partner of each packed
    diagonal)."""
    import delsarte
    allowed = {("grid_ops.py", "_upper_band"), ("grid_ops.py", "_is_hermitian")}
    offenders = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "diagonal"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and (len(node.args) > 1 or any(k.arg == "offset" for k in node.keywords))
                and (path.name, where) not in allowed):
            offenders.append(f"{path.name}:{node.lineno} {where} np.diagonal")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(Path(delsarte.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    assert offenders == []


# ---------------------------------------------------------------------------
# exit code 1: a residual fails
# ---------------------------------------------------------------------------

def test_non_finite_value_fails_as_a_null_row(tmp_path, monkeypatch, capsys):
    """A check returning NaN fails its row, recorded as null: the run exits 1
    and still writes its report."""
    monkeypatch.setattr(acceptance, "adjoint_compat_check", lambda data: math.nan)
    cfg = {"command": "transmute", "domain": [-8.0, 8.0], "n": 60, "kappa": 1.0}
    code, out = _run(tmp_path, cfg)
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    bad = [r for r in report["rows"] if not r["passed"]]
    assert [(r["name"], r["value"]) for r in bad] == [("adjoint_compatibility", None)]
    assert "null" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit code 2: config rejected before any computation
# ---------------------------------------------------------------------------

def test_schema_violation(tmp_path, capsys):
    cfg = dict(DARBOUX_CFG, kappa=-1.0)
    code, _ = _run(tmp_path, cfg)
    assert code == 2
    assert "does not validate" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    # a misspelt key would otherwise run with the default it meant to
    # replace; no key sets a threshold, so tolerance and tolerance_scale are
    # unknown too
    for key in ("centre", "tolerance", "tolerance_scale"):
        code, _ = _run(tmp_path, dict(DARBOUX_CFG, **{key: 0.5}), outname=key)
        assert code == 2
        assert f"'{key}' was unexpected" in capsys.readouterr().err


def test_schema_declares_the_keys_the_reader_reads():
    # config["key"] and config.get("key") in cli.py against the schema's
    # properties: an undeclared key could never be set, an unread one is dead
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "config"):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "config"):
            key = node.args[0]
        else:
            continue
        assert isinstance(key, ast.Constant), ast.unparse(node)
        read.add(key.value)
    assert read == set(cli.load_schema()["properties"])


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
    # without a phi_file, factorize needs both size and count
    for cfg in ({"command": "factorize"}, {"command": "factorize", "size": 8}):
        assert _run(tmp_path, cfg)[0] == 2


def test_grid_too_small_for_the_seed_gate(tmp_path):
    for command in ("darboux", "transmute"):
        code, _ = _run(tmp_path, dict(DARBOUX_CFG, command=command, n=6))
        assert code == 2


@pytest.mark.parametrize("text, named", [
    ('{"command": "darboux", "domain": [-8, 8], "n": 100, "kappa": NaN}', "NaN"),
    ('{"command": "darboux", "domain": [-8, Infinity], "n": 100, "kappa": 1}', "Infinity"),
    ('{"command": "darboux", "domain": [-8, 1e999], "n": 100, "kappa": 1}', "1e999"),
    ('{"command": "derham", "shape": [6, 6], "periods": [1, Infinity]}', "Infinity"),
    ('{"command": "factorize", "size": 6, "count": 1, "scale": NaN}', "NaN"),
], ids=["kappa_nan", "domain_inf", "domain_1e999", "periods_inf", "scale_nan"])
def test_non_finite_config_number_is_rejected(tmp_path, capsys, text, named):
    # Python's json reads NaN, Infinity and 1e999, and the schema lets NaN
    # through; the loader rejects each before any computation
    p = tmp_path / "cfg.json"
    p.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main([json.loads(text)["command"], "--config", str(p), "--out", str(out)]) == 2
    assert f"non-finite number {named}" in capsys.readouterr().err
    assert not out.exists()


def test_derham_periods_fill_the_shape_or_are_named(tmp_path, capsys):
    # one period applies to every axis
    code, out = _run(tmp_path, dict(DERHAM_CFG, periods=[1.5]))
    assert code == 0
    P = load_matrix_csv(out / "periods.csv")
    np.testing.assert_allclose(P, np.diag([1.5, 1.5]), atol=1e-10)
    # any count but one or one per axis is neither dropped nor cycled
    for shape, periods in (([7, 7], [1.0, 2.0, 3.0]), ([7, 7, 7], [1.0, 2.0])):
        code, out = _run(tmp_path, dict(DERHAM_CFG, shape=shape, periods=periods),
                         outname=f"bad{len(shape)}")
        err = capsys.readouterr().err
        assert code == 3
        assert "computation failed" in err
        assert f"{len(periods)} periods for a shape of {len(shape)} axes" in err


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


def test_overflowing_phi_file_gives_computation_error(tmp_path, capsys):
    # pivot 1e290 beside entries 1e300: the LDU's first update overflows
    pf = tmp_path / "phi_in.csv"
    Phi = np.zeros((6, 6))
    Phi[0, 0] = 1e290
    Phi[0, 1:] = Phi[1:, 0] = 1e300
    save_matrix_csv(pf, Phi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = _run(tmp_path, {"command": "factorize", "phi_file": str(pf)})
    err = capsys.readouterr().err
    assert code == 3
    assert "computation failed" in err and "elimination overflowed" in err


def test_non_square_phi_file_gives_computation_error(tmp_path, capsys):
    pf = tmp_path / "phi_in.csv"
    save_matrix_csv(pf, np.arange(12.0).reshape(3, 4))
    code, _ = _run(tmp_path, dict(FACTORIZE_CFG, phi_file=str(pf)))
    err = capsys.readouterr().err
    assert code == 3
    assert "computation failed" in err and "square" in err and "(1, 3, 4)" in err


def test_unparsable_phi_file_names_the_file(tmp_path, capsys):
    pf = tmp_path / "phi_in.csv"
    pf.write_text("c_0,c_1\n1.0,2.0\n3.0,oops\n", encoding="utf-8")
    code, _ = _run(tmp_path, dict(FACTORIZE_CFG, phi_file=str(pf)))
    err = capsys.readouterr().err
    assert code == 3
    assert "computation failed" in err and str(pf) in err and "oops" in err


def test_missing_phi_file_names_the_file(tmp_path, capsys):
    pf = tmp_path / "absent.csv"
    code, _ = _run(tmp_path, dict(FACTORIZE_CFG, phi_file=str(pf)))
    err = capsys.readouterr().err
    assert code == 3
    assert "computation failed" in err and str(pf) in err
    assert "unexpected failure" not in err


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
    # library error (exit 3); it never ends as an unexpected exception.  The
    # one row infinite by design, the bound-state error when no bound state
    # appears, is a failing null
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
        assert all(math.isfinite(r["value"]) if r["value"] is not None
                   else r["name"] == "bound_state_error" and not r["passed"]
                   for r in report["rows"])


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


def _pool_threads():
    return [pool.get() for pool in cli._openblas_pools()]


@pytest.fixture
def two_thread_pools():
    """Every OpenBLAS pool of this process set to 2 threads, so that a pool
    left at 1 shows; the counts found are given back afterwards."""
    pools = cli._openblas_pools()
    before = _pool_threads()
    for pool in pools:
        pool.put(2)
    yield pools
    for pool, threads in zip(pools, before):
        pool.put(threads)


def _probe(seen, error=None):
    """A check that records the pools' thread counts, then passes or raises."""
    def check(config):
        seen.append(_pool_threads())
        if error is not None:
            raise error
        return [acceptance._row("probe", 0.0, 1.0)], {}
    return check


def test_job_runs_on_one_blas_thread_and_restores_each_pool(
        tmp_path, monkeypatch, two_thread_pools):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "verify", (_probe(seen), (), None))
    report = cli.run_command("verify", {"command": "verify"}, tmp_path)
    pools = two_thread_pools
    assert seen == [[1] * len(pools)]
    assert _pool_threads() == [2] * len(pools)
    assert report["health"]["blas"] == [
        {"library": pool.library, "config": pool.config, "threads": 1}
        for pool in pools]


def test_failed_job_restores_each_pool(tmp_path, monkeypatch, two_thread_pools):
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "verify", (
        _probe(seen, DelsarteError("probe failed")), (), None))
    code, _ = _run(tmp_path, {"command": "verify"})
    assert code == 3
    assert seen == [[1] * len(two_thread_pools)]
    assert _pool_threads() == [2] * len(two_thread_pools)


def test_digests_do_not_depend_on_the_blas_thread_setting(tmp_path):
    """``verify`` and a small ``transmute`` give the same digests with
    ``OPENBLAS_NUM_THREADS`` unset, 1 and 2, each setting in a fresh
    interpreter (the variable is read when OpenBLAS loads)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    configs = {"verify": {"command": "verify"}, "transmute": TRANSMUTE_CFG}
    code = ("import json, sys; from pathlib import Path; from delsarte import cli\n"
            "for name, cfg in json.loads(sys.argv[2]).items():\n"
            "    report = cli.run_command(name, cfg, Path(sys.argv[1]) / name, seed=5)\n"
            "    print(name, report['digest'], report['all_passed'])\n")
    outputs = []
    for setting in (None, "1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / f"threads-{setting}"),
             json.dumps(configs)],
            env=env, check=True, capture_output=True, text=True, timeout=300)
        outputs.append(proc.stdout.split())
    assert outputs[0][2::3] == ["True", "True"]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


BASELINE = json.loads((Path(__file__).parent / "baseline_digests.json").read_text("utf-8"))


@pytest.mark.parametrize("command", sorted(BASELINE["configs"]))
def test_baseline_digest_is_pinned(command, tmp_path):
    """The baseline configs at their seed give the digests checked in for
    this machine: the OpenBLAS build of every pool in ``health.blas`` and
    the numpy and SciPy versions.  A change that moves a digest updates
    ``baseline_digests.json`` and says which rows moved; on a machine the
    table does not list, the test skips."""
    report = cli.run_command(command, BASELINE["configs"][command], tmp_path,
                             seed=BASELINE["seed"])
    key = {"blas": [pool["config"] for pool in report["health"]["blas"]],
           "numpy": np.__version__, "scipy": scipy.__version__}
    pinned = [m["digests"] for m in BASELINE["machines"]
              if {k: m[k] for k in key} == key]
    if not pinned:
        pytest.skip(f"no pinned digests for {key}")
    assert report["all_passed"]
    assert report["digest"] == pinned[0][command]


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
    # with a file, size and count are not needed
    for k, cfg in enumerate((FACTORIZE_CFG, {"command": "factorize"})):
        code, out = _run(tmp_path, dict(cfg, phi_file=str(pf)), outname=f"out{k}")
        assert code == 0
        np.testing.assert_array_equal(load_matrix_csv(out / "phi.csv"), Phi)


def test_matrix_csv_bytes_are_repr_of_each_float(tmp_path):
    # the writer must keep the bytes of the per-value repr(float(v)) form;
    # the last rows hold repr's format switch points with their neighbours:
    # exponent form below 1e-4 and from 1e16 on, and the 16-digit edge at
    # 9999999999999998.0 and 2**53 (neighbours 2**53 - 1 and 2**53 + 2)
    switch = np.array([1e-4, 1e-5, 1e16, 9999999999999998.0, 2.0 ** 53, 1e15,
                       1e17, 0.1, 123.0, 1e22, 1e23, 1.7976931348623157e308])
    switch = np.concatenate([switch, np.nextafter(switch, 0.0),
                             np.nextafter(switch[:-1], np.inf), [2.0 ** 53 - 1]])
    real = np.vstack([[[-0.0, 5e-324, 2.2e-310, 1e300],
                       [3.0, -7.0, 1.0 / 3.0, 2.0 ** 60]],
                      np.concatenate([switch, -switch]).reshape(-1, 4)])
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


def test_matrix_csv_zero_runs_keep_the_repr_bytes(tmp_path):
    """Rows with runs of +0.0 (leading, trailing, interior or the whole
    row) and of -0.0 keep the bytes of ``",".join(map(repr, row))``."""
    rng = np.random.default_rng(8)
    lower = np.tril(rng.standard_normal((6, 6)), -1)
    cases = {
        "strictly lower": lower,
        "-0.0 upper triangle": -np.tril(rng.standard_normal((5, 5)), -1),
        "leading zeros": np.triu(rng.standard_normal((5, 5)), 1),
        "all-zero rows": np.vstack([np.zeros(4), [1.5, 0.0, 0.0, -2.0], np.zeros(4)]),
        "all -0.0": -np.zeros((2, 3)),
        "interior and mixed": np.array([[0.0, 1.0, 0.0, 0.0, -0.0, 0.0],
                                        [np.nan, 0.0, 0.0, 0.0, 0.0, np.inf],
                                        [0.0, 0.0, -np.inf, 0.0, 0.0, 5e-324]]),
        "one column": np.array([[0.0], [-0.0], [3.25], [0.0]]),
        "complex": lower[:, :3] + 1j * lower[:, 3:],
        # 19900 entries: rows straddle the formatter's chunks of values
        "strictly lower, several chunks": np.tril(rng.standard_normal((200, 200)), -1),
    }
    for name, A in cases.items():
        p = tmp_path / "m.csv"
        save_matrix_csv(p, A)
        if np.iscomplexobj(A):
            flat = np.empty((A.shape[0], 2 * A.shape[1]))
            flat[:, 0::2], flat[:, 1::2] = A.real, A.imag
        else:
            flat = A
        body = "".join(",".join(map(repr, row)) + "\n" for row in flat.tolist())
        assert p.read_text().split("\n", 1)[1] == body, name


@pytest.mark.parametrize("config", [DARBOUX_CFG, TRANSMUTE_CFG, FACTORIZE_CFG, DERHAM_CFG],
                         ids=lambda c: c["command"])
def test_job_tables_are_the_repr_bytes_of_the_check(tmp_path, monkeypatch, config):
    """The digest covers the artifact names, not their bytes: each CSV a job
    writes is its header plus one ``",".join(map(repr, row))`` line per row
    of the table its check returned."""
    command = config["command"]
    check, tables, plot = cli.COMMANDS[command]
    returned = {}

    def recording(cfg):
        rows, data = check(cfg)
        returned.update(data)
        return rows, data

    monkeypatch.setitem(cli.COMMANDS, command, (recording, tables, plot))
    report = cli.run_command(command, config, tmp_path, seed=3)
    written = [a[:-4] for a in report["artifacts"] if a.endswith(".csv")]
    assert written and sorted(written) == sorted(t for t in tables if t in returned)
    for name in written:
        A = np.atleast_2d(returned[name])
        if np.iscomplexobj(A):
            header = ",".join(f"re_{j},im_{j}" for j in range(A.shape[1]))
            flat = np.empty((A.shape[0], 2 * A.shape[1]))
            flat[:, 0::2], flat[:, 1::2] = A.real, A.imag
        else:
            header = ",".join(f"c_{j}" for j in range(A.shape[1]))
            flat = A.astype(float)
        lines = [header] + [",".join(map(repr, row)) for row in flat.tolist()]
        assert (tmp_path / f"{name}.csv").read_bytes() == ("\n".join(lines) + "\n").encode(), name


def test_matrix_csv_round_trip_complex(tmp_path):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    p = tmp_path / "m.csv"
    save_matrix_csv(p, A)
    assert p.read_text().split("\n", 1)[0] == ",".join(
        f"re_{j},im_{j}" for j in range(5))
    back = load_matrix_csv(p)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back, A)


def test_matrix_csv_round_trip_real(tmp_path):
    # real factors (a GK pair of a real kernel) travel as one column each
    pair = gk_factorize(random_unit_minor(9, np.random.default_rng(5)))
    for A in (pair.K_plus, pair.D, np.array([[-0.0, 5e-324, 1e300]])):
        p = tmp_path / "m.csv"
        save_matrix_csv(p, A)
        A2 = np.atleast_2d(A)
        assert p.read_text().split("\n", 1)[0] == ",".join(
            f"c_{j}" for j in range(A2.shape[1]))
        back = load_matrix_csv(p)
        assert back.dtype == np.float64
        assert back.tobytes() == A2.tobytes()


@pytest.mark.parametrize("text, cause", [
    ("re_0,im_0,re_1\n1,0,2\n3,0,4\n", "odd column count"),
    ("re_0,im_0\n1,0,2,0\n3,0,4,0\n", "header names 2 columns"),
    ("c_0,c_1,c_2\n1,2\n3,4\n", "header names 3 columns"),
    ("c_0,c_1\n", "no data rows"),
])
def test_malformed_matrix_csv_names_the_file(tmp_path, text, cause):
    p = tmp_path / "bad.csv"
    p.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=cause) as err:
            load_matrix_csv(p)
    assert str(p) in str(err.value)


def test_malformed_phi_file_gives_computation_error(tmp_path, capsys):
    # once accepted by broadcasting as the 2x2 kernel [[1, 2], [3, 4]]
    pf = tmp_path / "phi_in.csv"
    pf.write_text("re_0,im_0,re_1\n1,0,2\n3,0,4\n", encoding="utf-8")
    code, _ = _run(tmp_path, dict(FACTORIZE_CFG, phi_file=str(pf)))
    err = capsys.readouterr().err
    assert code == 3
    assert "computation failed" in err and str(pf) in err
