"""The benchmark's trace targets and ladders still resolve against the library.

``bench/run.py --trace 1`` wraps each of its ``TRACE_TARGETS`` by name, so a
renamed or deleted function would break only the traced benchmark, which
this suite does not run.  The names are read from ``bench/run.py`` with
``ast`` and resolved the way ``Tracer.install`` in ``bench/tracer.py``
resolves them.  Nothing under ``bench/`` is written.  The tracer keeps one
span stack per process, so the verify battery's worker thread may run no
traced function either; the recording comes from the session's shared
battery run in ``conftest.py``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path


BENCH = Path(__file__).resolve().parent.parent / "bench"
TARGET_PARTS = ("LAYER_FUNCTIONS", "CRITERIA", "TRACE_TARGETS")


def _trace_targets() -> tuple:
    """``TRACE_TARGETS`` as ``bench/run.py`` assembles it from its parts."""
    path = BENCH / "run.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id in TARGET_PARTS
                       for t in node.targets)]
    namespace = {}
    exec(compile(ast.Module(assigns, type_ignores=[]), str(path), "exec"), namespace)
    return namespace["TRACE_TARGETS"]


def _resolve(target: str):
    """A module attribute for ``mod.fn``, ``Class.__dict__[meth]`` for
    ``mod.Class.meth``."""
    module_name, _, qualname = target.partition(".")
    module = importlib.import_module(f"delsarte.{module_name}")
    if "." in qualname:
        cls_name, meth = qualname.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, qualname)


def test_every_trace_target_resolves():
    targets = _trace_targets()
    assert "cli.main" in targets
    assert len(targets) == len(set(targets))
    for target in targets:
        raw = _resolve(target)
        assert callable(getattr(raw, "__func__", raw)), target


def test_ladder_imports(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_ladder", BENCH / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    assert callable(ladder.run_ladders)


def test_run_all_hands_its_pool_no_traced_function(battery_run):
    # the tracer keeps one span stack per process and times CPU with
    # process_time: a traced call in verify's worker thread would nest its
    # span under whatever span the main thread has open
    submitted = battery_run.submitted
    traced = {getattr(raw, "__func__", raw) for raw in map(_resolve, _trace_targets())}
    assert submitted
    for fn in submitted:
        assert fn not in traced, fn
        # nor a library function, which could call a traced one
        assert not fn.__module__.startswith("delsarte"), fn
