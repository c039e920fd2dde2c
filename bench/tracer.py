"""Outside-in span tracing of the delsarte layers.

The tracer wraps chosen functions and methods of the ``delsarte`` modules
from the outside, without touching the library source.  Each wrapped call
records one span: name, start, end, parent span, job id, process CPU time
spent inside it, and whether it raised.  Spans stay in memory until
``write`` dumps them as JSON lines.

Names are ``<module>.<qualname>`` with the module relative to the package,
for example ``transmute.transform_operator`` or ``transmute.DelsarteOp.cond``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

PACKAGE = "delsarte"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    cpu: float
    failed: bool
    bytes: int = 0


class Tracer:
    """Records spans around wrapped delsarte functions of one process."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count_bytes: bool = False):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        With ``count_bytes`` the size of the file named by the first
        argument is stored on the span after the call returns.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(sid, name, 0.0, 0.0, parent, self.job, 0.0, False)
            self.spans.append(span)
            self._stack.append(sid)
            cpu0 = self.cpu_clock()
            span.start = self.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                span.cpu = self.cpu_clock() - cpu0
                self._stack.pop()
                if count_bytes and not span.failed:
                    span.bytes = os.path.getsize(args[0])

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self, targets, count_bytes=()) -> None:
        """Wrap every target, given as ``"<module>.<qualname>"``.

        A module-level function is rebound in every loaded ``delsarte``
        module namespace that holds it, because ``from .x import f`` copies
        the binding.  A ``Class.method`` target is patched on the class, so
        classmethods and plain methods are both seen.
        """
        for target in targets:
            module_name, _, qualname = target.partition(".")
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            wrap_bytes = target in count_bytes
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(target, raw.__func__, wrap_bytes))
                else:
                    new = self.wrap(target, raw, wrap_bytes)
                self._patch(cls, meth, new)
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(target, original, wrap_bytes)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict:
    """Per span name: summed self time, inclusive wall and CPU time, call
    count, failed calls and bytes written."""
    stats: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        st = stats.setdefault(s.name, {"self_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0,
                                       "calls": 0, "failed": 0, "bytes": 0})
        st["self_s"] += self_s
        st["wall_s"] += s.end - s.start
        st["cpu_s"] += s.cpu
        st["calls"] += 1
        st["failed"] += int(s.failed)
        st["bytes"] += s.bytes
    return stats

