"""Fixtures shared across test modules."""

import concurrent.futures
import copy
import threading
from types import SimpleNamespace

import pytest

from delsarte import acceptance


@pytest.fixture(scope="session")
def battery_run():
    """One run of the verify battery at seed 0, with what it leaves behind:
    ``rows`` is its result, ``submitted`` every callable it handed a thread
    pool, ``threads_before`` and ``threads_after`` the live thread counts
    around the call.  The pool is a recording subclass and otherwise the
    library's own."""
    submitted = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        before = threading.active_count()
        rows = acceptance.run_all(seed=0)
        after = threading.active_count()
    return SimpleNamespace(rows=rows, submitted=submitted,
                           threads_before=before, threads_after=after)


@pytest.fixture(scope="session")
def verify_battery(battery_run):
    """The rows of the shared battery run, for the tests that only read
    them; ``test_verify_report_determinism`` still runs it twice."""
    return battery_run.rows


@pytest.fixture
def cached_verify_battery(verify_battery, monkeypatch):
    """``verify`` at seed 0 reads the shared battery instead of running it
    again; every other seed runs the battery."""
    run_all = acceptance.run_all

    def cached(seed=0):
        return copy.deepcopy(verify_battery) if seed == 0 else run_all(seed)

    monkeypatch.setattr(acceptance, "run_all", cached)
