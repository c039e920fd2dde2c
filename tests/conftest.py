"""Fixtures shared across test modules."""

import copy

import pytest

from delsarte import acceptance


@pytest.fixture(scope="session")
def verify_battery():
    """One run of the verify battery at seed 0, for the tests that only
    read its rows; ``test_verify_report_determinism`` still runs it twice."""
    return acceptance.run_all(seed=0)


@pytest.fixture
def cached_verify_battery(verify_battery, monkeypatch):
    """``verify`` at seed 0 reads the shared battery instead of running it
    again; every other seed runs the battery."""
    run_all = acceptance.run_all

    def cached(seed=0):
        return copy.deepcopy(verify_battery) if seed == 0 else run_all(seed)

    monkeypatch.setattr(acceptance, "run_all", cached)
