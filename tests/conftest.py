"""Shared fixtures: session-cached POVM builds and acceptance reporting."""

from __future__ import annotations

import pytest

from povmquad import build_povm, sphere_grid

from _oracles import ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def povm_for():
    """Memoised build_povm so expensive grids are constructed once."""
    cache = {}

    def get(d: int, n: int):
        key = (d, n)
        if key not in cache:
            cache[key] = build_povm(d, n)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rule_for():
    """Memoised sphere_grid for tests that need the uncertified grid."""
    cache = {}

    def get(d: int, n: int):
        key = (d, n)
        if key not in cache:
            cache[key] = sphere_grid(d, n)
        return cache[key]

    return get


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
