"""Shared fixtures: each validation check runs once per test session."""

import pytest

from twopolaritons import bound_states
from twopolaritons.validation import run_checks


@pytest.fixture(scope="session")
def check_result():
    """Result of one named check on the unmodified code, run at most once.

    The parametrized check tests and the acceptance criteria that own a
    check read the same result, so no check runs twice on the real code.
    """
    cache = {}

    def get(name):
        if name not in cache:
            (cache[name],) = run_checks([name])
        return cache[name]

    return get


@pytest.fixture
def overcount():
    """bound_states._gap_counts with one sign change too many in each gap's count.

    A planted fault: a test patches it in where a check or the ring audit
    reads the inertia count, and requires the count comparison to fail.
    """
    def plus_one(params, gaps):
        return [count + 1 for count in bound_states._gap_counts(params, gaps)]

    return plus_one
