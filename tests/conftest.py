"""Shared fixtures: each validation check runs once per test session."""

import pytest

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
