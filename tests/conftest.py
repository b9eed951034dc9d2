import functools

import pytest

from crosskv.verify import run_suite


@pytest.fixture(scope="session")
def suite_results():
    """`run_suite`, run at most once per suite in a test session: the model
    suite's finite-difference oracle takes minutes."""
    return functools.cache(run_suite)


@pytest.fixture(scope="session")
def invariant(suite_results):
    """The result of one invariant named `suite.name`."""

    def find(qualified: str):
        suite, name = qualified.split(".", 1)
        return {r.name: r for r in suite_results(suite)}[name]

    return find
