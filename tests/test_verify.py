import pytest

from crosskv.verify import SUITES, run_suite

# Every suite but `model`, whose finite-difference oracle repeats
# test_criterion_07 and takes minutes; `crosskv verify` runs it.
FAST_SUITES = ("numerics", "rope", "sharing", "attention", "costmodel")


def test_only_the_model_suite_is_left_out():
    assert set(SUITES) - set(FAST_SUITES) == {"model"}


@pytest.mark.parametrize("suite", FAST_SUITES)
def test_suite_invariants_hold(suite):
    results = run_suite(suite)
    assert results
    violated = [r.line() for r in results if not r.passed]
    assert not violated, "violated invariants: " + "; ".join(violated)
