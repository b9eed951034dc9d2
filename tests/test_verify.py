import pytest

import crosskv.verify
from crosskv.costmodel import LatencyEstimate
from crosskv.verify import SUITES, run_suite


def test_all_six_suites_run():
    assert list(SUITES) == ["numerics", "rope", "sharing", "attention", "model", "costmodel"]


@pytest.mark.parametrize("suite", SUITES)
def test_suite_invariants_hold(suite, suite_results):
    results = suite_results(suite)
    assert results
    violated = [r.line() for r in results if not r.passed]
    assert not violated, "violated invariants: " + "; ".join(violated)


def test_regime_ratios_fail_when_no_device_is_in_a_regime(monkeypatch):
    # every device memory-bound in prefill and compute-bound in decode: no
    # ratio gets compared, which must not count as a pass
    real = crosskv.verify.roofline_latency

    def swapped(costs, dev, weight_bytes=0.0):
        lat = real(costs, dev, weight_bytes)
        return LatencyEstimate(lat.ttft_s, lat.tpot_s, "memory", "compute")

    monkeypatch.setattr(crosskv.verify, "roofline_latency", swapped)
    result = next(r for r in run_suite("costmodel") if r.name == "regime_ratios_device_free")
    assert not result.passed
