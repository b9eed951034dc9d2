import numpy as np
import pytest

import crosskv.model
import crosskv.verify
from crosskv.costmodel import LatencyEstimate
from crosskv.sharing import LayerCache
from crosskv.tensor import record_op
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


def test_op_backward_check_names_the_failing_op(monkeypatch):
    # swiglu's forward as it is, its gradient doubled by one extra tape op
    real = crosskv.verify.swiglu

    def doubled_backward(x):
        out = real(x)
        return record_op("swiglu", out.numpy().copy(), (out,), lambda g: (2.0 * g,))

    monkeypatch.setattr(crosskv.verify, "swiglu", doubled_backward)
    result = next(r for r in run_suite("numerics") if r.name == "op_backward_matches_fd")
    assert not result.passed
    assert "(swiglu); over 1e-4: swiglu;" in result.detail


def test_fd_checks_name_their_dtype(monkeypatch):
    detail = next(r for r in run_suite("numerics") if r.name == "op_backward_matches_fd").detail
    assert detail.endswith(crosskv.verify._fd_oracle())
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        assert crosskv.verify._fd_oracle().endswith(f"eps {np.finfo(np.longdouble).eps:.1e})")
    monkeypatch.setattr(crosskv.verify, "FD_DTYPE", np.dtype(np.float64))  # as on a host without extended precision
    assert crosskv.verify._fd_oracle() == "FD in longdouble (float64, eps 2.2e-16, no wider than float64: the float64 oracle)"


def test_decode_reads_check_fails_on_an_extra_term(monkeypatch):
    # a reconstruction layer that reads one source term twice reads more than Table 1 counts
    real = crosskv.verify.folded_cache

    def doubled(plan, weights, stored, i):
        cache = real(plan, weights, stored, i)
        return LayerCache(cache.key_terms * 2, cache.value_terms, cache.layer)

    monkeypatch.setattr(crosskv.verify, "folded_cache", doubled)
    monkeypatch.setattr(crosskv.verify, "grad_check", lambda f, params: 0.0)  # skip the slow FD oracle
    result = next(r for r in run_suite("model") if r.name == "decode_reads_match_table1")
    assert not result.passed
    assert "Vanilla:16 vs 16" in result.detail and "YOCO:20 vs 16" in result.detail


def test_decode_stores_check_fails_on_an_extra_cache(monkeypatch):
    # a pass that keeps one cache more than its storage layers stores more than Table 1 counts
    real = crosskv.model.DecoderModel._forward

    def one_more(self, tokens, positions, caches, weights=None):
        logits = real(self, tokens, positions, caches, weights)
        caches[0] = caches[1]
        return logits

    monkeypatch.setattr(crosskv.model.DecoderModel, "_forward", one_more)
    monkeypatch.setattr(crosskv.verify, "grad_check", lambda f, params: 0.0)  # skip the slow FD oracle
    results = {r.name: r for r in run_suite("model")}
    assert results["decode_reads_match_table1"].passed
    result = results["decode_stores_match_table1"]
    assert not result.passed
    assert "Vanilla:18 vs 16" in result.detail and "YOCO:10 vs 8" in result.detail
