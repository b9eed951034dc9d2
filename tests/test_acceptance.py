"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margin. Tolerances are stated inline and fixed.

Full-scale pretraining results are out of reach on a desk; these criteria
check the math (identities, equivalences, exact cost accounting, analytic
latency ratios) plus deterministic toy-training behavior instead.
"""

import numpy as np
import pytest

from crosskv.attention import AttentionConfig, attend
from crosskv.costmodel import (
    DEVICE_PRESETS,
    WorkloadSpec,
    fusion_decode_overhead_fraction,
    roofline_latency,
    table1_costs,
)
from crosskv.model import ModelConfig, build_model
from crosskv.rope import (
    PairSymmetricWeight,
    RopeSchedule,
    apply_rope,
    fused_key_score,
    score_decomposed,
    score_direct,
)
from crosskv.sharing import (
    STRATEGY_NAMES,
    LayerCache,
    folded_cache,
    init_equivalent,
    init_normal,
    iterative_reconstruct,
    plan_for_strategy,
    reconstruct,
    sample_iterative_weights,
)
from crosskv.tensor import Tensor, grad_check
from crosskv.training import train
from crosskv.verify import COUNTEREXAMPLE, toy_config

SCHED = RopeSchedule(8)


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_rotation_score_identity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        q, k, w = rng.standard_normal(8), rng.standard_normal(8), rng.standard_normal(8)
        m, n = (int(v) for v in rng.integers(0, 1000, 2))
        worst = max(worst, abs(score_direct(q, k, m, n, w, SCHED) - score_decomposed(q, k, m, n, w, SCHED)))
    assert worst < 1e-10
    _ok(1, f"direct vs decomposed score over 1000 draws, max |diff| = {worst:.2e} < 1e-10")


def test_criterion_02_relative_position_preservation():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        w = np.repeat(rng.standard_normal(4), 2)
        m, n, d = int(rng.integers(0, 200)), int(rng.integers(0, 200)), int(rng.integers(0, 100))
        worst = max(worst, abs(score_direct(q, k, m, n, w, SCHED) - score_direct(q, k, m + d, n + d, w, SCHED)))
    assert worst < 1e-10

    ce = COUNTEREXAMPLE
    w_asym = np.zeros(8)
    w_asym[0] = 1.0
    deviation = abs(
        score_direct(ce["q"], ce["k"], ce["m"], ce["n"], w_asym, SCHED)
        - score_direct(ce["q"], ce["k"], ce["m"] + ce["shift"], ce["n"] + ce["shift"], w_asym, SCHED)
    )
    assert deviation > 1e-3
    _ok(2, f"symmetric shift dev {worst:.2e} < 1e-10; pinned asymmetric counterexample dev {deviation:.3f} > 1e-3")


def test_criterion_03_fused_key_linearity_and_attention_shift():
    rng = np.random.default_rng(1003)
    worst_lin = 0.0
    for _ in range(300):
        n_src = int(rng.integers(1, 4))
        q = rng.standard_normal(8)
        keys = [rng.standard_normal(8) for _ in range(n_src)]
        weights = [PairSymmetricWeight(Tensor(rng.standard_normal(4))) for _ in range(n_src)]
        m, n = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        fused = fused_key_score(q, keys, (m, n), weights, SCHED)
        summed = sum(
            score_direct(q, keys[i], m, n, np.repeat(weights[i].free.numpy(), 2), SCHED)
            for i in range(n_src)
        )
        worst_lin = max(worst_lin, abs(fused - summed))
    assert worst_lin < 1e-12

    # end-to-end: full attention outputs unchanged under a joint shift
    plan = plan_for_strategy("FusedKV", 4, 2)
    weights = init_normal(plan, 8, 77)
    cfg = AttentionConfig(2, 2, 8)
    raw_q = rng.standard_normal((2, 6, 8))
    raw = {j: (rng.standard_normal((2, 6, 8)), rng.standard_normal((2, 6, 8))) for j in (1, 2)}

    def outputs(shift):
        pos = np.arange(6) + shift
        srcs = {j: LayerCache(apply_rope(Tensor(raw[j][0]), pos, SCHED), Tensor(raw[j][1]), j) for j in (1, 2)}
        q = apply_rope(Tensor(raw_q), pos, SCHED)
        return attend(q, folded_cache(plan, weights, srcs, 3), cfg, pos, pos).numpy()

    worst_shift = np.abs(outputs(0) - outputs(11)).max()
    assert worst_shift < 1e-10
    _ok(3, f"linearity dev {worst_lin:.2e} < 1e-12; attention shift dev {worst_shift:.2e} < 1e-10")


def test_criterion_04_equivalent_init_matches_iterative_chain():
    plan = plan_for_strategy("FusedKV", 6, 3)
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(100):
        aux = sample_iterative_weights(plan, 8, rng)
        weights = init_equivalent(plan, aux)
        stored = {
            j: LayerCache(Tensor(rng.standard_normal((2, 4, 8))), Tensor(rng.standard_normal((2, 4, 8))), j)
            for j in (1, 2, 3)
        }
        chain = iterative_reconstruct(plan, aux, stored)
        for i in plan.reconstruction_layers:
            k, v = reconstruct(plan, weights, stored, i)
            worst = max(
                worst,
                float(np.abs(k.numpy() - chain[i][0].numpy()).max()),
                float(np.abs(v.numpy() - chain[i][1].numpy()).max()),
            )
    assert worst < 1e-12
    _ok(4, f"100 random draws, collapsed vs chain reconstruction max dev {worst:.2e} < 1e-12")


def test_criterion_05_cost_table_exact_transcription():
    L, S, D, Hq, Hkv = 24, 8192, 128, 16, 16
    w = WorkloadSpec(L, S, D, Hq, Hkv)
    HqD, HkvD = Hq * D, Hkv * D
    # hand expansion, written independently of the implementation
    expected = {
        "MHA": (
            L * S * Hq * D * (4 * S + 4 * HqD + 4 * HkvD),
            L * Hq * D * (4 * S + 4 * HqD + 4 * HkvD),
            2 * L * S * HkvD,
            2 * L * S * HkvD,
        ),
        "YOCO": (
            L * S * Hq * D * (2 * S + 2 * HqD + 2 * HkvD + 2) + 2 * L * HqD * HqD,
            L * Hq * D * (4 * S + 4 * HqD + 2 * HkvD),
            L * S * HkvD,
            2 * L * S * HkvD,
        ),
        "FusedKV-Lite": (
            L * S * Hq * D * (2 * S + 2 * HqD + 2 * HkvD + 2) + 2 * L * HqD * HqD,
            L * Hq * D * (4 * S + 4 * HqD + 2 * HkvD),
            L * S * HkvD,
            2 * L * S * HkvD,
        ),
        "FusedKV": (
            L * S * Hq * D * (2 * S + 2 * HqD + 2 * HkvD + 2 + 3 * Hkv // Hq) + 2 * L * HqD * HqD,
            L * Hq * D * (4 * S + 4 * HqD + 2 * HkvD + 3 * S * Hkv // Hq),
            L * S * HkvD,
            3 * L * S * HkvD,
        ),
    }
    for method, cells in expected.items():
        got = table1_costs(method, w)
        assert (got.prefill_flops, got.decode_flops, got.cache_mem_elements, got.cache_io_elements) == tuple(
            float(c) for c in cells
        ), method
    fused, base = table1_costs("FusedKV", w), table1_costs("MHA", w)
    assert fused.cache_mem_elements / base.cache_mem_elements == 0.5
    assert fused.cache_io_elements / base.cache_io_elements == 1.5
    _ok(5, "all 16 cells match hand expansion exactly; mem ratio 0.5 and I/O ratio 1.5 exact")


def test_criterion_06_roofline_ratios():
    w = WorkloadSpec(24, 32768, 128, 16, 16)
    dev = DEVICE_PRESETS["hbm-accelerator"]
    ttft_ratio = (
        roofline_latency(table1_costs("FusedKV", w), dev).ttft_s
        / roofline_latency(table1_costs("MHA", w), dev).ttft_s
    )
    assert 0.45 <= ttft_ratio <= 0.55

    fused = roofline_latency(table1_costs("FusedKV", w), dev, weight_bytes=0.0)
    base = roofline_latency(table1_costs("MHA", w), dev, weight_bytes=0.0)
    assert fused.tpot_bound == "memory" and base.tpot_bound == "memory"
    tpot_ratio = fused.tpot_s / base.tpot_s
    assert 1.45 <= tpot_ratio <= 1.55

    w_cb = WorkloadSpec(24, 32768, 128, 128, 2)
    dev_cb = DEVICE_PRESETS["compute-heavy"]
    fused_cb = roofline_latency(table1_costs("FusedKV", w_cb), dev_cb)
    base_cb = roofline_latency(table1_costs("MHA", w_cb), dev_cb)
    assert fused_cb.tpot_bound == "compute" and base_cb.tpot_bound == "compute"
    cb_ratio = fused_cb.tpot_s / base_cb.tpot_s
    assert cb_ratio <= 1 + 3 / 256 + 0.01
    assert fusion_decode_overhead_fraction(w_cb) == 3 / 256
    _ok(
        6,
        f"TTFT ratio {ttft_ratio:.4f} in [0.45, 0.55]; memory-bound TPOT ratio {tpot_ratio:.4f} "
        f"in [1.45, 1.55]; compute-bound ratio {cb_ratio:.5f} <= {1 + 3 / 256 + 0.01:.5f}",
    )


def test_criterion_07_gradients_every_strategy():
    rng = np.random.default_rng(1007)
    margins = []
    for strategy in STRATEGY_NAMES:
        model = build_model(toy_config(strategy), seed=42)
        tokens = rng.integers(0, 7, size=(1, 5))
        err = grad_check(lambda: model.forward_loss(tokens), [p for _, p in model.parameters()])
        assert err < 1e-4, f"{strategy}: rel err {err:.2e}"
        margins.append(f"{strategy}={err:.1e}")
    _ok(7, f"full-model gradient vs central differences < 1e-4 for all strategies: {', '.join(margins)}")


def test_criterion_08_incremental_decode_equivalence():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for strategy in STRATEGY_NAMES:
        cfg = ModelConfig(
            n_layers=4,
            d_model=32,
            n_query_heads=4,
            n_kv_heads=2 if strategy == "GQA" else 4,
            vocab_size=16,
            max_seq_len=64,
            strategy=strategy,
        )
        model = build_model(cfg, seed=8)
        prompt = rng.integers(0, 16, size=32)
        res = model.decode(prompt, 16)
        assert res.tokens.size == 48
        full = model.forward_logits(res.tokens).numpy()[0]
        dev = float(np.abs(full[: len(res.logits)] - res.logits).max())
        assert dev < 1e-10, f"{strategy}: dev {dev:.2e}"
        worst = max(worst, dev)
    _ok(8, f"cached decode logits vs full recompute, 32+16 tokens, all strategies: max dev {worst:.2e} < 1e-10")


def test_criterion_09_memory_accounting():
    counts = []
    for strategy in STRATEGY_NAMES:
        cfg = ModelConfig(
            n_layers=8,
            d_model=32,
            n_query_heads=4,
            n_kv_heads=2 if strategy == "GQA" else 4,
            vocab_size=16,
            max_seq_len=32,
            strategy=strategy,
        )
        model = build_model(cfg, seed=9)
        res = model.decode(np.arange(8) % 16, 8)
        expected = len(model.plan.storage_layers)
        assert res.peak_cache_layers == expected, strategy
        if strategy not in ("Vanilla", "GQA", "CLA"):
            assert res.peak_cache_layers == 4  # L/2 at the default middle
        elements = 2 * expected * cfg.n_kv_heads * res.cache_length * cfg.head_dim
        assert res.peak_cache_elements == elements, strategy
        counts.append(f"{strategy}={res.peak_cache_layers}")
    _ok(9, f"persistent caches equal the storage set for all strategies: {', '.join(counts)}")


def test_criterion_10_training_smoke():
    # Config pinned from the first passing calibration run: 4 layers,
    # d_model 64, copy task with 6-token prompts, 500 steps at lr 3e-3.
    def run_training(strategy, steps):
        cfg = ModelConfig(
            n_layers=4, d_model=64, n_query_heads=4, n_kv_heads=4,
            vocab_size=32, max_seq_len=32, strategy=strategy, d_ff=128,
        )
        model = build_model(cfg, seed=7)
        return train(model, "copy", steps, seed=7, batch_size=8, task_options={"prompt_len": 6})

    ratios = {}
    for strategy in ("Vanilla", "FusedKV-Lite"):
        report = run_training(strategy, 500)
        ratio = report.final_loss / report.losses[0]
        assert ratio < 0.2, f"{strategy}: final/initial = {ratio:.3f}"
        ratios[strategy] = ratio

    # determinism: an identical short run reproduces the curve bit for bit
    a = run_training("FusedKV-Lite", 40)
    b = run_training("FusedKV-Lite", 40)
    assert a.losses == b.losses
    _ok(
        10,
        "copy task reaches "
        + ", ".join(f"{k}: {v:.4f}x initial" for k, v in ratios.items())
        + " (< 0.2) in 500 steps; curves bit-identical under the fixed seed",
    )
