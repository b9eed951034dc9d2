"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins.

Full-scale pretraining results are out of reach on a desk; these criteria
check the math (identities, equivalences, exact cost accounting, analytic
latency ratios) plus deterministic toy-training behavior instead.

Criteria 01-09 are invariants that `crosskv verify` states; each one names
them in `CRITERIA` and passes when they hold in this session's one run of
their suites. The numerics live in `crosskv.verify` alone.
"""

from crosskv.model import ModelConfig, build_model
from crosskv.training import train
from crosskv.verify import SUITES

CRITERIA = {
    1: ("rope.decomposition_identity",),
    2: ("rope.symmetric_weights_shift_invariant", "rope.asymmetric_weights_break_shift_invariance"),
    3: ("rope.fused_key_linearity", "attention.outputs_shift_invariant"),
    4: ("sharing.equivalent_init_matches_iterative",),
    5: ("costmodel.cost_table_matches_hand_expansion",),
    6: ("costmodel.regime_ratios_device_free",),
    7: ("model.full_model_gradients_match_fd",),
    8: ("model.incremental_decode_matches_recompute",),
    9: ("sharing.persistent_cache_count_is_storage_set",),
}


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def _criterion(n):
    def test(invariant):
        results = [invariant(name) for name in CRITERIA[n]]
        violated = [r.line() for r in results if not r.passed]
        assert not violated, "violated invariants: " + "; ".join(violated)
        _ok(n, "; ".join(r.line() for r in results))

    return test


test_criterion_01_rotation_score_identity = _criterion(1)
test_criterion_02_relative_position_preservation = _criterion(2)
test_criterion_03_fused_key_linearity_and_attention_shift = _criterion(3)
test_criterion_04_equivalent_init_matches_iterative_chain = _criterion(4)
test_criterion_05_cost_table_exact_transcription = _criterion(5)
test_criterion_06_roofline_ratios = _criterion(6)
test_criterion_07_gradients_every_strategy = _criterion(7)
test_criterion_08_incremental_decode_equivalence = _criterion(8)
test_criterion_09_memory_accounting = _criterion(9)


def test_every_criterion_names_existing_invariants(suite_results):
    # a renamed invariant fails here by name, not as a KeyError inside one criterion
    known = {f"{r.suite}.{r.name}" for suite in SUITES for r in suite_results(suite)}
    missing = [name for names in CRITERIA.values() for name in names if name not in known]
    assert not missing, f"criteria name unknown invariants: {missing}"


def test_criterion_10_training_smoke():
    # Config pinned from the first passing calibration run: 4 layers,
    # d_model 64, copy task with 6-token prompts, 500 steps at lr 3e-3.
    def run_training(strategy, steps):
        cfg = ModelConfig(
            n_layers=4, d_model=64, n_query_heads=4, n_kv_heads=4,
            vocab_size=32, max_seq_len=32, strategy=strategy, d_ff=128,
        )
        model = build_model(cfg, seed=7)
        return train(model, "copy", steps, seed=7, batch_size=8, prompt_len=6)

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
