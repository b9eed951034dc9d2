import gc
import warnings
import weakref

import numpy as np
import pytest

import crosskv.training
from crosskv.model import ModelConfig, build_model
from crosskv.training import (
    BETA1,
    BETA2,
    EPS,
    WEIGHT_DECAY,
    TrainingDivergedError,
    _adam_update,
    check_training,
    make_batch,
    train,
)


def tiny_cfg(strategy="Vanilla", **kw):
    base = dict(
        n_layers=2, d_model=16, n_query_heads=2, n_kv_heads=2,
        vocab_size=12, max_seq_len=32, strategy=strategy, d_ff=8,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestTasks:
    def test_copy_batch_structure(self):
        tokens, mask = make_batch("copy", np.random.default_rng(0), 12, 4, prompt_len=5)
        assert tokens.shape == (4, 11)
        assert mask.shape == (4, 10)
        # separator, then the prompt echoed verbatim
        np.testing.assert_array_equal(tokens[:, 5], 11)
        np.testing.assert_array_equal(tokens[:, :5], tokens[:, 6:])
        assert not mask[:, :5].any() and mask[:, 5:].all()

    def test_induction_batch_answers_first_occurrence(self):
        tokens, mask = make_batch("induction-heads", np.random.default_rng(1), 12, 6)
        assert tokens.shape == (6, 18)  # eight pairs, the trigger and its answer
        for row in range(6):
            trigger = tokens[row, 16]
            heads = tokens[row, 0:16:2]
            tails = tokens[row, 1:16:2]
            assert tokens[row, 17] == tails[list(heads).index(trigger)]
        assert mask.sum() == 6  # only the final transition

    def test_corpus_batch_windows(self):
        vocab = 64
        tokens, mask = make_batch("char-corpus", np.random.default_rng(2), vocab, 3)
        assert tokens.shape == (3, 48)
        assert tokens.max() < vocab
        assert mask.all()

    def test_corpus_needs_enough_vocab(self):
        with pytest.raises(ValueError, match=r"char-corpus task needs vocab >= \d+") as err:
            make_batch("char-corpus", np.random.default_rng(3), 4, 2)
        need = int(str(err.value).split(">= ")[1].split(",")[0])  # the corpus charset size
        tokens, _ = make_batch("char-corpus", np.random.default_rng(3), need, 2)
        assert tokens.max() < need
        with pytest.raises(ValueError, match="vocab"):
            make_batch("char-corpus", np.random.default_rng(3), need - 1, 2)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            make_batch("sort", np.random.default_rng(4), 12, 2)


class TestOptimizerParams:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="learning rate"):
            check_training("copy", 12, learning_rate=rate)


class TestTrainLoop:
    @pytest.mark.parametrize("strategy", ["Vanilla", "FusedKV", "DenseFusion"])
    def test_step_graph_is_freed_without_the_cycle_collector(self, strategy, monkeypatch):
        # backward closures capture arrays and shapes, never a recorded Tensor
        # (which points at its tape), so reference counting frees each step's graph
        tapes, alive_at_start = [], []

        class WatchedTape(crosskv.training.Tape):
            def __init__(self):
                super().__init__()
                alive_at_start.append(sum(ref() is not None for ref in tapes))
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(crosskv.training, "Tape", WatchedTape)
        m = build_model(tiny_cfg(strategy, n_layers=4), seed=0)
        gc.collect()
        gc.disable()
        try:
            train(m, "copy", 4, seed=1, batch_size=2, prompt_len=4)
            assert alive_at_start == [0, 0, 0, 0] and tapes[-1]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "task, options",
        [("char-corpus", None), ("induction-heads", {"vocab_size": 8}), ("copy", None)],
    )
    def test_task_vocab_checked_before_any_batch(self, task, options, monkeypatch):
        drawn = []
        monkeypatch.setattr(crosskv.training, "make_batch", lambda *a, **k: drawn.append(a))
        # induction-heads' 8 pairs need 9 distinct tokens
        m = build_model(tiny_cfg(**{"vocab_size": 2 if task == "copy" else 12, **(options or {})}), seed=0)
        with pytest.raises(ValueError, match=f"{task} task needs vocab"):
            train(m, task, 2, seed=1, batch_size=2)
        assert drawn == []

    @pytest.mark.parametrize(
        "task, options, length",
        [("copy", {"prompt_len": 16}, 33), ("induction-heads", {"max_seq_len": 16}, 18), ("char-corpus", None, 48)],
    )
    def test_sequence_length_checked_before_any_batch(self, task, options, length, monkeypatch):
        drawn = []
        monkeypatch.setattr(crosskv.training, "make_batch", lambda *a, **k: drawn.append(a))
        options = {"prompt_len": 8, "max_seq_len": 32, **(options or {})}
        m = build_model(tiny_cfg(vocab_size=64, max_seq_len=options["max_seq_len"]), seed=0)
        want = f"{task} task needs max sequence >= {length}, got {options['max_seq_len']}"
        with pytest.raises(ValueError, match=want):
            train(m, task, 2, seed=1, batch_size=2, prompt_len=options["prompt_len"])
        assert drawn == []

    def test_eval_interval_checked_before_any_batch(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(crosskv.training, "make_batch", lambda *a, **k: drawn.append(a))
        with pytest.raises(ValueError, match="eval_interval"):
            train(build_model(tiny_cfg(), seed=0), "copy", 2, eval_interval=0, prompt_len=4)
        assert drawn == []

    @pytest.mark.parametrize("setting", ["steps", "batch_size", "prompt_len", "eval_interval"])
    @pytest.mark.parametrize("value", [0, 2.5])
    def test_integer_settings_checked_before_any_batch(self, setting, value, monkeypatch):
        drawn = []
        monkeypatch.setattr(crosskv.training, "make_batch", lambda *a, **k: drawn.append(a))
        settings = {"steps": 2, "batch_size": 2, "prompt_len": 4, "eval_interval": 1, setting: value}
        with pytest.raises(ValueError, match=f"{setting} must be an integer >= 1, got {value!r}"):
            train(build_model(tiny_cfg(), seed=0), "copy", **settings)
        assert drawn == []

    def test_fixed_seed_reproduces_loss_curve(self):
        r1 = train(build_model(tiny_cfg(), seed=3), "copy", 12, seed=5, batch_size=2, prompt_len=4)
        r2 = train(build_model(tiny_cfg(), seed=3), "copy", 12, seed=5, batch_size=2, prompt_len=4)
        assert r1.losses == r2.losses  # bit-identical, not just close

    def test_loss_decreases_on_copy(self):
        report = train(build_model(tiny_cfg(), seed=0), "copy", 60, seed=1, batch_size=4, prompt_len=4)
        assert report.losses[-1] < report.losses[0]
        assert all(np.isfinite(report.losses))

    def test_divergence_aborts_with_step_index(self):
        m = build_model(tiny_cfg(init_std=0.5), seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # an overflow is the named error, not a warning
            with pytest.raises(TrainingDivergedError) as exc:
                train(m, "copy", 50, learning_rate=1e6, seed=3, batch_size=2, prompt_len=4)
        assert 1 <= exc.value.step <= 12  # the finite-gradient check stops it early

    def test_grad_norm_records_skip_reconstruction_kv(self):
        m = build_model(tiny_cfg("CLA"), seed=4)
        report = train(m, "copy", 6, seed=5, batch_size=2, eval_interval=3, prompt_len=4)
        layer1, layer2 = report.grad_norms[:2]
        assert (layer1["step"], layer1["layer"], layer2["layer"]) == (0, 1, 2)
        assert all(float(layer1[f"{x}_norm"]) >= 0 for x in "qkv") and float(layer2["q_norm"]) >= 0
        assert layer2["k_norm"] == layer2["v_norm"] == ""  # layer 2 reuses layer 1's cache
        steps = [row["step"] for row in report.grad_norms]
        assert steps == [0, 0, 3, 3, 5, 5]

    def test_heatmap_snapshot_for_fusion_strategies(self):
        m = build_model(tiny_cfg("Lite-Learnable"), seed=6)
        report = train(m, "copy", 4, seed=7, batch_size=2, prompt_len=4)
        assert {row["source"] for row in report.fusion_weights if row["kind"] == "key"} == {1}
        report2 = train(build_model(tiny_cfg(), seed=6), "copy", 4, seed=7, batch_size=2, prompt_len=4)
        assert report2.fusion_weights is None

    def test_single_precision_training_runs(self):
        m = build_model(tiny_cfg(precision="single"), seed=8)
        report = train(m, "copy", 8, seed=9, batch_size=2, prompt_len=4)
        assert all(np.isfinite(report.losses))
        assert next(iter(m.params.values())).dtype == np.float32

    def test_fusion_weights_update(self):
        m = build_model(tiny_cfg("Lite-Learnable"), seed=10)
        before = m.params["fusion.key.2.1"]
        train(m, "copy", 10, seed=11, batch_size=2, prompt_len=4)
        after = m.params["fusion.key.2.1"]
        assert not np.array_equal(before.numpy(), after.numpy())
        assert after.shape == before.shape == (m.cfg.head_dim // 2,)  # still the free values: symmetric by construction


def closed_form_adam(params: dict, grads: dict, moments: dict, t: int, lr: float, dtype) -> dict:
    """Adam as a closed form over fresh arrays: the reference the in-place update must equal bit for bit."""
    out = {}
    for name, p in params.items():
        g = grads[name].astype(np.float64)
        m_prev, v_prev = moments.get(name, (0.0, 0.0))
        m = BETA1 * m_prev + (1 - BETA1) * g
        v = BETA2 * v_prev + (1 - BETA2) * (g * g)
        moments[name] = m, v
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        new = p.astype(np.float64) - lr * m_hat / (np.sqrt(v_hat) + EPS)
        if p.ndim >= 2:
            new -= lr * WEIGHT_DECAY * p.astype(np.float64)
        out[name] = new.astype(dtype)
    return out


class TestAdamUpdate:
    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("strategy", ["Vanilla", "FusedKV", "DenseFusion"])
    def test_in_place_update_equals_the_closed_form_bit_for_bit(self, strategy, precision):
        m = build_model(tiny_cfg(strategy, n_layers=4, precision=precision), seed=12)
        if strategy == "DenseFusion":
            assert any(p.ndim == 0 for _, p in m.parameters())  # its scalar fusion weights
        ref, ref_moments, moments = {n: p.numpy() for n, p in m.parameters()}, {}, {}
        rng = np.random.default_rng(13)
        for t in range(1, 6):
            grads = {}
            for n, p in m.parameters():
                g = np.asarray(rng.standard_normal(p.shape) * 0.1, dtype=m.cfg.dtype)
                grads[n] = g[()] if g.ndim == 0 else g  # a clipped 0-d gradient is a numpy scalar
            _adam_update(m, grads, moments, t, 3e-3)
            ref = closed_form_adam(ref, grads, ref_moments, t, 3e-3, m.cfg.dtype)
            for n, p in m.parameters():
                assert p.dtype == ref[n].dtype and p.shape == ref[n].shape
                assert p.numpy().tobytes() == ref[n].tobytes(), f"step {t}: {n}"

    def test_state_dict_taken_before_a_step_is_unchanged(self):
        # the benchmark's training client keeps these arrays, uncopied, to replay its first step
        m = build_model(tiny_cfg("DenseFusion", n_layers=4), seed=14)
        before = m.state_dict()
        saved = {n: a.copy() for n, a in before.items()}
        train(m, "copy", 2, seed=15, batch_size=2, prompt_len=4)
        for n, a in saved.items():
            np.testing.assert_array_equal(before[n], a)
        assert all(not np.array_equal(m.params[n].numpy(), a) for n, a in saved.items() if n.startswith("layer"))

    def test_overflowing_update_raises_naming_the_step(self):
        m = build_model(tiny_cfg(precision="single"), seed=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the named error, not a warning
            with pytest.raises(TrainingDivergedError, match="at step 0") as exc:
                train(m, "copy", 3, learning_rate=1e39, seed=17, batch_size=2, prompt_len=4)
        assert exc.value.step == 0
        assert "adam update of" in str(exc.value.__context__)  # float32 overflow, not the forward
