import importlib
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import crosskv.attention
import crosskv.model
import crosskv.rope
import crosskv.sharing
import crosskv.tensor
import crosskv.training
from crosskv.checkpoint import load_checkpoint, save_checkpoint
from crosskv.costmodel import WorkloadSpec, table1_costs
from crosskv.model import ModelConfig, _merge_project, _project_heads, build_model, fusion_weight_rows
from crosskv.sharing import STRATEGY_NAMES
from crosskv.tensor import (
    DimensionError, EvaluationError, Tape, Tensor, _active_tape, add, grad_check, matmul, mul, tsum,
)
from crosskv.verify import _expected_parameter_count, toy_config


def small_cfg(strategy="Vanilla", **kw):
    base = dict(
        n_layers=4, d_model=32, n_query_heads=4, n_kv_heads=4,
        vocab_size=16, max_seq_len=48, strategy=strategy, d_ff=16,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_head_dim_and_defaults(self):
        cfg = ModelConfig()
        assert cfg.head_dim == 8
        assert cfg.mlp_width == 128
        assert cfg.rope_base == 10000.0
        assert cfg.init_std == 0.02

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(strategy="nope")

    def test_odd_head_dim_rejected(self):
        with pytest.raises(DimensionError):
            ModelConfig(d_model=24, n_query_heads=8)  # head_dim 3

    @pytest.mark.parametrize("field", ["n_layers", "d_model", "n_query_heads", "n_kv_heads", "max_seq_len", "d_ff"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_sizes_below_one_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: value})

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rope_base": 0.5}, "rope base"),
            ({"rope_base": 1.0}, "rope base"),
            ({"rope_base": float("nan")}, "rope base"),
            ({"rope_base": float("inf")}, "rope base"),
            ({"init_std": float("nan")}, "init_std"),
            ({"init_std": float("inf")}, "init_std"),
        ],
        ids=["rope-base-below-one", "rope-base-one", "rope-base-nan", "rope-base-inf", "init-std-nan",
             "init-std-inf"],
    )
    def test_rope_base_and_init_std_checked(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**fields)

    @pytest.mark.parametrize("value", [2.5, np.float64(8), 0, 1])
    def test_vocab_size_is_an_integer_of_at_least_two(self, value):
        # a float vocab used to pass here and fail later in build_model
        with pytest.raises(ValueError, match="vocab_size must be"):
            ModelConfig(vocab_size=value)

    def test_middle_range_checked(self):
        with pytest.raises(ValueError):
            ModelConfig(middle=8)

    @pytest.mark.parametrize("value", [2.5, 0])
    def test_middle_is_a_positive_integer(self, value):
        # a float middle used to reach `range` in the plan builder as a raw TypeError
        with pytest.raises(ValueError, match="middle must be a positive integer"):
            ModelConfig(middle=value, strategy="YOCO")

    def test_query_heads_must_be_a_multiple_of_kv_heads(self):
        with pytest.raises(DimensionError, match="6 query heads not divisible by 4 kv heads"):
            ModelConfig(d_model=48, n_query_heads=6, n_kv_heads=4)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"strategy": "YOCO", "n_layers": 3}, "even layer count"),
            ({"strategy": "value9key1"}, "value source 9"),
            ({"strategy": "DenseFusion", "init_scheme": "equivalent"}, "does not fuse sources"),
        ],
        ids=["odd-layers-default-middle", "ablation-source-out-of-range", "equivalent-init-not-two-anchor"],
    )
    def test_plan_that_build_model_rejects_is_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**fields)


class TestBuildModel:
    def test_vanilla_parameter_count_closed_form(self):
        cfg = small_cfg()
        m = build_model(cfg, seed=0)
        # independent closed form: embeddings + head + final gain, per layer
        # two gains + q/k/v/o projections + gated mlp
        d, h, v = 32, 16, 16
        per_layer = 2 * d + d * d + d * d + d * d + d * d + d * 2 * h + h * d
        want = v * d + d * v + d + 4 * per_layer
        assert m.parameter_count() == want
        assert want == _expected_parameter_count(cfg, m.plan)

    def test_fusedkv_structure(self):
        m = build_model(small_cfg("FusedKV", middle=2), seed=0)
        for i in (3, 4):
            assert f"layer{i}.w_k" not in m.params
            assert f"layer{i}.w_v" not in m.params
            assert f"layer{i}.w_q" in m.params
        # 2x2 fusion weight tables per cache kind, stored last: keys, then values
        slots = ["3.1", "3.2", "4.1", "4.2"]
        names = [name for name, _ in m.parameters()]
        assert names[-8:] == [f"fusion.key.{s}" for s in slots] + [f"fusion.value.{s}" for s in slots]
        assert m.params["fusion.key.3.1"].shape == (4,)  # D/2 free values
        assert m.params["fusion.value.3.1"].shape == (8,)

    def test_fusion_names_in_numeric_order(self):
        # L=20, middle 10: fusion.key.11.2 precedes fusion.key.11.10, as in
        # checkpoints and in the sum Adam clips by
        m = build_model(small_cfg("DenseFusion", n_layers=20, middle=10), seed=0)
        slots = [f"{i}.{j}" for i in range(11, 21) for j in range(1, 11)]
        want = [f"fusion.key.{s}" for s in slots] + [f"fusion.value.{s}" for s in slots]
        assert [name for name, _ in m.parameters() if name.startswith("fusion.")] == want
        assert list(m.state_dict())[-len(want):] == want

    def test_same_seed_bit_identical(self):
        a = build_model(small_cfg("FusedKV"), seed=9)
        b = build_model(small_cfg("FusedKV"), seed=9)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(ta.numpy(), tb.numpy())

    def test_equivalent_scheme_needs_two_anchor_plan(self):
        # Lite-Learnable has fusion weights but single-source rules
        with pytest.raises(ValueError):
            build_model(small_cfg("Lite-Learnable", init_scheme="equivalent"), seed=0)
        m = build_model(small_cfg("FusedKV", init_scheme="equivalent"), seed=0)
        assert "fusion.key.3.1" in m.params  # built fine
        # weightless plans ignore the scheme entirely
        build_model(small_cfg("FusedKV-Lite", init_scheme="equivalent"), seed=0)

    def test_dense_fusion_equivalent_init_draws_scalars(self):
        # at L=4 DenseFusion's layers {3, 4} are two-anchor shaped; its chain
        # form must draw scalars, as its normal init does
        cfg = ModelConfig(strategy="DenseFusion", n_layers=4, d_model=16, n_query_heads=2, n_kv_heads=2,
                          init_scheme="equivalent")
        m = build_model(cfg, 0)
        fusion = [t for name, t in m.parameters() if name.startswith("fusion.")]
        assert len(fusion) == 8 and all(t.shape == () for t in fusion)
        assert m.parameter_count() == _expected_parameter_count(cfg, m.plan)

    def test_single_precision_parameters(self):
        m = build_model(small_cfg(precision="single"), seed=0)
        assert all(t.dtype == np.float32 for _, t in m.parameters())


class TestForwardLoss:
    def test_untrained_loss_near_log_vocab(self):
        cfg = ModelConfig(n_layers=4, d_model=64, n_query_heads=8, n_kv_heads=8,
                          vocab_size=64, max_seq_len=64, strategy="Vanilla")
        m = build_model(cfg, seed=3)
        tokens = np.random.default_rng(0).integers(0, 64, size=(4, 24))
        loss = m.forward_loss(tokens).item()
        assert abs(loss - np.log(64.0)) < 0.15 * np.log(64.0)

    def test_single_token_sequence_rejected(self):
        m = build_model(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="two tokens"):
            m.forward_loss(np.array([[3]]))

    def test_oov_token_rejected(self):
        m = build_model(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="out of range"):
            m.forward_loss(np.array([[1, 99]]))

    def test_empty_batch_rejected(self):
        m = build_model(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="empty"):
            m.forward_loss(np.zeros((0, 4), dtype=int))

    def test_too_long_sequence_rejected(self):
        m = build_model(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="exceeds max"):
            m.forward_loss(np.zeros((1, 49), dtype=int))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="longdouble is float64 here")
    def test_fd_check_of_one_value_projection_keeps_extended_precision(self):
        # grad_check swaps only layer3.w_v for a longdouble copy: its value rows must
        # reach the cache buffer in longdouble, not rounded to the float64 keys (8.2e-8)
        m = build_model(toy_config("Vanilla"), seed=2)
        tokens = np.random.default_rng(51).integers(0, 7, size=(1, 5))
        assert grad_check(lambda: m.forward_loss(tokens), [m.params["layer3.w_v"]]) < 1e-9


class TestDecode:
    def test_half_cache_footprint_vs_vanilla(self):
        prompt = np.arange(8) % 16
        vanilla = build_model(small_cfg("Vanilla"), seed=2).decode(prompt, 8)
        fused = build_model(small_cfg("FusedKV"), seed=2).decode(prompt, 8)
        assert fused.peak_cache_elements * 2 == vanilla.peak_cache_elements
        assert fused.peak_cache_layers * 2 == vanilla.peak_cache_layers

    def test_incremental_matches_full_recompute(self):
        m = build_model(small_cfg("FusedKV-Lite"), seed=4)
        prompt = np.random.default_rng(5).integers(0, 16, size=12)
        res = m.decode(prompt, 8)
        full = m.forward_logits(res.tokens).numpy()[0]
        assert np.abs(full[: len(res.logits)] - res.logits).max() < 1e-10

    @pytest.mark.parametrize("strategy", ["FusedKV", "DenseFusion", "FusedKV-Lite", "YOCO"])
    def test_grouped_reconstruction_matches_full_recompute(self, strategy):
        m = build_model(small_cfg(strategy, n_kv_heads=2), seed=9)
        prompt = np.random.default_rng(10).integers(0, 16, size=12)
        res = m.decode(prompt, 8)
        full = m.forward_logits(res.tokens).numpy()[0]
        assert np.abs(full[: len(res.logits)] - res.logits).max() <= 1e-10

    def test_fused_decode_step_materializes_only_the_appends(self):
        # A tape-free pass starts each storage cache in its buffer, so every
        # step, the first included, writes its new rows in place: it
        # allocates less than one storage layer's K+V, where re-copying every
        # storage cache would allocate several.
        for strategy, n_kv_heads in [("Vanilla", 4), ("GQA", 2), ("FusedKV", 4), ("DenseFusion", 4)]:
            m = build_model(small_cfg(strategy, d_model=64, n_kv_heads=n_kv_heads, max_seq_len=260), seed=11)
            caches = {}
            m._forward((np.arange(256) % 16)[None, :], np.arange(256), caches)
            layer_bytes = next(c.keys.data.nbytes + c.values.data.nbytes for c in caches.values())
            for pos in (256, 257, 258):
                tracemalloc.start()
                try:
                    before, _ = tracemalloc.get_traced_memory()
                    m._forward(np.array([[3]]), np.array([pos]), caches)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak - before < layer_bytes, (strategy, pos, peak - before, layer_bytes)

    @pytest.mark.parametrize("n_kv_heads", [4, 2])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_full_capacity_decode_matches_full_recompute(self, strategy, n_kv_heads):
        # prompt + new tokens == max_seq_len: the cache buffers fill to the end
        m = build_model(small_cfg(strategy, n_kv_heads=n_kv_heads, max_seq_len=24), seed=17)
        prompt = np.random.default_rng(18).integers(0, 16, size=10)
        res = m.decode(prompt, 14)
        assert len(res.tokens) == m.cfg.max_seq_len
        full = m.forward_logits(res.tokens).numpy()[0]
        assert np.abs(full[: len(res.logits)] - res.logits).max() <= 1e-10

    @pytest.mark.parametrize("new_tokens", [2.5, "3", None])
    def test_non_integer_new_tokens_rejected(self, new_tokens):
        m = build_model(small_cfg(), seed=0)
        with pytest.raises(TypeError, match="new_tokens"):
            m.decode(np.arange(4), new_tokens)

    @pytest.mark.parametrize("n_kv_heads", [4, 2])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_prefill_is_forward_logits_bit_for_bit(self, strategy, n_kv_heads):
        m = build_model(small_cfg(strategy, n_kv_heads=n_kv_heads), seed=14)
        prompt = np.random.default_rng(15).integers(0, 16, size=9)
        res = m.decode(prompt, 0)
        assert np.array_equal(res.logits, m.forward_logits(prompt).numpy()[0])

    @pytest.mark.parametrize("chunk", [1, 4, 5])
    @pytest.mark.parametrize("n_kv_heads", [4, 2])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_chunked_prefill_matches_whole_prompt(self, strategy, n_kv_heads, chunk, monkeypatch):
        # 12 prompt rows in chunks of 1, 4 (divides) and 5 (does not), then decode steps
        monkeypatch.setattr(crosskv.model, "PREFILL_CHUNK", chunk)
        seen = []
        layers = crosskv.model.DecoderModel._layers

        def spy(model, x, positions, caches, weights):
            seen.append(caches)
            return layers(model, x, positions, caches, weights)

        monkeypatch.setattr(crosskv.model.DecoderModel, "_layers", spy)
        m = build_model(small_cfg(strategy, n_kv_heads=n_kv_heads), seed=21)
        prompt = np.random.default_rng(22).integers(0, 16, size=12)
        res = m.decode(prompt, 4)
        stored = seen[0]  # decode's one cache dict, passed to every chunk and step
        full = m.forward_logits(res.tokens).numpy()[0]
        assert np.abs(full[: len(res.logits)] - res.logits).max() <= 1e-10
        whole: dict = {}
        m.forward_logits(prompt, caches_out=whole)
        assert set(stored) == set(whole) == set(m.plan.storage_layers)
        for i, want in whole.items():
            for got, ref in ((stored[i].keys, want.keys), (stored[i].values, want.values)):
                assert np.abs(got.numpy()[..., :12, :] - ref.numpy()).max() <= 1e-10

    @pytest.mark.parametrize("strategy", ["Vanilla", "FusedKV"])
    def test_chunked_prefill_never_holds_the_whole_score_tensor(self, strategy, monkeypatch):
        # one [H, T, T] float64 score tensor is 2 MiB here; chunks of 16 rows
        # attend to at most T keys, so their scores are [H, 16, T]
        m = build_model(small_cfg(strategy, max_seq_len=256), seed=23)
        prompt = np.random.default_rng(24).integers(0, 16, size=256)
        score_bytes = m.cfg.n_query_heads * 256 * 256 * 8
        peaks = {}
        for chunk in (16, 256):
            monkeypatch.setattr(crosskv.model, "PREFILL_CHUNK", chunk)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                m.decode(prompt, 0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[chunk] = peak - before
        assert peaks[16] < score_bytes <= peaks[256], peaks

    @pytest.mark.parametrize("strategy", ["FusedKV", "DenseFusion"])
    def test_one_token_prompt_matches_full_recompute(self, strategy):
        # the one-row prefill reads the stored caches through folded weights
        m = build_model(small_cfg(strategy), seed=16)
        res = m.decode(np.array([5]), 10)
        full = m.forward_logits(res.tokens).numpy()[0]
        assert np.abs(full[: len(res.logits)] - res.logits).max() <= 1e-10

    @pytest.mark.parametrize("strategy", ["FusedKV", "DenseFusion"])
    def test_two_threads_decode_one_model_as_in_sequence(self, strategy):
        # two prefill chunks, then decode steps that append to each thread's own caches
        m = build_model(small_cfg(strategy, max_seq_len=192), seed=19)
        rng = np.random.default_rng(20)
        prompts = [rng.integers(0, 16, size=150) for _ in range(2)]
        sequential = [m.decode(p, 40) for p in prompts]
        concurrent = [None, None]
        start = threading.Barrier(2)

        def run(k):
            start.wait()
            concurrent[k] = m.decode(prompts[k], 40)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for seq, con in zip(sequential, concurrent):
            assert np.array_equal(con.tokens, seq.tokens)
            assert np.array_equal(con.logits, seq.logits)

    def test_zero_new_tokens_only_prefills(self):
        m = build_model(small_cfg(), seed=6)
        prompt = np.arange(5) % 16
        res = m.decode(prompt, 0)
        assert res.tokens.tolist() == prompt.tolist()
        assert res.logits.shape == (5, 16)
        assert res.cache_length == 5

    def test_greedy_tokens_are_argmax(self):
        m = build_model(small_cfg(), seed=7)
        res = m.decode(np.arange(6) % 16, 3)
        assert res.tokens[6] == int(np.argmax(res.logits[5]))

    def test_overflow_rejected(self):
        m = build_model(small_cfg(), seed=0)
        with pytest.raises(ValueError, match="exceeds max"):
            m.decode(np.arange(40) % 16, 10)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_passes_never_call_reconstruct(self, strategy, monkeypatch):
        # reconstruct is the oracle: the kernel sums or folds the terms itself
        def oracle_called(*args):
            raise AssertionError("sharing.reconstruct called on a model pass")

        for module in (crosskv.sharing, crosskv.model):
            monkeypatch.setattr(module, "reconstruct", oracle_called)
        m = build_model(small_cfg(strategy), seed=19)
        tokens = np.random.default_rng(20).integers(0, 16, size=(2, 7))
        m.forward_logits(tokens)
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            tape.backward(m.forward_loss(tokens))
        m.decode(tokens[0], 4)

    @pytest.mark.parametrize("strategy", ["FusedKV", "DenseFusion"])
    def test_weighted_terms_reach_the_attention_op_only_tape_free(self, strategy, monkeypatch):
        # a recording pass sums the fusion terms first; a decode step folds them
        calls = []
        op = crosskv.attention._attention

        def spy(q, key_terms, value_terms):
            weighted = any(w is not None for _, w in (*key_terms, *value_terms))
            calls.append((weighted, _active_tape() is not None))
            return op(q, key_terms, value_terms)

        monkeypatch.setattr(crosskv.attention, "_attention", spy)
        m = build_model(small_cfg(strategy), seed=21)
        tokens = np.random.default_rng(22).integers(0, 16, size=(2, 7))
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            tape.backward(m.forward_loss(tokens))
            m.forward_logits(tokens[:, :1])  # one row, recording
        assert calls and all(taped and not weighted for weighted, taped in calls)
        calls.clear()
        m.decode(tokens[0], 4)
        assert any(weighted for weighted, _ in calls) and not any(taped for _, taped in calls)


def overflowing(m, name="layer3.w_in"):
    """`m` with every entry of parameter `name` at 1e308: its matmul overflows."""
    m.params[name] = Tensor(np.full(m.params[name].shape, 1e308))
    return m


class TestOneParameterSet:
    """A pass reads the model's parameter set once, and an update swaps in a
    whole new set, so a pass never mixes weights of two updates even while
    another thread trains the model."""

    @staticmethod
    def generation_counter(m) -> list:
        """From now on every read of `m.params` hands out the next generation
        of the parameter set, as if an update landed right after each read.
        Returns the list of generations handed out."""
        handed, params = [], m.__dict__.pop("params")

        def read(self):
            handed.append(len(handed))
            return dict(params)

        m.__class__ = type("Updated", (type(m),), {"params": property(read)})
        return handed

    @pytest.mark.parametrize("strategy", ["Vanilla", "FusedKV", "DenseFusion"])
    def test_each_pass_reads_one_generation(self, strategy):
        m = build_model(small_cfg(strategy), seed=40)
        prompt = np.arange(9) % 16
        want = m.decode(prompt, 6)
        handed = self.generation_counter(m)
        got = m.decode(prompt, 6)  # the prefill and five steps
        assert handed == [0]
        m.forward_logits(prompt)
        assert handed == [0, 1]
        assert np.array_equal(got.logits, want.logits)

    def test_adam_update_swaps_in_a_new_set(self):
        m = build_model(small_cfg("FusedKV"), seed=41)
        before = m.params
        kept = dict(before)
        grads = {name: np.ones(p.shape) for name, p in kept.items()}
        crosskv.training._adam_update(m, grads, {}, 1, 1e-3)
        assert m.params is not before and list(m.params) == list(kept)
        assert all(before[name] is p for name, p in kept.items())  # a pass holding the old set keeps it whole

    def test_load_state_dict_swaps_in_a_new_set(self):
        m = build_model(small_cfg("DenseFusion"), seed=42)
        before = m.params
        kept = dict(before)
        m.load_state_dict(build_model(small_cfg("DenseFusion"), seed=43).state_dict())
        assert m.params is not before and list(m.params) == list(kept)
        assert all(before[name] is p for name, p in kept.items())


class TestTable1Reads:
    """One tape-free decode step reads, and the decode stores, what Table 1
    counts (L = 8, d = 64, H_q = 8, context s = 41 after a 40-token prompt).
    The reads are the term tensors the model hands the attention op."""

    L, PROMPT = 8, 40

    def step_reads(self, monkeypatch, strategy, n_kv_heads):
        cfg = ModelConfig(n_layers=self.L, d_model=64, n_query_heads=8, n_kv_heads=n_kv_heads, strategy=strategy)
        model = build_model(cfg, seed=0)
        reads, inner = [], crosskv.attention._attention

        def spy(q, key_terms, value_terms):
            if q.shape[-2] == 1:  # the decode step; the prefill attends 40 rows at once
                assert _active_tape() is None
                reads.append(sum(t.size for t, _ in key_terms + value_terms))
            return inner(q, key_terms, value_terms)

        monkeypatch.setattr(crosskv.attention, "_attention", spy)
        res = model.decode(np.arange(self.PROMPT) % cfg.vocab_size, 2)  # the prefill, then one step
        assert res.cache_length == self.PROMPT + 1 and len(reads) == self.L
        unit = res.cache_length * n_kv_heads * cfg.head_dim  # s·H_kv·D
        assert sum(reads) % unit == 0
        workload = WorkloadSpec(self.L, res.cache_length, cfg.head_dim, cfg.n_query_heads, n_kv_heads)
        return sum(reads) // unit, res, workload

    @pytest.mark.parametrize(
        "strategy, n_kv_heads, units",
        [("Vanilla", 8, 16), ("GQA", 2, 16), ("YOCO", 8, 16), ("FusedKV-Lite", 8, 16), ("FusedKV", 8, 24)],
    )
    def test_table1_rows_read_and_store_what_table1_counts(self, monkeypatch, strategy, n_kv_heads, units):
        got, res, workload = self.step_reads(monkeypatch, strategy, n_kv_heads)
        costs = table1_costs(strategy, workload)
        assert got == units
        assert got * workload.prefill_len * n_kv_heads * workload.head_dim == costs.cache_io_elements
        assert res.peak_cache_elements == costs.cache_mem_elements

    @pytest.mark.parametrize("strategy, units", [("CLA", 2 * L), ("DenseFusion", L + L * L // 2)])
    def test_rows_outside_table1_read_their_closed_forms(self, monkeypatch, strategy, units):
        got, _, _ = self.step_reads(monkeypatch, strategy, 8)
        assert got == units


class TestFiniteChecks:
    """Every pass, taped or not, checks each block's output once and re-runs a
    failing block with every op checked; the head checks every op."""

    @pytest.mark.parametrize("strategy", ["Vanilla", "FusedKV"])
    @pytest.mark.parametrize("name", ["layer3.w_in", "layer1.w_v"])
    def test_tape_free_overflow_names_the_op(self, strategy, name):
        # an overflowed w_v first trips the cache append's own check; the
        # re-run with per-op checks still names the matmul, and warns from
        # the `ndarray.dot` its forward calls
        m = overflowing(build_model(small_cfg(strategy), seed=30), name)
        tokens = np.arange(6) % 16
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            with pytest.raises(EvaluationError, match="^matmul:"):
                m.decode(tokens, 3)
            with pytest.raises(EvaluationError, match="^matmul:"):
                m.forward_logits(tokens)

    def test_failed_step_leaves_the_caches_usable(self):
        m = build_model(small_cfg(), seed=31)
        prompt, good = np.arange(9) % 16, m.params["layer3.w_in"]
        caches: dict = {}
        m._forward(prompt[None], np.arange(9), caches)
        before = dict(caches)
        overflowing(m)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvaluationError, match="^matmul:"):
            m._forward(np.array([[5]]), np.array([9]), caches)
        m.params["layer3.w_in"] = good
        for i, cache in caches.items():
            rows = cache.keys.numpy()[..., :9, :]
            assert np.array_equal(rows, before[i].keys.numpy()) and np.isfinite(cache.keys.numpy()).all()
        # the caches from before the failed step still extend as an unbroken run does
        fresh: dict = {}
        m._forward(prompt[None], np.arange(9), fresh)
        want = m._forward(np.array([[5]]), np.array([9]), fresh).numpy()
        got = m._forward(np.array([[5]]), np.array([9]), before).numpy()
        assert np.array_equal(got, want)

    def test_taped_failed_block_leaves_the_caches_as_before_it(self):
        # under a tape the overflowing w_v's cache is kept unbuffered, so its
        # non-finite rows reach caches[3] until the failing block's entry is undone
        m = build_model(small_cfg(), seed=31)
        tokens, want = np.arange(9)[None] % 16, {}
        m._forward(tokens, np.arange(9), want)
        overflowing(m, "layer3.w_v")
        caches: dict = {}
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvaluationError, match="^matmul:"):
                m._forward(tokens, np.arange(9), caches)
        assert sorted(caches) == [1, 2]
        for i, cache in caches.items():
            assert np.array_equal(cache.keys.numpy(), want[i].keys.numpy())
            assert np.array_equal(cache.values.numpy(), want[i].values.numpy())

    def test_taped_pass_raises_at_the_op(self):
        m = overflowing(build_model(small_cfg("FusedKV"), seed=32))
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="^matmul:"):
                m.forward_loss(np.arange(6)[None] % 16)

    def test_rerun_that_passes_names_the_layer(self, monkeypatch):
        m = build_model(small_cfg(), seed=33)
        block = m._block

        def nan_when_unchecked(i, x, positions, caches, weights):
            out = block(i, x, positions, caches, weights)
            if i == 2 and not crosskv.tensor._THREAD.check_ops:
                return Tensor._wrap(np.full(out.shape, np.nan), "nan block")
            return out

        monkeypatch.setattr(m, "_block", nan_when_unchecked)
        with pytest.raises(EvaluationError, match="^layer 2: block output"):
            m.decode(np.arange(4), 1)

    def test_taped_and_tape_free_passes_check_each_block_once(self, monkeypatch):
        checks, unchecked = [], []
        check, wrap = crosskv.tensor._check_finite, Tensor._wrap.__func__

        def counted(arr, op):
            checks.append(op)
            check(arr, op)

        def spied_wrap(cls, arr, op):
            n = len(checks)
            out = wrap(cls, arr, op)
            if len(checks) == n:
                unchecked.append(op)
            return out

        for module in (crosskv.tensor, crosskv.attention, crosskv.sharing):
            monkeypatch.setattr(module, "_check_finite", counted)
        monkeypatch.setattr(Tensor, "_wrap", classmethod(spied_wrap))
        m = build_model(ModelConfig(), seed=34)  # the toy shape: 8 layers, all storing
        caches: dict = {}
        m._forward(np.arange(10)[None], np.arange(10), caches)
        checks.clear()
        m._forward(np.array([[3]]), np.array([10]), caches)
        assert len(checks) <= 50 and unchecked  # 188 checks when each op checked its result
        checks.clear()
        unchecked.clear()
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            m.forward_loss(np.arange(10)[None])
        assert len(checks) <= 50 and unchecked  # 173 checks when a taped pass checked each op


def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


class TestProjectionOps:
    """The attention projections are one `matmul` op each, with the head split
    or merge folded in: forward and both gradients equal a numpy matmul over
    the folded rows plus an axis swap, bit for bit."""

    T, D = 3, 4

    def taped(self, op, inputs, probe):
        """op(*inputs) and the gradients of sum(op(*inputs) * probe); the
        output gradient is `probe` itself."""
        with Tape() as tape:
            tracked = [tape.watch(Tensor(a)) for a in inputs]
            out = op(*tracked)
            tape.backward(tsum(mul(out, Tensor(probe))))
            return out.numpy(), [tape.grad(t) for t in tracked]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    @pytest.mark.parametrize("lead", [(2,), ()])
    @pytest.mark.parametrize("n_heads", [4, 2])  # H_q, and H_kv < H_q from the same d_model
    def test_project_heads_is_matmul_then_head_split(self, dtype, lead, n_heads):
        rng = np.random.default_rng(n_heads)
        H, T, D, K = n_heads, self.T, self.D, 16
        x, w = rng.standard_normal(lead + (T, K)).astype(dtype), rng.standard_normal((K, H * D)).astype(dtype)
        probe = rng.standard_normal(lead + (H, T, D)).astype(dtype)
        out, (dx, dw) = self.taped(lambda a, b: _project_heads(a, b, H), (x, w), probe)
        assert out.dtype == dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out, np.matmul(_rows(x), w).reshape(lead + (T, H, D)).swapaxes(-2, -3))
        g_rows = _rows(np.ascontiguousarray(probe.swapaxes(-2, -3)).reshape(lead + (T, H * D)))
        np.testing.assert_array_equal(dx, np.matmul(g_rows, w.T).reshape(x.shape))
        np.testing.assert_array_equal(dw, np.matmul(_rows(x).T, g_rows))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    @pytest.mark.parametrize("lead", [(2,), ()])
    @pytest.mark.parametrize("n_heads", [4, 2])
    def test_merge_project_is_head_merge_then_matmul(self, dtype, lead, n_heads):
        # plus the residual x, whose gradient is the output gradient itself
        rng = np.random.default_rng(10 + n_heads)
        H, T, D, N = n_heads, self.T, self.D, 16
        o, w = rng.standard_normal(lead + (H, T, D)).astype(dtype), rng.standard_normal((H * D, N)).astype(dtype)
        x, probe = (rng.standard_normal(lead + (T, N)).astype(dtype) for _ in range(2))
        out, (dx, do, dw) = self.taped(_merge_project, (x, o, w), probe)
        o_rows = _rows(np.ascontiguousarray(o.swapaxes(-2, -3)).reshape(lead + (T, H * D)))
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, x + np.matmul(o_rows, w).reshape(lead + (T, N)))
        np.testing.assert_array_equal(dx, probe)
        expected_do = np.matmul(_rows(probe), w.T).reshape(lead + (T, H, D)).swapaxes(-2, -3)
        np.testing.assert_array_equal(do, expected_do)
        np.testing.assert_array_equal(dw, np.matmul(o_rows.T, _rows(probe)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    @pytest.mark.parametrize("lead", [(2,), ()])
    def test_mlp_down_projection_is_add_of_matmul_bit_for_bit(self, dtype, lead):
        # the MLP's x + h·W_out, against the `add` of a `matmul` it replaces
        rng = np.random.default_rng(20)
        T, K, N = self.T, 12, 16
        x, h, w = (rng.standard_normal(shape).astype(dtype) for shape in (lead + (T, N), lead + (T, K), (K, N)))
        probe = rng.standard_normal(lead + (T, N)).astype(dtype)
        got, got_grads = self.taped(_merge_project, (x, h, w), probe)
        want, want_grads = self.taped(lambda a, b, c: add(a, matmul(b, c)), (x, h, w), probe)
        np.testing.assert_array_equal(got, want)
        for g, wg in zip(got_grads, want_grads):
            assert g.dtype == wg.dtype
            np.testing.assert_array_equal(g, wg)


class TestOpCounts:
    """Ops per tape-free toy decode step (`ModelConfig()`, after a 64-token
    prompt) and taped nodes per toy `forward_loss` (batch 8 x 17), by name.
    Each attention projection is one `matmul`: no op splits or merges heads.
    Both residual adds sit inside the output projections, so a layer records
    no `add`, and a decode expands its fusion weights once, not per step."""

    PER_LAYER = {"attention": 8, "embed": 1, "rmsnorm": 17, "swiglu": 8}
    STEP = {
        "Vanilla": {"matmul": 49, "rope": 16},
        "GQA": {"matmul": 49, "rope": 16},
        "YOCO": {"matmul": 41, "rope": 12},
        "FusedKV": {"matmul": 41, "rope": 12},
        "DenseFusion": {"matmul": 41, "rope": 12},
    }
    TOTALS = {"Vanilla": 99, "GQA": 99, "YOCO": 87, "FusedKV": 87, "DenseFusion": 87}

    @pytest.fixture
    def ops(self, monkeypatch):
        counts: dict = {}
        inner = crosskv.tensor.record_op

        def counted(op, out, parents, backward):
            counts[op] = counts.get(op, 0) + 1
            return inner(op, out, parents, backward)

        for module in (crosskv.tensor, crosskv.model, crosskv.rope, crosskv.attention):
            monkeypatch.setattr(module, "record_op", counted)
        return counts

    @pytest.mark.parametrize("strategy", list(STEP))
    def test_decode_step_ops_by_name(self, ops, strategy):
        m = build_model(ModelConfig(strategy=strategy), seed=0)
        prompt = np.arange(64)
        m.decode(prompt, 1)  # the prefill alone
        prefill = dict(ops)
        ops.clear()
        m.decode(prompt, 2)  # the prefill, then one step
        step = {op: n - prefill.get(op, 0) for op, n in ops.items() if n != prefill.get(op, 0)}
        assert step == {**self.PER_LAYER, **self.STEP[strategy]}
        assert sum(step.values()) == self.TOTALS[strategy]

    NODES = {
        "Vanilla": {"matmul": 49, "rope": 16},
        "FusedKV": {"matmul": 41, "rope": 12, "expand_pairs": 8, "mul": 16, "add": 8},
        "DenseFusion": {"matmul": 41, "rope": 12, "mul": 32, "add": 24},
    }
    NODE_TOTALS = {"Vanilla": 100, "FusedKV": 120, "DenseFusion": 144}

    @pytest.mark.parametrize("strategy", list(NODES))
    def test_forward_loss_nodes_by_name(self, strategy):
        m = build_model(ModelConfig(strategy=strategy), seed=0)
        tokens = np.random.default_rng(1).integers(0, 64, size=(8, 17))
        with Tape() as tape:
            for _, p in m.parameters():
                tape.watch(p)
            m.forward_loss(tokens)
        got: dict = {}
        for node in tape.nodes:
            if node.op != "leaf":
                got[node.op] = got.get(node.op, 0) + 1
        assert got == {**self.PER_LAYER, "cross_entropy": 1, **self.NODES[strategy]}
        assert sum(got.values()) == self.NODE_TOTALS[strategy]
        assert not {"split_heads", "merge_heads"} & set(got)

    def test_tools_counts_prints_this_table(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "tools"))
        printed = importlib.import_module("counts").counts()
        assert list(printed) == list(self.STEP)
        for strategy, got in printed.items():
            assert got["decode_step"] == {**self.PER_LAYER, **self.STEP[strategy]}
            assert got["decode_step_total"] == self.TOTALS[strategy]
            if strategy in self.NODES:
                assert got["forward_loss"] == {**self.PER_LAYER, "cross_entropy": 1, **self.NODES[strategy]}
                assert got["forward_loss_total"] == self.NODE_TOTALS[strategy]


class TestHeatmap:
    @staticmethod
    def weights(rows, kind):
        return {(row["target"], row["source"]): float(row["weight"]) for row in rows if row["kind"] == kind}

    def test_untrained_dense_fusion_matches_stored_weights(self):
        m = build_model(small_cfg("DenseFusion"), seed=8)
        rows = fusion_weight_rows(m)
        assert len(rows) == 8  # two targets x sources {1, 2}, keys and values
        for kind in ("key", "value"):
            weights = self.weights(rows, kind)
            assert {j for _, j in weights} == {1, 2}
            for (i, j), w in weights.items():
                assert w == m.params[f"fusion.{kind}.{i}.{j}"].item()

    def test_vector_strategy_reports_mean_abs(self):
        m = build_model(small_cfg("FusedKV"), seed=9)
        rows = fusion_weight_rows(m)
        want = np.abs(np.repeat(m.params["fusion.key.3.1"].numpy(), 2)).mean()
        assert self.weights(rows, "key")[3, 1] == pytest.approx(want, abs=1e-15)
        assert len(self.weights(rows, "key")) == len(m.plan.reconstruction_layers) * 2

    def test_direct_strategy_rejected(self):
        m = build_model(small_cfg("YOCO"), seed=10)
        with pytest.raises(ValueError, match="no fusion weights"):
            fusion_weight_rows(m)


class TestCheckpoint:
    def test_round_trip_preserves_order_and_bits(self, tmp_path):
        m = build_model(small_cfg("FusedKV"), seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m.state_dict(), path)
        loaded = load_checkpoint(path)
        assert list(loaded) == [name for name, _ in m.parameters()]
        for name, t in m.parameters():
            assert np.array_equal(loaded[name], t.numpy())

    def test_restore_into_fresh_model(self, tmp_path):
        m1 = build_model(small_cfg("FusedKV"), seed=12)
        tokens = np.random.default_rng(13).integers(0, 16, size=(1, 6))
        path = tmp_path / "model.ckpt"
        save_checkpoint(m1.state_dict(), path)
        m2 = build_model(small_cfg("FusedKV"), seed=99)
        m2.load_state_dict(load_checkpoint(path))
        a = m1.forward_logits(tokens).numpy()
        b = m2.forward_logits(tokens).numpy()
        assert np.array_equal(a, b)

    def test_non_finite_entry_replaces_nothing(self):
        m = build_model(small_cfg("FusedKV"), seed=17)
        before = dict(m.params)
        state = m.state_dict()
        last = list(state)[-1]
        state[last] = np.full_like(state[last], np.inf)
        with pytest.raises(ValueError, match=f"'{last}': checkpoint holds non-finite values"):
            m.load_state_dict(state)
        assert all(m.params[name] is t for name, t in before.items())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_key_set_mismatch_names_missing_and_extra(self):
        fused = build_model(small_cfg("FusedKV"), seed=17).state_dict()
        yoco = build_model(small_cfg("YOCO"), seed=17)
        with pytest.raises(KeyError, match=r"extra \['fusion\.") as err:
            yoco.load_state_dict(fused)
        assert "missing []" in str(err.value)
        del fused["layer1.w_q"]
        with pytest.raises(KeyError, match=r"missing \['layer1\.w_q'\]"):
            build_model(small_cfg("FusedKV"), seed=17).load_state_dict(fused)

    def test_shape_mismatch_names_parameter_and_shapes(self):
        m = build_model(small_cfg(), seed=18)
        arrays = m.state_dict()
        arrays["layer1.w_q"] = np.zeros((32, 16))
        before = m.params["layer2.w_k"]
        with pytest.raises(ValueError, match=r"'layer1\.w_q'.*\(32, 16\).*\(32, 32\)"):
            m.load_state_dict(arrays)
        assert m.params["layer2.w_k"] is before  # nothing replaced

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.arange(6.0).reshape(2, 3)}, path)
        full = path.read_bytes()
        # inside the header, before the dtype byte, inside the shape and the data
        for cut in (6, 15, 20, len(full) - 1):
            path.write_bytes(full[:cut])
            with pytest.raises(ValueError, match="truncated"):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.zeros(2)}, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: 1 bytes after the last of 1 tensors"):
            load_checkpoint(path)

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.zeros(2), "v": np.ones(2)}, path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"\x01\x00v", b"\x01\x00w"))  # rename "v" to "w"
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: tensor 'w' appears twice"):
            load_checkpoint(path)

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.zeros(2)}, path)
        raw = bytearray(path.read_bytes())
        raw[4 + 8 + 2 + 1] = 7  # dtype byte after the header and the name "w"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown dtype code 7"):
            load_checkpoint(path)

    def test_unknown_version_rejected_naming_it(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.zeros(2)}, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")  # the header's version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)

    def test_scalar_weights_keep_their_shape(self, tmp_path):
        m = build_model(small_cfg("DenseFusion"), seed=19)
        path = tmp_path / "model.ckpt"
        save_checkpoint(m.state_dict(), path)
        loaded = load_checkpoint(path)
        assert loaded["fusion.key.3.1"].shape == ()
        # files written while 0-d arrays were saved as shape (1,) still load
        loaded = {name: arr.reshape(1) if arr.ndim == 0 else arr for name, arr in loaded.items()}
        m.load_state_dict(loaded)
        assert m.params["fusion.key.3.1"].shape == ()

    def test_float32_tensors_round_trip(self, tmp_path):
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        path = tmp_path / "f32.ckpt"
        save_checkpoint(arrays, path)
        out = load_checkpoint(path)
        assert out["w"].dtype == np.float32
        assert np.array_equal(out["w"], arrays["w"])
