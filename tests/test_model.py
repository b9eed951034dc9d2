import tracemalloc

import numpy as np
import pytest

import crosskv.model
import crosskv.sharing
from crosskv.checkpoint import load_checkpoint, save_checkpoint
from crosskv.model import ModelConfig, build_model, fusion_weight_heatmap
from crosskv.sharing import STRATEGY_NAMES
from crosskv.tensor import DimensionError, Tape, Tensor
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

    def test_middle_range_checked(self):
        with pytest.raises(ValueError):
            ModelConfig(middle=8)

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
        # 2x2 fusion weight tables per cache kind
        assert sorted(m.fusion.key) == [(3, 1), (3, 2), (4, 1), (4, 2)]
        assert sorted(m.fusion.value) == [(3, 1), (3, 2), (4, 1), (4, 2)]

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
        assert m.fusion.key  # built fine
        # weightless plans ignore the scheme entirely
        build_model(small_cfg("FusedKV-Lite", init_scheme="equivalent"), seed=0)

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

    def test_loss_gradient_matches_oracle_small(self):
        from crosskv.tensor import grad_check

        m = build_model(toy_config("YOCO"), seed=1)
        tokens = np.random.default_rng(1).integers(0, 7, size=(1, 5))
        err = grad_check(lambda: m.forward_loss(tokens), [p for _, p in m.parameters()])
        assert err < 1e-4


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
        # After the first step, a step writes its new rows into the cache
        # buffers in place: it allocates less than one storage layer's K+V,
        # where re-copying every storage cache would allocate several.
        for strategy, n_kv_heads in [("Vanilla", 4), ("GQA", 2), ("FusedKV", 4), ("DenseFusion", 4)]:
            m = build_model(small_cfg(strategy, d_model=64, n_kv_heads=n_kv_heads, max_seq_len=260), seed=11)
            caches = {}
            m._forward((np.arange(256) % 16)[None, :], np.arange(256), caches)
            m._forward(np.array([[3]]), np.array([256]), caches)
            layer_bytes = next(c.keys.data.nbytes + c.values.data.nbytes for c in caches.values())
            for pos in (257, 258):
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

    @pytest.mark.parametrize("strategy", ["FusedKV", "DenseFusion"])
    def test_one_token_prompt_matches_full_recompute(self, strategy):
        # the one-row prefill reads the stored caches through folded weights
        m = build_model(small_cfg(strategy), seed=16)
        res = m.decode(np.array([5]), 10)
        full = m.forward_logits(res.tokens).numpy()[0]
        assert np.abs(full[: len(res.logits)] - res.logits).max() <= 1e-10

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


class TestHeatmap:
    def test_untrained_dense_fusion_matches_stored_weights(self):
        m = build_model(small_cfg("DenseFusion"), seed=8)
        hm = fusion_weight_heatmap(m)
        assert hm.key_matrix.shape == (2, 2)  # two targets, sources {1, 2}
        for ti, i in enumerate(hm.targets):
            for si, j in enumerate(hm.key_sources):
                assert hm.key_matrix[ti, si] == m.fusion.key[(i, j)].item()
                assert hm.value_matrix[ti, si] == m.fusion.value[(i, j)].item()

    def test_vector_strategy_reports_mean_abs(self):
        m = build_model(small_cfg("FusedKV"), seed=9)
        hm = fusion_weight_heatmap(m)
        want = np.abs(m.fusion.key_expanded(3, 1).numpy()).mean()
        assert hm.key_matrix[0, 0] == pytest.approx(want, abs=1e-15)
        assert hm.key_matrix.shape == (len(m.plan.reconstruction_layers), 2)

    def test_direct_strategy_rejected(self):
        m = build_model(small_cfg("YOCO"), seed=10)
        with pytest.raises(ValueError, match="no fusion weights"):
            fusion_weight_heatmap(m)


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

    def test_unknown_dtype_code_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.zeros(2)}, path)
        raw = bytearray(path.read_bytes())
        raw[4 + 8 + 2 + 1] = 7  # dtype byte after the header and the name "w"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unknown dtype code 7"):
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
        assert m.fusion.key[(3, 1)].shape == ()

    def test_float32_tensors_round_trip(self, tmp_path):
        arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        path = tmp_path / "f32.ckpt"
        save_checkpoint(arrays, path)
        out = load_checkpoint(path)
        assert out["w"].dtype == np.float32
        assert np.array_equal(out["w"], arrays["w"])


class TestTapeReachability:
    def test_bottom_cache_feeds_multiple_layers_when_fused(self):
        # distinct gradient paths into layer 1: its own attention plus one
        # per extra consumer of its key or value cache
        counts = {}
        for strategy in ("Vanilla", "FusedKV", "FusedKV-Lite"):
            m = build_model(toy_config(strategy), seed=5)
            tokens = np.random.default_rng(6).integers(0, 7, size=(1, 5))
            with Tape() as tape:
                for _, p in m.parameters():
                    tape.watch(p)
                caches = {}
                m.forward_logits(tokens, caches_out=caches)
                k_fan = tape.fan_out(caches[1].keys)
                v_fan = tape.fan_out(caches[1].values)
                counts[strategy] = 1 + (k_fan - 1) + (v_fan - 1)
        assert counts["Vanilla"] == 1
        assert counts["FusedKV"] >= 2
        assert counts["FusedKV-Lite"] >= 2
