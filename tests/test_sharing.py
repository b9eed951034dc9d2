import numpy as np
import pytest

from crosskv.rope import PairSymmetricWeight
from crosskv.sharing import (
    DIRECT,
    FUSION_SCALAR,
    FUSION_VECTOR,
    FusionWeights,
    IterativeWeights,
    LayerCache,
    canonical_strategy,
    init_equivalent,
    init_normal,
    iterative_reconstruct,
    plan_for_strategy,
    reconstruct,
    sample_iterative_weights,
)
from crosskv.tensor import DimensionError, EvaluationError, Tensor


def random_caches(layers, shape=(2, 4, 8), seed=0):
    rng = np.random.default_rng(seed)
    return {
        j: LayerCache(Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape)), j)
        for j in layers
    }


class TestStrategyNames:
    def test_aliases(self):
        assert canonical_strategy("mha") == "Vanilla"
        assert canonical_strategy("Lite-Rev") == "FusedKV-Lite-Rev"
        assert canonical_strategy("value05key8") == "value5key8"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            canonical_strategy("bogus")


class TestPlans:
    def test_vanilla_has_no_reconstruction(self):
        plan = plan_for_strategy("Vanilla", 6)
        assert plan.storage_layers == (1, 2, 3, 4, 5, 6)
        assert plan.reconstruction_layers == ()

    def test_yoco_constant_mapping(self):
        plan = plan_for_strategy("YOCO", 16)
        assert plan.storage_layers == tuple(range(1, 9))
        for i in range(9, 17):
            assert plan.sources(i) == (8,)
            assert plan.rules[i].key.kind == DIRECT

    def test_cla_previous_layer_mapping(self):
        plan = plan_for_strategy("CLA", 4)
        assert plan.storage_layers == (1, 3)
        assert plan.sources(2) == (1,)
        assert plan.sources(4) == (3,)

    def test_fusedkv_two_anchor_fusion(self):
        plan = plan_for_strategy("FusedKV", 16, 8)
        for i in range(9, 17):
            assert plan.sources(i) == (1, 8)
            assert plan.rules[i].key.kind == FUSION_VECTOR

    def test_lite_asymmetric_direct(self):
        plan = plan_for_strategy("FusedKV-Lite", 16, 8)
        for i in range(9, 17):
            assert plan.rules[i].key.sources == (8,)
            assert plan.rules[i].value.sources == (1,)
            assert plan.rules[i].key.kind == DIRECT

    def test_lite_rev_swaps_sources(self):
        plan = plan_for_strategy("Lite-Rev", 8)
        assert plan.rules[5].key.sources == (1,)
        assert plan.rules[5].value.sources == (4,)

    def test_lite_learnable_single_source_vectors(self):
        plan = plan_for_strategy("Lite-Learnable", 8)
        assert plan.rules[6].key == plan.rules[6].key.__class__((4,), FUSION_VECTOR)
        assert plan.rules[6].value.sources == (1,)

    def test_dense_fusion_all_bottom_scalars(self):
        plan = plan_for_strategy("DenseFusion", 8)
        assert plan.rules[7].key.sources == (1, 2, 3, 4)
        assert plan.rules[7].key.kind == FUSION_SCALAR

    def test_ablation_plan(self):
        plan = plan_for_strategy("value1key3", 8)
        assert plan.rules[5].value.sources == (1,)
        assert plan.rules[5].key.sources == (3,)

    def test_ablation_source_outside_storage_rejected(self):
        with pytest.raises(ValueError, match="outside storage"):
            plan_for_strategy("value1key5", 8)  # storage is 1..4

    def test_odd_layers_need_explicit_middle(self):
        with pytest.raises(ValueError, match="even layer count"):
            plan_for_strategy("YOCO", 7)
        assert plan_for_strategy("YOCO", 7, middle=3).storage_layers == (1, 2, 3)

    def test_middle_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            plan_for_strategy("FusedKV", 8, middle=8)

    def test_partition_is_validated(self):
        from crosskv.sharing import CacheRule, ReconstructionSpec, SharingPlan

        rule = ReconstructionSpec(CacheRule((2,), DIRECT), CacheRule((2,), DIRECT))
        with pytest.raises(ValueError, match="non-storage"):
            SharingPlan(3, (1,), {2: rule, 3: rule})  # layer 2 sources itself


class TestReconstruct:
    def test_direct_reuse_returns_equal_tensors(self):
        plan = plan_for_strategy("FusedKV-Lite", 4, 2)
        stored = random_caches((1, 2))
        k, v = reconstruct(plan, None, stored, 3)
        np.testing.assert_array_equal(k.numpy(), stored[2].keys.numpy())
        np.testing.assert_array_equal(v.numpy(), stored[1].values.numpy())

    def test_one_hot_weights_reduce_to_selector(self):
        plan = plan_for_strategy("FusedKV", 4, 2)
        stored = random_caches((1, 2), seed=1)
        weights = FusionWeights(
            key={(i, j): PairSymmetricWeight(Tensor(np.full(4, float(j == 1)))) for i in (3, 4) for j in (1, 2)},
            value={(i, j): Tensor(np.full(8, float(j == 2))) for i in (3, 4) for j in (1, 2)},
        )
        k, v = reconstruct(plan, weights, stored, 4)
        np.testing.assert_array_equal(k.numpy(), stored[1].keys.numpy())
        np.testing.assert_array_equal(v.numpy(), stored[2].values.numpy())

    def test_matches_scalar_loop_oracle(self):
        plan = plan_for_strategy("FusedKV", 4, 2)
        stored = random_caches((1, 2), shape=(2, 3, 8), seed=2)
        weights = init_normal(plan, 8, seed=3)
        k, v = reconstruct(plan, weights, stored, 3)

        # independent elementwise recomputation with explicit loops
        def loop_fuse(weight_of, tensor_of):
            out = np.zeros((2, 3, 8))
            for j in (1, 2):
                w = weight_of(j)
                src = tensor_of(j)
                for h in range(2):
                    for s in range(3):
                        for d in range(8):
                            out[h, s, d] += w[d] * src[h, s, d]
            return out

        want_k = loop_fuse(lambda j: weights.key_expanded(3, j).numpy(), lambda j: stored[j].keys.numpy())
        want_v = loop_fuse(lambda j: weights.value[(3, j)].numpy(), lambda j: stored[j].values.numpy())
        np.testing.assert_allclose(k.numpy(), want_k, atol=1e-12)
        np.testing.assert_allclose(v.numpy(), want_v, atol=1e-12)

    def test_missing_source_cache(self):
        plan = plan_for_strategy("YOCO", 4)
        with pytest.raises(KeyError, match="layer 2"):
            reconstruct(plan, None, {1: random_caches((1,))[1]}, 3)

    def test_length_mismatch_rejected(self):
        plan = plan_for_strategy("FusedKV", 4, 2)
        stored = random_caches((1, 2))
        stored[2] = LayerCache(
            Tensor(np.ones((2, 5, 8))), Tensor(np.ones((2, 5, 8))), 2
        )
        with pytest.raises(DimensionError, match="different lengths"):
            reconstruct(plan, init_normal(plan, 8, 0), stored, 3)


class TestInitNormal:
    def test_fixed_seed_reproduces(self):
        plan = plan_for_strategy("FusedKV", 6, 3)
        w1, w2 = init_normal(plan, 8, 11), init_normal(plan, 8, 11)
        for (n1, t1), (n2, t2) in zip(w1.named_parameters(), w2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.numpy(), t2.numpy())

    def test_standard_moments(self):
        plan = plan_for_strategy("FusedKV", 2084, 1042)
        draws = np.concatenate(
            [t.numpy().ravel() for _, t in init_normal(plan, 32, 5).named_parameters()]
        )
        assert draws.size >= 100_000
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.05

    def test_key_weights_exactly_pair_symmetric(self):
        plan = plan_for_strategy("FusedKV", 4, 2)
        w = init_normal(plan, 8, 7)
        e = w.key_expanded(3, 1).numpy()
        assert np.array_equal(e[0::2], e[1::2])

    def test_scalar_plan_draws_scalars(self):
        plan = plan_for_strategy("DenseFusion", 4, 2)
        w = init_normal(plan, 8, 7)
        assert w.key[(3, 1)].shape == ()


class TestEquivalentInit:
    def test_base_case_copies_auxiliary(self):
        plan = plan_for_strategy("FusedKV", 3, 2)  # single reconstruction layer
        aux = sample_iterative_weights(plan, 8, 13)
        w = init_equivalent(plan, aux)
        np.testing.assert_array_equal(w.key_expanded(3, 1).numpy(), aux.key[(3, 1)])
        np.testing.assert_array_equal(w.key_expanded(3, 2).numpy(), aux.key[(3, 2)])
        np.testing.assert_array_equal(w.value[(3, 1)].numpy(), aux.value[(3, 1)])

    def test_hand_unrolled_scalar_recursion(self):
        # n=2, L=4 with scalar weights; collapsing the chain by hand:
        #   a[4,1] = 2 * 0.5 = 1.0 and a[4,2] = 2 * 0.25 + 1 = 1.5
        plan = plan_for_strategy("DenseFusion", 4, 2)
        aux = IterativeWeights(
            key={(3, 1): 0.5, (3, 2): 0.25, (4, 3): 2.0, (4, 2): 1.0},
            value={(3, 1): 0.5, (3, 2): 0.25, (4, 3): 2.0, (4, 1): 1.0},
        )
        w = init_equivalent(plan, aux)
        assert w.key[(3, 1)].item() == 0.5
        assert w.key[(3, 2)].item() == 0.25
        assert w.key[(4, 1)].item() == 1.0
        assert w.key[(4, 2)].item() == 1.5
        # values mirror with the anchors swapped: extra term lands on source 1
        assert w.value[(4, 1)].item() == 2.0 * 0.5 + 1.0
        assert w.value[(4, 2)].item() == 2.0 * 0.25

    def test_reconstruction_matches_iterative_chain(self):
        plan = plan_for_strategy("FusedKV", 6, 3)
        rng = np.random.default_rng(17)
        worst = 0.0
        for trial in range(25):
            aux = sample_iterative_weights(plan, 8, rng)
            weights = init_equivalent(plan, aux)
            stored = random_caches((1, 2, 3), seed=100 + trial)
            chain = iterative_reconstruct(plan, aux, stored)
            for i in plan.reconstruction_layers:
                k, v = reconstruct(plan, weights, stored, i)
                worst = max(
                    worst,
                    float(np.abs(k.numpy() - chain[i][0].numpy()).max()),
                    float(np.abs(v.numpy() - chain[i][1].numpy()).max()),
                )
        assert worst < 1e-12

    def test_non_fusion_plan_rejected(self):
        plan = plan_for_strategy("FusedKV-Lite", 4, 2)
        with pytest.raises(ValueError, match="direct reuse"):
            init_equivalent(plan, IterativeWeights({}, {}))

    def test_single_storage_layer_rejected(self):
        plan = plan_for_strategy("FusedKV", 4, 1)
        with pytest.raises(ValueError, match="n >= 2"):
            sample_iterative_weights(plan, 8, 0)


class TestIterativeReconstruct:
    def test_zero_chain_weight_reduces_to_anchors(self):
        plan = plan_for_strategy("FusedKV", 5, 2)
        stored = random_caches((1, 2), seed=23)
        aux = sample_iterative_weights(plan, 8, 29)
        for i in (4, 5):
            aux.key[(i, i - 1)] = np.zeros(8)
            aux.value[(i, i - 1)] = np.zeros(8)
        chain = iterative_reconstruct(plan, aux, stored)
        for i in (4, 5):
            want_k = aux.key[(i, 2)] * stored[2].keys.numpy()
            want_v = aux.value[(i, 1)] * stored[1].values.numpy()
            np.testing.assert_allclose(chain[i][0].numpy(), want_k, atol=1e-12)
            np.testing.assert_allclose(chain[i][1].numpy(), want_v, atol=1e-12)

    def test_hand_computed_two_step_scalar_chain(self):
        # L=6, n=3, scalar weights, unit caches: values accumulate
        # v4 = 0.5*1 + 2*1 = 2.5 ; v5 = 0.1*2.5 + 1*1 = 1.25 ; v6 = 2*1.25 + 0.5 = 3.0
        from crosskv.sharing import CacheRule, ReconstructionSpec, SharingPlan

        rule = ReconstructionSpec(CacheRule((1, 3), FUSION_SCALAR), CacheRule((1, 3), FUSION_SCALAR))
        plan = SharingPlan(6, (1, 2, 3), {i: rule for i in (4, 5, 6)})
        ones = lambda: LayerCache(Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 4))), 0)
        stored = {j: ones() for j in (1, 2, 3)}
        aux = IterativeWeights(
            key={(4, 1): 1.0, (4, 3): 1.0, (5, 4): 1.0, (5, 3): 1.0, (6, 5): 1.0, (6, 3): 1.0},
            value={(4, 1): 0.5, (4, 3): 2.0, (5, 4): 0.1, (5, 1): 1.0, (6, 5): 2.0, (6, 1): 0.5},
        )
        chain = iterative_reconstruct(plan, aux, stored)
        np.testing.assert_allclose(chain[4][1].numpy(), 2.5)
        np.testing.assert_allclose(chain[5][1].numpy(), 1.25)
        np.testing.assert_allclose(chain[6][1].numpy(), 3.0)
        # keys: k4 = 2, k5 = 3, k6 = 4 with all-ones weights
        np.testing.assert_allclose(chain[6][0].numpy(), 4.0)


class TestLayerCache:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionError):
            LayerCache(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 5, 4))), 1)

    def test_length_property(self):
        c = LayerCache(Tensor(np.ones((2, 7, 4))), Tensor(np.ones((2, 7, 4))), 1)
        assert c.length == 7


def rows_cache(start, count, layer=1, shape=(2, 3), dtype=np.float64):
    """A cache whose row r holds the value r (keys) and -r (values)."""
    heads, depth = shape
    grid = np.broadcast_to(np.arange(start, start + count, dtype=dtype)[None, :, None], (heads, count, depth))
    return LayerCache(Tensor(grid, dtype=dtype), Tensor(-grid, dtype=dtype), layer)


class TestLayerCacheAppend:
    def test_rows_follow_in_order(self):
        c = rows_cache(0, 3).append(rows_cache(3, 2), capacity=8).append(rows_cache(5, 1), capacity=8)
        assert c.length == 6
        np.testing.assert_array_equal(c.keys.numpy()[0, :, 0], np.arange(6))
        np.testing.assert_array_equal(c.values.numpy()[1, :, 2], -np.arange(6))

    def test_later_appends_share_one_buffer(self):
        first = rows_cache(0, 3).append(rows_cache(3, 1), capacity=8)
        second = first.append(rows_cache(4, 1), capacity=8)
        assert np.may_share_memory(first.keys.numpy(), second.keys.numpy())
        assert np.may_share_memory(first.values.numpy(), second.values.numpy())

    def test_earlier_caches_keep_their_values(self):
        start = rows_cache(0, 3)
        c1 = start.append(rows_cache(3, 1), capacity=8)
        seen = c1.keys.numpy().copy()
        c2 = c1.append(rows_cache(4, 2), capacity=8)
        c2.append(rows_cache(6, 2), capacity=8)
        np.testing.assert_array_equal(c1.keys.numpy(), seen)
        assert start.length == 3 and c1.length == 4

    def test_append_to_older_cache_leaves_newer_untouched(self):
        c1 = rows_cache(0, 3).append(rows_cache(3, 1), capacity=8)
        c2 = c1.append(rows_cache(4, 1), capacity=8)
        newer = c2.keys.numpy().copy()
        branch = c1.append(rows_cache(40, 1), capacity=8)
        np.testing.assert_array_equal(c2.keys.numpy(), newer)
        assert branch.keys.numpy()[0, 4, 0] == 40
        assert not np.may_share_memory(branch.keys.numpy(), c2.keys.numpy())

    def test_append_past_capacity_rejected(self):
        full = rows_cache(0, 3, layer=5).append(rows_cache(3, 2), capacity=5)
        assert full.length == 5
        with pytest.raises(ValueError, match="layer 5"):
            full.append(rows_cache(5, 1), capacity=5)
        with pytest.raises(ValueError, match="layer 5"):
            rows_cache(0, 3, layer=5).append(rows_cache(3, 3), capacity=5)

    def test_larger_capacity_moves_to_a_fresh_buffer(self):
        full = rows_cache(0, 3).append(rows_cache(3, 2), capacity=5)
        grown = full.append(rows_cache(5, 1), capacity=8)
        np.testing.assert_array_equal(grown.keys.numpy()[0, :, 0], np.arange(6))
        assert not np.may_share_memory(grown.keys.numpy(), full.keys.numpy())

    def test_views_are_read_only(self):
        c = rows_cache(0, 3).append(rows_cache(3, 1), capacity=8)
        for arr in (c.keys.numpy(), c.values.numpy()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    def test_non_finite_row_rejected(self):
        bad = rows_cache(3, 1)
        bad.values.numpy().setflags(write=True)  # corrupt the rows behind the Tensor check
        bad.values.numpy()[0, 0, 1] = np.nan
        with pytest.raises(EvaluationError, match="layer 1"):
            rows_cache(0, 3).append(bad, capacity=8)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(DimensionError, match="layer 1"):
            rows_cache(0, 3).append(rows_cache(3, 1, shape=(2, 4)), capacity=8)
        with pytest.raises(TypeError, match="layer 1"):
            rows_cache(0, 3).append(rows_cache(3, 1, dtype=np.float32), capacity=8)

    def test_float32_stays_float32(self):
        c = rows_cache(0, 3, dtype=np.float32).append(rows_cache(3, 1, dtype=np.float32), capacity=8)
        assert c.keys.dtype == np.float32 and c.values.dtype == np.float32
