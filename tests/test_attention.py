import math

import numpy as np
import pytest

from crosskv.attention import AttentionConfig, attend
from crosskv.rope import PairSymmetricWeight, RopeSchedule, apply_rope
from crosskv.sharing import FoldedCache, LayerCache, folded_cache, init_normal, plan_for_strategy, reconstruct
from crosskv.tensor import DimensionError, Tensor, grad_check


def cache_of(rng, h_kv, s, d, layer=1):
    return LayerCache(
        Tensor(rng.standard_normal((h_kv, s, d))),
        Tensor(rng.standard_normal((h_kv, s, d))),
        layer,
    )


def loop_attention(q, keys, values, group, q_pos, k_pos):
    """Naive triple-loop oracle: per head, per query row, per cache row."""
    h_q, s_q, d = q.shape
    out = np.zeros_like(q)
    for h in range(h_q):
        kv = h // group
        for t in range(s_q):
            allowed = [u for u in range(keys.shape[1]) if k_pos[u] <= q_pos[t]]
            scores = np.array([q[h, t] @ keys[kv, u] / math.sqrt(d) for u in allowed])
            e = np.exp(scores - scores.max())
            p = e / e.sum()
            for w, u in zip(p, allowed):
                out[h, t] += w * values[kv, u]
    return out


class TestAttend:
    def test_single_token_returns_value_row(self):
        rng = np.random.default_rng(0)
        cfg = AttentionConfig(3, 3, 4)
        cache = cache_of(rng, 3, 1, 4)
        q = Tensor(rng.standard_normal((3, 1, 4)))
        out = attend(q, cache, cfg, np.array([0]))
        np.testing.assert_allclose(out.numpy(), cache.values.numpy(), atol=1e-15)

    def test_two_query_heads_share_one_kv_head(self):
        rng = np.random.default_rng(1)
        cfg = AttentionConfig(2, 1, 4)
        cache = cache_of(rng, 1, 3, 4)
        q_shared = rng.standard_normal((1, 3, 4))
        q = Tensor(np.concatenate([q_shared, q_shared], axis=0))
        out = attend(q, cache, cfg, np.arange(3)).numpy()
        np.testing.assert_array_equal(out[0], out[1])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        cfg = AttentionConfig(4, 2, 8)
        cache = cache_of(rng, 2, 2, 8)
        q = Tensor(rng.standard_normal((4, 2, 8)))
        got = attend(q, cache, cfg, np.arange(2)).numpy()
        want = loop_attention(q.numpy(), cache.keys.numpy(), cache.values.numpy(), 2, np.arange(2), np.arange(2))
        assert np.abs(got - want).max() < 1e-12

    def test_causality_by_absolute_position(self):
        rng = np.random.default_rng(3)
        cfg = AttentionConfig(2, 2, 4)
        cache = cache_of(rng, 2, 5, 4)
        q = Tensor(rng.standard_normal((2, 5, 4)))
        base = attend(q, cache, cfg, np.arange(5)).numpy()
        zeroed_k = cache.keys.numpy().copy()
        zeroed_v = cache.values.numpy().copy()
        zeroed_k[:, 3:, :] = 0.0
        zeroed_v[:, 3:, :] = 0.0
        out = attend(q, LayerCache(Tensor(zeroed_k), Tensor(zeroed_v), 1), cfg, np.arange(5)).numpy()
        np.testing.assert_array_equal(out[:, :3], base[:, :3])

    def test_position_length_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        cfg = AttentionConfig(2, 2, 4)
        cache = cache_of(rng, 2, 3, 4)
        q = Tensor(rng.standard_normal((2, 3, 4)))
        with pytest.raises(DimensionError):
            attend(q, cache, cfg, np.arange(4))

    def test_grouping_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            AttentionConfig(3, 2, 4)
        rng = np.random.default_rng(5)
        cfg = AttentionConfig(4, 2, 4)
        cache = cache_of(rng, 3, 2, 4)  # wrong kv head count
        q = Tensor(rng.standard_normal((4, 2, 4)))
        with pytest.raises(DimensionError):
            attend(q, cache, cfg, np.arange(2))


def by_row(q, cache, cfg, q_pos, k_pos=None):
    """`attend` on one query row at a time, the kernel's folding path."""
    rows = [
        attend(Tensor(q.numpy()[:, t : t + 1, :]), cache, cfg, q_pos[t : t + 1], k_pos).numpy()
        for t in range(q.shape[-2])
    ]
    return np.concatenate(rows, axis=-2)


class TestAttendFused:
    """Weighted terms in the kernel, against the materialized cache. Several
    query rows take the summing path; `by_row` takes the folding path."""

    def test_single_source_unit_weights_equals_attend(self):
        rng = np.random.default_rng(6)
        cfg = AttentionConfig(2, 2, 8)
        cache = cache_of(rng, 2, 4, 8)
        q = Tensor(rng.standard_normal((2, 4, 8)))
        ones = FoldedCache(
            ((cache.keys, PairSymmetricWeight.ones(8).expanded()),), ((cache.values, Tensor(np.ones(8))),), 3
        )
        fused = attend(q, ones, cfg, np.arange(4)).numpy()
        plain = attend(q, cache, cfg, np.arange(4)).numpy()
        np.testing.assert_allclose(fused, plain, atol=1e-14)
        np.testing.assert_allclose(by_row(q, ones, cfg, np.arange(4)), plain, atol=1e-14)

    def test_matches_materialize_then_attend(self):
        rng = np.random.default_rng(7)
        plan = plan_for_strategy("FusedKV", 4, 2)
        weights = init_normal(plan, 8, 8)
        cfg = AttentionConfig(4, 2, 8)
        stored = {j: cache_of(rng, 2, 5, 8, layer=j) for j in (1, 2)}
        q = Tensor(rng.standard_normal((4, 5, 8)))
        k, v = reconstruct(plan, weights, stored, 3)
        terms = folded_cache(plan, weights, stored, 3)
        mat = attend(q, LayerCache(k, v, 3), cfg, np.arange(5)).numpy()
        assert np.abs(mat - attend(q, terms, cfg, np.arange(5)).numpy()).max() < 1e-12
        assert np.abs(mat - by_row(q, terms, cfg, np.arange(5))).max() < 1e-12

    def test_several_rows_sum_the_terms_as_reconstruct_does(self):
        # a multi-row query sums each side's terms once, with reconstruct's ops
        rng = np.random.default_rng(8)
        cfg = AttentionConfig(4, 2, 8)
        for strategy in ("FusedKV", "DenseFusion", "FusedKV-Lite"):
            plan = plan_for_strategy(strategy, 6, 3)
            weights = init_normal(plan, 8, 8)
            stored = {j: cache_of(rng, 2, 5, 8, layer=j) for j in plan.storage_layers}
            q = Tensor(rng.standard_normal((4, 3, 8)))
            k, v = reconstruct(plan, weights, stored, 4)
            mat = attend(q, LayerCache(k, v, 4), cfg, np.arange(2, 5)).numpy()
            summed = attend(q, folded_cache(plan, weights, stored, 4), cfg, np.arange(2, 5)).numpy()
            assert np.array_equal(summed, mat), strategy

    def test_shift_invariance_end_to_end(self):
        rng = np.random.default_rng(9)
        sched = RopeSchedule(8)
        plan = plan_for_strategy("FusedKV", 4, 2)
        weights = init_normal(plan, 8, 10)
        cfg = AttentionConfig(2, 2, 8)
        raw_q = rng.standard_normal((2, 6, 8))
        raw = {j: (rng.standard_normal((2, 6, 8)), rng.standard_normal((2, 6, 8))) for j in (1, 2)}

        def run(shift, attend_rows):
            pos = np.arange(6) + shift
            srcs = {
                j: LayerCache(apply_rope(Tensor(raw[j][0]), pos, sched), Tensor(raw[j][1]), j)
                for j in (1, 2)
            }
            q = apply_rope(Tensor(raw_q), pos, sched)
            return attend_rows(q, folded_cache(plan, weights, srcs, 3), cfg, pos, pos)

        for attend_rows in (lambda *a: attend(*a).numpy(), by_row):
            assert np.abs(run(0, attend_rows) - run(7, attend_rows)).max() < 1e-10

    def test_mismatched_weight_lists_rejected(self):
        rng = np.random.default_rng(11)
        cfg = AttentionConfig(2, 2, 4)
        cache = cache_of(rng, 2, 2, 4)
        q = Tensor(rng.standard_normal((2, 2, 4)))
        value_terms = ((cache.values, Tensor(np.ones(4))),)
        with pytest.raises(DimensionError):  # no key terms
            attend(q, FoldedCache((), value_terms, 3), cfg, np.arange(2))
        with pytest.raises(DimensionError):  # weight length is not head_dim
            attend(q, FoldedCache(((cache.keys, Tensor(np.ones(3))),), value_terms, 3), cfg, np.arange(2))
        short = cache_of(rng, 2, 1, 4)
        with pytest.raises(DimensionError):  # terms of different cache lengths
            attend(q, FoldedCache(((cache.keys, None), (short.keys, None)), value_terms, 3), cfg, np.arange(2))


FOLDED_STRATEGIES = (
    ("FusedKV", "pair-symmetric key vectors, value vectors, two sources"),
    ("DenseFusion", "scalars over three sources"),
    ("YOCO", "direct reuse of one source"),
    ("FusedKV-Lite", "direct keys and values from different sources"),
    ("FusedKV-Lite-Learnable", "one weighted source each"),
)


class TestFoldedKernel:
    """The one kernel at H_q=4, H_kv=2 against `reconstruct` then the loop oracle."""

    @pytest.mark.parametrize("strategy", [s for s, _ in FOLDED_STRATEGIES])
    @pytest.mark.parametrize("s_q", [1, 3])
    def test_matches_reconstruct_and_loop_oracle(self, strategy, s_q):
        rng = np.random.default_rng([13, s_q])
        plan = plan_for_strategy(strategy, 6, 3)
        weights = init_normal(plan, 8, 14)
        cfg = AttentionConfig(4, 2, 8)
        s_k = 7
        stored = {j: cache_of(rng, 2, s_k, 8, layer=j) for j in plan.storage_layers}
        q = Tensor(rng.standard_normal((4, s_q, 8)))
        q_pos = np.arange(s_k - s_q, s_k)
        for i in plan.reconstruction_layers:
            k, v = reconstruct(plan, weights, stored, i)
            folded = attend(q, folded_cache(plan, weights, stored, i), cfg, q_pos).numpy()
            materialized = attend(q, LayerCache(k, v, i), cfg, q_pos).numpy()
            oracle = loop_attention(q.numpy(), k.numpy(), v.numpy(), 2, q_pos, np.arange(s_k))
            assert np.abs(folded - materialized).max() < 1e-12
            assert np.abs(folded - oracle).max() < 1e-12

    @staticmethod
    def weighted_fd_error(s_q, seed):
        """FD error of a FusedKV layer's gradients for an s_q-row query, with
        respect to the query, both source caches and all fusion weights."""
        rng = np.random.default_rng(seed)
        plan = plan_for_strategy("FusedKV", 4, 2)
        weights = init_normal(plan, 4, seed + 1)
        cfg = AttentionConfig(4, 2, 4)
        stored = {j: cache_of(rng, 2, 3, 4, layer=j) for j in (1, 2)}
        q = Tensor(rng.standard_normal((4, s_q, 4)))
        probe = rng.standard_normal((4, s_q, 4))
        params = [q]
        for c in stored.values():
            params += [c.keys, c.values]
        params += [weights.key[(3, j)].free for j in (1, 2)] + [weights.value[(3, j)] for j in (1, 2)]

        def loss():
            return (attend(q, folded_cache(plan, weights, stored, 3), cfg, np.arange(3 - s_q, 3)) * probe).sum()

        return grad_check(loss, params)

    def test_two_source_weighted_gradients_match_fd(self):
        # two query rows: the terms are summed on the tape, then attended
        assert self.weighted_fd_error(2, 15) < 1e-6

    def test_one_row_folded_gradients_match_fd(self):
        # one query row folds the weights: the hand-written backward of
        # folded_scores / folded_values
        assert self.weighted_fd_error(1, 17) < 1e-6


class TestGqaDegeneracy:
    def test_kv_equals_query_heads_reproduces_mha(self):
        rng = np.random.default_rng(12)
        cfg = AttentionConfig(4, 4, 8)
        cache = cache_of(rng, 4, 5, 8)
        q = Tensor(rng.standard_normal((4, 5, 8)))
        got = attend(q, cache, cfg, np.arange(5)).numpy()
        want = loop_attention(q.numpy(), cache.keys.numpy(), cache.values.numpy(), 1, np.arange(5), np.arange(5))
        assert np.abs(got - want).max() < 1e-12
