import math

import numpy as np
import pytest

from crosskv.attention import attend
from crosskv.rope import RopeSchedule, apply_rope
from crosskv.sharing import LayerCache, folded_cache, init_normal, plan_for_strategy, reconstruct
from crosskv.tensor import DimensionError, Tape, Tensor, grad_check


def cache_of(rng, h_kv, s, d, layer=1):
    return LayerCache.stored(
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
        cache = cache_of(rng, 3, 1, 4)
        q = Tensor(rng.standard_normal((3, 1, 4)))
        out = attend(q, cache)
        np.testing.assert_allclose(out.numpy(), cache.values.numpy(), atol=1e-15)

    def test_two_query_heads_share_one_kv_head(self):
        rng = np.random.default_rng(1)
        cache = cache_of(rng, 1, 3, 4)
        q_shared = rng.standard_normal((1, 3, 4))
        q = Tensor(np.concatenate([q_shared, q_shared], axis=0))
        out = attend(q, cache).numpy()
        np.testing.assert_array_equal(out[0], out[1])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        cache = cache_of(rng, 2, 2, 8)
        q = Tensor(rng.standard_normal((4, 2, 8)))
        got = attend(q, cache).numpy()
        want = loop_attention(q.numpy(), cache.keys.numpy(), cache.values.numpy(), 2, np.arange(2), np.arange(2))
        assert np.abs(got - want).max() < 1e-12

    @pytest.mark.parametrize("n_kv_heads", [8, 2])
    def test_prefill_chunk_at_the_serving_shape_matches_loop_oracle(self, n_kv_heads):
        # decode_long's third chunk: 128 query rows over 384 cache rows, 8 query heads, D = 32
        rng = np.random.default_rng([23, n_kv_heads])
        cache = cache_of(rng, n_kv_heads, 384, 32)
        q = Tensor(rng.standard_normal((8, 128, 32)))
        got = attend(q, cache).numpy()
        k, v = cache.keys.numpy(), cache.values.numpy()
        want = loop_attention(q.numpy(), k, v, 8 // n_kv_heads, np.arange(256, 384), np.arange(384))
        assert np.abs(got - want).max() <= 1e-12

    def test_causality_by_absolute_position(self):
        rng = np.random.default_rng(3)
        cache = cache_of(rng, 2, 5, 4)
        q = Tensor(rng.standard_normal((2, 5, 4)))
        base = attend(q, cache).numpy()
        zeroed_k = cache.keys.numpy().copy()
        zeroed_v = cache.values.numpy().copy()
        zeroed_k[:, 3:, :] = 0.0
        zeroed_v[:, 3:, :] = 0.0
        out = attend(q, LayerCache.stored(Tensor(zeroed_k), Tensor(zeroed_v), 1)).numpy()
        np.testing.assert_array_equal(out[:, :3], base[:, :3])

    def test_causality_of_a_chunk_with_grouped_heads(self):
        # a prefill chunk: 4 query rows at positions 3..6 of a 7-row cache,
        # two query heads per kv head; rows at positions 5 and 6 are the
        # future of the chunk's first two queries
        rng = np.random.default_rng(4)
        cache = cache_of(rng, 2, 7, 4)
        q = Tensor(rng.standard_normal((4, 4, 4)))
        base = attend(q, cache).numpy()
        zeroed_k = cache.keys.numpy().copy()
        zeroed_v = cache.values.numpy().copy()
        zeroed_k[:, 5:, :] = 0.0
        zeroed_v[:, 5:, :] = 0.0
        out = attend(q, LayerCache.stored(Tensor(zeroed_k), Tensor(zeroed_v), 1)).numpy()
        np.testing.assert_array_equal(out[:, :2], base[:, :2])
        assert not np.array_equal(out[:, 2:], base[:, 2:])

    def test_grouping_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        cache = cache_of(rng, 3, 2, 4)  # 3 kv heads cannot serve 4 query heads
        q = Tensor(rng.standard_normal((4, 2, 4)))
        with pytest.raises(DimensionError, match="4 query heads not divisible by 3 kv heads"):
            attend(q, cache)

    def test_odd_head_dim_matches_loop_oracle(self):
        # rotation needs an even head_dim; attention itself does not
        rng = np.random.default_rng(21)
        cache = cache_of(rng, 1, 4, 3)
        q = Tensor(rng.standard_normal((2, 4, 3)))
        want = loop_attention(q.numpy(), cache.keys.numpy(), cache.values.numpy(), 2, np.arange(4), np.arange(4))
        assert np.abs(attend(q, cache).numpy() - want).max() < 1e-12
        assert np.abs(by_row(q, cache) - want).max() < 1e-12

    @pytest.mark.parametrize(
        "q_shape, cache_lead, message",
        [
            ((3, 2, 4), (), "3 query heads not divisible by 2 kv heads"),
            ((2, 2, 6), (), "head_dim differ"),
            ((1, 2, 2, 4), (3,), "leading dims"),
            ((2, 4, 4), (), "4 query rows but only 3 cache rows"),
            ((1, 2, 4), (), "1 query heads not divisible by 2 kv heads"),
            ((2, 4), (), "not both"),
        ],
        ids=["query-heads", "head-dim", "leading-dims", "more-query-rows", "fewer-query-heads", "query-rank"],
    )
    def test_boundary_errors(self, q_shape, cache_lead, message):
        # every size comes from the operands: a cache of [*cache_lead, 2, 3, 4]
        rng = np.random.default_rng(22)
        shape = cache_lead + (2, 3, 4)
        cache = LayerCache.stored(Tensor(rng.standard_normal(shape)), Tensor(rng.standard_normal(shape)), 1)
        q = Tensor(rng.standard_normal(q_shape))
        with pytest.raises(DimensionError, match=message):
            attend(q, cache)


def first_rows(cache, n):
    """`cache`'s terms cut to their first n rows: what a query at position n - 1 sees."""

    def cut(terms):
        return tuple((Tensor(tensor.numpy()[..., :n, :]), weight) for tensor, weight in terms)

    return LayerCache(cut(cache.key_terms), cut(cache.value_terms), cache.layer)


def by_row(q, cache):
    """`attend` on one query row at a time, each on the cache rows up to its
    own, as a decode step runs: the kernel's folding path."""
    rows = [
        attend(Tensor(q.numpy()[..., t : t + 1, :]), first_rows(cache, t + 1)).numpy()
        for t in range(q.shape[-2])
    ]
    return np.concatenate(rows, axis=-2)


class TestAttendFused:
    """Weighted terms in the kernel, against the materialized cache. Several
    query rows take the summing path; `by_row` takes the folding path."""

    def test_single_source_unit_weights_equals_attend(self):
        rng = np.random.default_rng(6)
        cache = cache_of(rng, 2, 4, 8)
        q = Tensor(rng.standard_normal((2, 4, 8)))
        ones = LayerCache(
            ((cache.keys, Tensor(np.ones(8))),), ((cache.values, Tensor(np.ones(8))),), 3
        )
        fused = attend(q, ones).numpy()
        plain = attend(q, cache).numpy()
        np.testing.assert_allclose(fused, plain, atol=1e-14)
        np.testing.assert_allclose(by_row(q, ones), plain, atol=1e-14)

    def test_matches_materialize_then_attend(self):
        rng = np.random.default_rng(7)
        plan = plan_for_strategy("FusedKV", 4, 2)
        weights = init_normal(plan, 8, 8)
        stored = {j: cache_of(rng, 2, 5, 8, layer=j) for j in (1, 2)}
        q = Tensor(rng.standard_normal((4, 5, 8)))
        k, v = reconstruct(plan, weights, stored, 3)
        terms = folded_cache(plan, weights, stored, 3)
        mat = attend(q, LayerCache.stored(k, v, 3)).numpy()
        assert np.abs(mat - attend(q, terms).numpy()).max() < 1e-12
        assert np.abs(mat - by_row(q, terms)).max() < 1e-12

    def test_several_rows_sum_the_terms_as_reconstruct_does(self):
        # a multi-row query sums each side's terms once, with reconstruct's ops
        rng = np.random.default_rng(8)
        for strategy in ("FusedKV", "DenseFusion", "FusedKV-Lite"):
            plan = plan_for_strategy(strategy, 6, 3)
            weights = init_normal(plan, 8, 8)
            stored = {j: cache_of(rng, 2, 5, 8, layer=j) for j in plan.storage_layers}
            q = Tensor(rng.standard_normal((4, 3, 8)))
            k, v = reconstruct(plan, weights, stored, 4)
            mat = attend(q, LayerCache.stored(k, v, 4)).numpy()
            summed = attend(q, folded_cache(plan, weights, stored, 4)).numpy()
            assert np.array_equal(summed, mat), strategy

    def test_shift_invariance_end_to_end(self):
        rng = np.random.default_rng(9)
        sched = RopeSchedule(8)
        plan = plan_for_strategy("FusedKV", 4, 2)
        weights = init_normal(plan, 8, 10)
        raw_q = rng.standard_normal((2, 6, 8))
        raw = {j: (rng.standard_normal((2, 6, 8)), rng.standard_normal((2, 6, 8))) for j in (1, 2)}

        def run(shift, attend_rows):
            pos = np.arange(6) + shift
            srcs = {
                j: LayerCache.stored(apply_rope(Tensor(raw[j][0]), pos, sched), Tensor(raw[j][1]), j)
                for j in (1, 2)
            }
            q = apply_rope(Tensor(raw_q), pos, sched)
            return attend_rows(q, folded_cache(plan, weights, srcs, 3))

        for attend_rows in (lambda *a: attend(*a).numpy(), by_row):
            assert np.abs(run(0, attend_rows) - run(7, attend_rows)).max() < 1e-10

    def test_mismatched_weight_lists_rejected(self):
        rng = np.random.default_rng(11)
        cache = cache_of(rng, 2, 2, 4)
        q = Tensor(rng.standard_normal((2, 2, 4)))
        value_terms = ((cache.values, Tensor(np.ones(4))),)
        with pytest.raises(DimensionError):  # no key terms
            attend(q, LayerCache((), value_terms, 3))
        with pytest.raises(DimensionError):  # weight length is not head_dim
            attend(q, LayerCache(((cache.keys, Tensor(np.ones(3))),), value_terms, 3))
        short = cache_of(rng, 2, 1, 4)
        with pytest.raises(DimensionError):  # terms of different cache lengths
            attend(q, LayerCache(((cache.keys, None), (short.keys, None)), value_terms, 3))


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
        s_k = 7
        stored = {j: cache_of(rng, 2, s_k, 8, layer=j) for j in plan.storage_layers}
        q = Tensor(rng.standard_normal((4, s_q, 8)))
        q_pos = np.arange(s_k - s_q, s_k)
        for i in plan.reconstruction_layers:
            k, v = reconstruct(plan, weights, stored, i)
            folded = attend(q, folded_cache(plan, weights, stored, i)).numpy()
            materialized = attend(q, LayerCache.stored(k, v, i)).numpy()
            oracle = loop_attention(q.numpy(), k.numpy(), v.numpy(), 2, q_pos, np.arange(s_k))
            assert np.abs(folded - materialized).max() < 1e-12
            assert np.abs(folded - oracle).max() < 1e-12

    @staticmethod
    def weighted_fd_error(s_q, seed, s_k=3):
        """FD error of a FusedKV layer's gradients for an s_q-row query, with
        respect to the query, both source caches and all fusion weights."""
        rng = np.random.default_rng(seed)
        plan = plan_for_strategy("FusedKV", 4, 2)
        weights = init_normal(plan, 4, seed + 1)
        stored = {j: cache_of(rng, 2, s_k, 4, layer=j) for j in (1, 2)}
        q = Tensor(rng.standard_normal((4, s_q, 4)))
        probe = rng.standard_normal((4, s_q, 4))
        params = [q]
        for c in stored.values():
            params += [c.keys, c.values]
        params += [weights[f"fusion.{cache}.3.{j}"] for cache in ("key", "value") for j in (1, 2)]

        def loss():
            return (attend(q, folded_cache(plan, weights, stored, 3)) * probe).sum()

        return grad_check(loss, params)

    def test_two_source_weighted_gradients_match_fd(self):
        # two query rows: the terms are summed on the tape, then attended
        assert self.weighted_fd_error(2, 15) < 1e-6

    def test_recording_one_row_gradients_match_fd(self):
        # one query row under a recording tape sums the terms, as several
        # rows do; the finite differences run tape-free, so they fold
        assert self.weighted_fd_error(1, 17) < 1e-6

    @pytest.mark.parametrize("strategy", ["FusedKV", "DenseFusion"])
    def test_recording_one_row_matches_the_tape_free_fold(self, strategy):
        rng = np.random.default_rng(18)
        plan = plan_for_strategy(strategy, 4, 2)
        weights = init_normal(plan, 8, 19)
        stored = {j: cache_of(rng, 2, 5, 8, layer=j) for j in (1, 2)}
        q = Tensor(rng.standard_normal((4, 1, 8)))
        folded = attend(q, folded_cache(plan, weights, stored, 3))
        with Tape() as tape:
            tape.watch(q)
            summed = attend(q, folded_cache(plan, weights, stored, 3))
        assert folded.tape is None and summed.tape is tape
        assert np.abs(summed.numpy() - folded.numpy()).max() < 1e-12

    def test_prefill_chunk_gradients_match_fd(self):
        # 3 query rows against 6 cache rows: the causal mask cuts only the
        # chunk's last 3 columns, tiled over 2 query heads per kv head
        assert self.weighted_fd_error(3, 19, s_k=6) < 1e-6
        rng = np.random.default_rng(20)
        cache = cache_of(rng, 2, 6, 4)
        q = Tensor(rng.standard_normal((4, 3, 4)))
        probe = rng.standard_normal((4, 3, 4))
        err = grad_check(lambda: (attend(q, cache) * probe).sum(), [q, cache.keys, cache.values])
        assert err < 1e-6
