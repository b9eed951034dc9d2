import numpy as np
import pytest

from crosskv.rope import (
    RopeSchedule,
    _rotation_tables,
    apply_rope,
    expand_pairs,
    fused_key_score,
    score_decomposed,
    score_direct,
)
from crosskv.tensor import FD_DTYPE, DimensionError, Tape, Tensor, grad_check

SCHED = RopeSchedule(8)


class TestSchedule:
    def test_angles_start_at_one_and_decrease(self):
        angles = RopeSchedule(16).angles
        assert angles[0] == 1.0
        assert np.all(np.diff(angles) < 0)

    def test_base_is_configurable(self):
        assert RopeSchedule(8, base=500.0).angles[1] == pytest.approx(500.0 ** (-2 / 8))

    def test_odd_head_dim_rejected(self):
        with pytest.raises(DimensionError):
            RopeSchedule(7)


class TestApplyRope:
    def test_position_zero_is_identity(self):
        x = np.random.default_rng(0).standard_normal((1, 8))
        out = apply_rope(Tensor(x), np.array([0]), SCHED)
        np.testing.assert_array_equal(out.numpy(), x)

    def test_direct_rotation_d2(self):
        sched = RopeSchedule(2)  # single subspace, angle rate 1
        out = apply_rope(Tensor([[1.0, 0.0]]), np.array([1]), sched).numpy()
        np.testing.assert_allclose(out, [[np.cos(1.0), np.sin(1.0)]], atol=1e-15)

    def test_negative_positions_rejected(self):
        with pytest.raises(ValueError):
            apply_rope(Tensor(np.ones((1, 8))), np.array([-1]), SCHED)

    def test_positions_beyond_int64_rejected(self):
        # a uint64 position from 2**63 on would wrap to a negative int64 one
        x = Tensor(np.random.default_rng(1).standard_normal((2, 8)))
        with pytest.raises(ValueError, match=r"got 9223372036854775808$"):
            apply_rope(x, np.array([1, 2**63], dtype=np.uint64), SCHED)
        in_range = apply_rope(x, np.array([1, 2**40], dtype=np.uint64), SCHED).numpy()
        np.testing.assert_array_equal(in_range, apply_rope(x, np.array([1, 2**40]), SCHED).numpy())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, FD_DTYPE], ids=["float64", "float32", "longdouble"])
    def test_bit_equal_to_float64_tables_cast_per_call(self, dtype):
        # the tables are cached in each dtype; before, float64 tables were cast on every call
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 6, 8)).astype(dtype)
        pos = np.array([0, 1, 7, 100, 5000, 127])
        phase = pos[:, None].astype(np.float64) * SCHED.angles[None, :]
        cos, sin = np.cos(phase).astype(dtype), np.sin(phase).astype(dtype)
        want = np.empty_like(x)
        want[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        want[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        got = apply_rope(Tensor(x), pos, SCHED).numpy()
        assert got.dtype == want.dtype == dtype
        # equal values and signs: the same bits (longdouble's padding bytes are never written)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_one_table_miss_per_positions_and_dtype(self):
        _rotation_tables.cache_clear()
        x64, x32 = Tensor(np.ones((2, 8))), Tensor(np.ones((2, 8), dtype=np.float32))
        pos = np.array([3, 9])
        for x, new_pos, misses in ((x64, pos, 1), (x64, pos, 1), (x32, pos, 2), (x32, np.array([3, 10]), 3), (x64, pos, 3)):
            apply_rope(x, new_pos, SCHED)
            assert _rotation_tables.cache_info().misses == misses

    def test_float_positions_rejected(self):
        with pytest.raises(TypeError, match="positions must be integers"):
            apply_rope(Tensor(np.ones((2, 8))), np.array([0.0, 1.0]), SCHED)

    def test_dimension_mismatchherto_rejected(self):
        with pytest.raises(DimensionError):
            apply_rope(Tensor(np.ones((1, 6))), np.array([0]), SCHED)
        with pytest.raises(DimensionError):
            apply_rope(Tensor(np.ones((2, 8))), np.array([0]), SCHED)

    def test_backward_rotates_gradient_back(self):
        x = Tensor(np.random.default_rng(2).standard_normal((3, 8)))
        w = Tensor(np.random.default_rng(3).standard_normal((3, 8)))
        pos = np.array([0, 5, 11])
        err = grad_check(lambda: (apply_rope(x, pos, SCHED) * w).sum(), [x])
        assert err < 1e-7


def four_multiply_rotation(x, g, cos, sin):
    """The rotation and its backward as written before the interleaved tables:
    four products over the even/odd half-views, the oracle for `apply_rope`."""
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty(x.shape, x.dtype)
    out_even, out_odd = out[..., 0::2], out[..., 1::2]
    np.multiply(even, cos, out=out_even)
    out_even -= odd * sin
    np.multiply(even, sin, out=out_odd)
    out_odd += odd * cos
    ge, go = g[..., 0::2], g[..., 1::2]
    dx = np.empty_like(g)
    dx[..., 0::2] = ge * cos + go * sin
    dx[..., 1::2] = -ge * sin + go * cos
    return out, dx


class TestInterleavedKernel:
    """`apply_rope`'s three-call kernel gives the four-multiply rotation's
    values and gradients bit for bit (signs of zero included)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize(
        "shape",
        [(1, 8, 1, 8), (1, 2, 1, 8), (8, 8, 17, 8), (8, 2, 17, 8), (1, 8, 128, 32), (3, 4, 6, 2)],
        ids=["one-row", "one-row-gqa", "multi-row", "multi-row-gqa", "prefill-chunk", "d2"],
    )
    def test_forward_and_backward_match_four_multiplies(self, dtype, shape):
        rng = np.random.default_rng(sum(shape))
        sched = RopeSchedule(shape[-1])
        x, probe = (rng.standard_normal(shape).astype(dtype) for _ in range(2))
        x[..., 0, :2] = (0.0, -0.0)  # signed zeros keep their sign
        pos = rng.integers(0, 5000, size=shape[-2])
        phase = pos[:, None].astype(np.float64) * sched.angles[None, :]
        want, want_dx = four_multiply_rotation(x, probe, np.cos(phase).astype(dtype), np.sin(phase).astype(dtype))
        with Tape() as tape:
            xt = tape.watch(Tensor(x))
            out = apply_rope(xt, pos, sched)
            tape.backward((out * Tensor(probe)).sum())
        for got, ref in ((out.numpy(), want), (tape.grad(xt), want_dx)):
            assert got.dtype == ref.dtype == dtype
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


class TestScoreIdentity:
    def test_same_position_unit_weights_is_dot_product(self):
        rng = np.random.default_rng(4)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        got = score_decomposed(q, k, 3, 3, np.ones(8), SCHED)
        np.testing.assert_allclose(got, q @ k, atol=1e-12)
        got_direct = score_direct(q, k, 0, 0, np.ones(8), SCHED)
        np.testing.assert_allclose(got_direct, q @ k, atol=1e-12)

    def test_single_pair_weight_on_d2(self):
        sched = RopeSchedule(2)
        rng = np.random.default_rng(6)
        q, k = rng.standard_normal(2), rng.standard_normal(2)
        w = np.array([1.0, 0.0])
        d = score_direct(q, k, 2, 1, w, sched)
        s = score_decomposed(q, k, 2, 1, w, sched)
        assert abs(d - s) < 1e-12

    def test_symmetric_weights_shift_invariant(self):
        rng = np.random.default_rng(7)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        w = np.repeat(rng.standard_normal(4), 2)
        a = score_direct(q, k, 3, 1, w, SCHED)
        b = score_direct(q, k, 7, 5, w, SCHED)
        assert abs(a - b) < 1e-12


class TestPairSymmetricWeight:
    """A key fusion weight is its D/2 free values, expanded by `expand_pairs`."""

    def test_expansion_is_exactly_pairwise_equal(self):
        e = expand_pairs(Tensor([0.3, -1.7, 2.2, 0.0001])).numpy()
        assert np.array_equal(e[0::2], e[1::2])
        assert e.shape == (8,)

    def test_gradients_accumulate_into_free_vector(self):
        free = Tensor([1.0, 2.0])
        with Tape() as tape:
            tape.watch(free)
            e = expand_pairs(free)
            loss = (e * Tensor([1.0, 10.0, 100.0, 1000.0])).sum()
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(free), [11.0, 1100.0], atol=1e-12)


class TestFusedKeyScore:
    def test_single_source_unit_weights_equals_direct(self):
        rng = np.random.default_rng(8)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        fused = fused_key_score(q, [k], (5, 2), [np.ones(4)], SCHED)
        assert abs(fused - score_direct(q, k, 5, 2, np.ones(8), SCHED)) < 1e-12

    def test_linearity_over_sources(self):
        rng = np.random.default_rng(9)
        q = rng.standard_normal(8)
        keys = [rng.standard_normal(8) for _ in range(2)]
        weights = [rng.standard_normal(4) for _ in range(2)]
        fused = fused_key_score(q, keys, (6, 3), weights, SCHED)
        summed = sum(
            score_direct(q, keys[i], 6, 3, np.repeat(weights[i], 2), SCHED)
            for i in range(2)
        )
        assert abs(fused - summed) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        q = rng.standard_normal(8)
        keys = [rng.standard_normal(8) for _ in range(3)]
        weights = [rng.standard_normal(4) for _ in range(3)]
        a = fused_key_score(q, keys, (9, 4), weights, SCHED)
        b = fused_key_score(q, keys, (14, 9), weights, SCHED)
        assert abs(a - b) < 1e-10

    def test_mismatched_lists_rejected(self):
        with pytest.raises(DimensionError):
            fused_key_score(np.ones(8), [np.ones(8)], (1, 0), [], SCHED)

    def test_weight_of_full_width_rejected(self):
        # a weight is its D/2 free values; a length-D vector is not one
        with pytest.raises(DimensionError, match="free weight"):
            fused_key_score(np.ones(8), [np.ones(8)], (1, 0), [np.ones(8)], SCHED)
