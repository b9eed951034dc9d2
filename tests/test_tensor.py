import re
import threading
import warnings

import numpy as np
import pytest

from crosskv.tensor import (
    FD_DTYPE,
    RMSNORM_EPS,
    DimensionError,
    EvaluationError,
    Tape,
    Tensor,
    add,
    cross_entropy,
    embed,
    grad_check,
    masked_softmax,
    matmul,
    matmul_t,
    mul,
    repeat,
    rmsnorm,
    swiglu,
    _sigmoid,
    _unchecked_ops,
)


def rand(*shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


def assert_same_bits(got, want):
    """Equal values and signs, so the same bits for finite values; bytes
    would also compare longdouble's padding, which no op writes."""
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32, FD_DTYPE], ids=["float64", "float32", "longdouble"])


def causal(s):
    """The causal mask of s rows over s columns: row r allows columns <= r."""
    return np.tril(np.ones((s, s), dtype=bool))


class TestTensorBasics:
    def test_shape_data_consistency(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.size == 4
        assert t.numpy().flags.c_contiguous

    def test_buffers_are_read_only(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.numpy()[0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            Tensor([1.0, np.inf])
        with pytest.raises(EvaluationError):
            Tensor([np.nan])

    def test_large_finite_entries_accepted(self):
        # the entries are finite, only their sum overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = Tensor(np.full(4, 1e308))
        assert np.array_equal(t.numpy(), np.full(4, 1e308))

    def test_infinity_beside_large_entries_rejected(self):
        with pytest.raises(EvaluationError):
            Tensor(np.array([1e308, 1e308, np.inf]))
        with pytest.raises(EvaluationError):
            Tensor(np.array([-1e308, np.nan, 1e308]))

    def test_zero_extent_rejected(self):
        with pytest.raises(DimensionError):
            Tensor(np.ones((2, 0)))

    def test_integer_input_promotes_to_float64(self):
        assert Tensor([1, 2, 3]).dtype == np.float64


class TestMatmul:
    def test_identity(self):
        x = rand(2, 3, seed=1)
        out = matmul(Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.numpy().tolist() == [[11.0]]

    @DTYPES
    @pytest.mark.parametrize("lead", [(1, 1), (8, 17), (3, 128)], ids=["step", "batch", "chunk"])
    def test_bit_equal_to_np_matmul_on_the_rows(self, dtype, lead):
        # the forward is `ndarray.dot` of the folded rows; np.matmul gave these bits before
        rng = np.random.default_rng(7)
        for k, n in ((64, 64), (64, 256), (128, 64), (8, 7)):
            a = rng.standard_normal(lead + (k,)).astype(dtype)
            b = rng.standard_normal((k, n)).astype(dtype)
            want = np.matmul(a.reshape(-1, k), b).reshape(lead + (n,))
            assert_same_bits(matmul(Tensor(a), Tensor(b)).numpy(), want)

    def test_backward_matches_finite_differences(self):
        # central differences, h=1e-5, double precision
        a, b = rand(4, 5, seed=2), rand(5, 3, seed=3)
        w = rand(4, 3, seed=4)
        err = grad_check(lambda: (matmul(a, b) * w).sum(), [a, b], h=1e-5)
        assert err < 1e-6

    # the right operand is a 2-D weight; a stack of matrices is refused, not batched
    @pytest.mark.parametrize("a, b", [((2, 3), (2, 3)), ((3, 4, 5), (3, 5, 2))], ids=["inner", "stacked"])
    def test_shape_mismatch_names_both_shapes(self, a, b):
        with pytest.raises(DimensionError, match=re.escape(f"{a} x {b}")):
            matmul(rand(*a), rand(*b))

    def test_rows_by_weight_against_per_slice(self):
        # a 2-D right operand folds the leading axes into rows: still each slice's own product
        a, b = rand(3, 4, 5, seed=10), rand(5, 2, seed=11)
        got = matmul(a, b).numpy()
        assert got.shape == (3, 4, 2)
        for i in range(3):
            np.testing.assert_allclose(got[i], a.numpy()[i] @ b.numpy(), rtol=0, atol=0)

    def test_rows_by_weight_gradients_sum_over_slices(self):
        a, b, probe = rand(3, 4, 5, seed=12), rand(5, 2, seed=13), rand(3, 4, 2, seed=14).numpy()
        with Tape() as tape:
            tape.watch(a), tape.watch(b)
            tape.backward((matmul(a, b) * probe).sum())
            da, db = tape.grad(a), tape.grad(b)
        want_db = sum(a.numpy()[i].T @ probe[i] for i in range(3))
        assert np.abs(db - want_db).max() <= 1e-12 * np.abs(want_db).max()
        want_da = np.stack([probe[i] @ b.numpy().T for i in range(3)])
        assert np.abs(da - want_da).max() <= 1e-12 * np.abs(want_da).max()

    def test_matmul_t_equals_explicit_transpose(self):
        a, b = rand(2, 4, 6, seed=7), rand(2, 3, 6, seed=8)
        want = np.matmul(a.numpy(), np.swapaxes(b.numpy(), -1, -2))
        np.testing.assert_array_equal(matmul_t(a, b).numpy(), want)
        w = rand(2, 4, 3, seed=9)
        err = grad_check(lambda: (matmul_t(a, b) * w).sum(), [a, b])
        assert err < 1e-6


class TestSoftmaxCausal:
    """`masked_softmax` under the causal mask: row r normalizes columns <= r."""

    def test_single_token(self):
        out = masked_softmax(Tensor([[3.7]]), causal(1), 1.0)
        assert out.numpy().tolist() == [[1.0]]

    def test_equal_scores_row(self):
        # row r=3 over equal scores: first four entries all 1/4
        scores = Tensor(np.full((5, 5), 2.0))
        out = masked_softmax(scores, causal(5), 1.0).numpy()
        np.testing.assert_allclose(out[3, :4], 0.25, rtol=0, atol=1e-15)
        assert out[3, 4] == 0.0

    def test_rows_sum_to_one(self):
        out = masked_softmax(rand(6, 6, seed=10), causal(6), 0.41).numpy()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_strictly_lower_triangular(self):
        out = masked_softmax(rand(7, 7, seed=11), causal(7), 1.3).numpy()
        assert np.all(out[np.triu_indices(7, 1)] == 0.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            masked_softmax(rand(3, 3), causal(3), 0.0)

    def test_backward_matches_finite_differences(self):
        s = rand(5, 5, seed=12)
        w = rand(5, 5, seed=13)
        err = grad_check(lambda: (masked_softmax(s, causal(5), 0.8) * w).sum(), [s])
        assert err < 1e-6


class TestMaskedSoftmax:
    def test_fully_masked_row_rejected(self):
        mask = np.array([[True, False], [False, False]])
        with pytest.raises(EvaluationError):
            masked_softmax(rand(2, 2), mask, 1.0)

    def test_broadcasts_over_heads(self):
        scores = rand(3, 4, 4, seed=14)
        mask = np.tril(np.ones((4, 4), dtype=bool))
        out = masked_softmax(scores, mask, 0.5).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def where_softmax(z, allowed):
    """The np.where masked softmax that `masked_softmax` replaced, as the reference."""
    with np.errstate(invalid="ignore"):
        masked = np.where(allowed, z, -np.inf)
        e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    e = np.where(allowed, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def two_branch_sigmoid(z):
    """The sigmoid that `_sigmoid` replaced, as the reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestKernelsMatchReference:
    """The in-place softmax and the one-exp sigmoid give the reference bits."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_softmax_bit_equal(self, dtype):
        rng = np.random.default_rng(30)
        single = np.zeros((5, 7), dtype=bool)
        single[np.arange(5), rng.integers(0, 7, 5)] = True  # one allowed entry per row
        cases = [
            (rng.standard_normal((6, 6)) * 4, causal(6)),
            (rng.standard_normal((3, 2, 6, 6)), causal(6)),  # one mask broadcast over leading axes
            (rng.standard_normal((2, 5, 7)), single),
            (rng.standard_normal((2, 4, 5)), (rng.random((2, 1, 5)) < 0.6) | (np.arange(5) == 2)),  # over rows
        ]
        for scores, mask in cases:
            t = Tensor(scores, dtype=dtype)
            want = where_softmax(t.numpy() * 0.7, np.broadcast_to(mask, t.shape))
            got = masked_softmax(t, mask, 0.7).numpy()
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bit_equal_without_overflow(self, dtype):
        z = np.concatenate([[800.0, -800.0, 0.0, -0.0, 40.0, -40.0], np.random.default_rng(31).standard_normal(64) * 9])
        z = z.astype(dtype)
        with np.errstate(over="raise"):
            got = _sigmoid(z)
        want = two_branch_sigmoid(z)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert got[:4].tolist() == [1.0, 0.0, 0.5, 0.5]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_bit_equal_to_the_where_form(self, dtype):
        # the np.where form `_sigmoid` used before its numerator became a second exp
        extremes = [0.0, -0.0, 700.0, -700.0, 1e300, -1e300]
        spread = np.random.default_rng(32).standard_normal(4096) * np.logspace(-8, 3, 4096)
        big = np.finfo(dtype).max  # 1e300 becomes float32's largest finite value
        z = np.clip(np.concatenate([extremes, spread, -spread]), -big, big).astype(dtype)
        e = np.exp(-np.abs(z))
        want = np.where(z >= 0, 1, e) / (1 + e)
        got = _sigmoid(z)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


class TestRmsnorm:
    @DTYPES
    @pytest.mark.parametrize("d", [1, 64, 256, 1000])
    def test_bit_equal_to_the_np_mean_form(self, dtype, d):
        # the mean square is a sum over the row divided by d; `.mean` gave these bits before
        rng = np.random.default_rng(d)
        x = (rng.standard_normal((3, 5, d)) * np.logspace(-3, 3, d)).astype(dtype)
        gain = rng.standard_normal(d).astype(dtype)
        mean_square = (x * x).mean(axis=-1, keepdims=True)
        assert_same_bits(np.add.reduce(x * x, axis=-1, keepdims=True) / d, mean_square)
        want = x * (1.0 / np.sqrt(mean_square + RMSNORM_EPS)) * gain
        assert_same_bits(rmsnorm(Tensor(x), Tensor(gain)).numpy(), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_bit_equal_to_the_out_of_place_form(self, dtype):
        # the backward writes into two buffers; this is the expression it replaced
        rng = np.random.default_rng(35)
        d = 64
        x, g = (rng.standard_normal((8, 17, d)).astype(dtype) for _ in range(2))
        gain = rng.standard_normal(d).astype(dtype)
        with Tape() as tape:
            xt, gt = tape.watch(Tensor(x)), tape.watch(Tensor(gain))
            tape.backward((rmsnorm(xt, gt) * Tensor(g)).sum())
        inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + RMSNORM_EPS)
        du = g * gain
        dot = (x * du).sum(axis=-1, keepdims=True)
        assert_same_bits(tape.grad(xt), inv * du - (inv**3 / d) * x * dot)
        assert_same_bits(tape.grad(gt), (g * (x * inv)).reshape(-1, d).sum(axis=0))

    def test_zeros_stay_zero(self):
        out = rmsnorm(Tensor(np.zeros((2, 4))), Tensor(np.ones(4)))
        assert np.all(out.numpy() == 0.0)

    def test_unit_input_unit_gain(self):
        out = rmsnorm(Tensor(np.ones((1, 4))), Tensor(np.ones(4)))
        np.testing.assert_allclose(out.numpy(), 1.0, atol=1e-6)

    def test_normalized_rms_is_one(self):
        x = rand(5, 8, seed=15)
        gain = rand(8, seed=16)
        out = rmsnorm(x, gain).numpy() / gain.numpy()
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-6)

    def test_overflowing_mean_square_is_named(self):
        # the squares overflow, so the mean square is inf; unchecked, the output would be all zeros
        x = Tensor(np.array([3e154, -4e154, 1.0, 2.0]))
        with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="rmsnorm"):
            rmsnorm(x, Tensor(np.ones(4)))

    def test_gain_length_mismatch(self):
        with pytest.raises(DimensionError):
            rmsnorm(rand(3, 4), Tensor(np.ones(5)))

    def test_backward_matches_finite_differences(self):
        x, gain = rand(3, 6, seed=17), rand(6, seed=18)
        w = rand(3, 6, seed=19)
        err = grad_check(lambda: (rmsnorm(x, gain) * w).sum(), [x, gain])
        assert err < 1e-6


class TestSwiglu:
    def test_zero_gate_zeroes_output(self):
        x = np.zeros((2, 6))
        x[:, 3:] = 5.0  # value half nonzero
        assert np.all(swiglu(Tensor(x)).numpy() == 0.0)

    def test_gate_saturation(self):
        # at gate 20 the gating sigmoid is 1 within 1e-6, so the output
        # equals gate * value to that tolerance
        value = np.array([[0.3, -1.2]])
        x = np.concatenate([np.full((1, 2), 20.0), value], axis=1)
        np.testing.assert_allclose(swiglu(Tensor(x)).numpy(), 20.0 * value, atol=1e-6)

    def test_odd_extent_rejected(self):
        with pytest.raises(DimensionError):
            swiglu(rand(2, 5))

    def test_backward_matches_finite_differences(self):
        x = rand(3, 8, seed=20)
        w = rand(3, 4, seed=21)
        err = grad_check(lambda: (swiglu(x) * w).sum(), [x])
        assert err < 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_bit_equals_the_concatenated_halves(self, dtype):
        # each half's last multiply writes into one array; the values are the
        # two halves' products, concatenated, to the bit
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 5, 8)), dtype=dtype)
        w = Tensor(rng.standard_normal((2, 5, 4)), dtype=dtype)
        with Tape() as tape:
            tape.watch(x)
            y = swiglu(x)
            tape.backward((y * w).sum())
        g, gate, val = tape.grad(y), x.numpy()[..., :4], x.numpy()[..., 4:]
        sig = _sigmoid(gate)
        want = np.concatenate([g * val * sig * (1.0 + gate * (1.0 - sig)), g * (gate * sig)], axis=-1)
        got = tape.grad(x)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


class TestGradCheck:
    def test_analytic_quadratic(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            tape.watch(x)
            loss = (x * x).sum()
            tape.backward(loss)
            np.testing.assert_allclose(tape.grad(x), [2.0, 4.0], atol=1e-12)
        assert grad_check(lambda: (x * x).sum(), [x]) < 1e-9

    def test_constant_objective_gives_zero_gradients(self):
        x = Tensor([1.0, 2.0])
        assert grad_check(lambda: Tensor(5.0), [x]) == 0.0

    def test_step_size_range_enforced(self):
        x = Tensor([1.0])
        with pytest.raises(ValueError):
            grad_check(lambda: (x * x).sum(), [x], h=1e-3)

    def test_finite_differences_keep_digits_float64_rounds_away(self):
        # x*x + 1e6 at x = 1e-3: float64 rounds the loss to ~1e-10, as large
        # as the change 4e-8 that 2h = 2e-5 makes, so its difference is useless
        h, x0 = 1e-5, 1e-3
        in_float64 = (((x0 + h) ** 2 + 1e6) - ((x0 - h) ** 2 + 1e6)) / (2 * h)
        assert abs(in_float64 - 2 * x0) / (2 * x0) > 1e-4
        x = Tensor([x0])
        assert grad_check(lambda: (x * x).sum() + 1e6, [x], h=h) < 1e-4

    def test_parameters_get_their_buffers_back(self):
        x = Tensor([1.0, 2.0])
        before = x.numpy()
        grad_check(lambda: (x * x).sum(), [x])
        assert x.numpy() is before and x.dtype == np.float64 and not before.flags.writeable

    def test_requires_double_precision(self):
        x = Tensor(np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError):
            grad_check(lambda: (x * x).sum(), [x])

    def test_nonfinite_objective_raises(self):
        x = Tensor([700.0])

        def f():
            y = x * x  # 490000; exp-free but force overflow via repeated squaring
            for _ in range(6):
                y = y * y
            return y.sum()

        with np.errstate(over="ignore"), pytest.raises(EvaluationError):
            grad_check(f, [x])


class TestTapeMechanics:
    def test_each_node_visited_once_and_fan_out(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        with Tape() as tape:
            tape.watch(x)
            y = x * 2.0
            loss = (y * y).sum()  # y consumed twice by one node
            z = y + 1.0  # and once more by a dead-end node
            tape.backward(loss)
            assert tape.fan_out(y) == 2
            np.testing.assert_allclose(tape.grad(x), 8.0 * x.numpy(), atol=1e-12)

    def test_unreached_leaf_has_zero_gradient(self):
        x, z = Tensor([1.0]), Tensor([2.0])
        with Tape() as tape:
            tape.watch(x)
            tape.watch(z)
            tape.backward((x * x).sum())
            assert np.all(tape.grad(z) == 0.0)

    def test_gradients_are_read_only(self):
        x, z = rand(2, 3, seed=23), Tensor([2.0])
        with Tape() as tape:
            tape.watch(x), tape.watch(z)
            tape.backward((x * x).sum())
            for g in (tape.grad(x), tape.grad(z)):  # reached, and never reached
                assert not g.flags.writeable
                with pytest.raises(ValueError):
                    g[...] = 0.0

    def test_shared_gradient_array_reaches_both_parents_whole(self):
        # `add` hands its one gradient array to both parents; x's later
        # contribution from the earlier `mul` must not write into it
        x, y, w = rand(2, 3, seed=24), rand(2, 3, seed=25), rand(2, 3, seed=26).numpy()
        with Tape() as tape:
            tape.watch(x), tape.watch(y)
            t = x * 3.0
            s = x + y
            tape.backward(add((s * w).sum(), t.sum()))
            np.testing.assert_array_equal(tape.grad(y), w)
            np.testing.assert_array_equal(tape.grad(x), w + 3.0)

    def test_add_of_a_tensor_to_itself_counts_twice(self):
        x, w = rand(2, 3, seed=27), rand(2, 3, seed=28).numpy()
        with Tape() as tape:
            tape.watch(x)
            tape.backward((add(x, x) * w).sum())
            np.testing.assert_array_equal(tape.grad(x), 2.0 * w)

    def test_gradients_bit_identical_across_replays(self):
        x = rand(4, 4, seed=22)

        def run():
            with Tape() as tape:
                tape.watch(x)
                loss = (masked_softmax(matmul(x, x), causal(4), 0.7) * x).sum()
                tape.backward(loss)
                return tape.grad(x).copy()

        assert np.array_equal(run(), run())

    def test_ops_outside_tape_are_untracked(self):
        x = Tensor([1.0])
        y = x * 3.0
        assert y.tape is None and y.node_id is None


class TestTapeThreads:
    def test_other_thread_records_nothing_on_an_open_tape(self):
        from crosskv.model import ModelConfig, build_model

        model = build_model(ModelConfig(n_layers=2, d_model=16, n_query_heads=2, n_kv_heads=2, vocab_size=8), seed=0)
        with Tape() as tape:
            for _, p in model.parameters():  # as a training step does
                tape.watch(p)
            before = len(tape.nodes)
            results = []
            worker = threading.Thread(target=lambda: results.append(model.decode(np.arange(4), 3)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive() and len(results) == 1
            assert len(tape.nodes) == before
            model.forward_loss(np.arange(4))
            assert len(tape.nodes) > before

    def test_interleaved_tapes_on_two_threads_nest_per_thread(self):
        entered = threading.Barrier(2, timeout=30)
        main_opened, other_closed = threading.Event(), threading.Event()
        outcome = []

        def other():
            try:
                with Tape():
                    entered.wait()
                    assert main_opened.wait(timeout=30)
                # closed while the main thread's tape, opened later, is still open
                outcome.append("ok")
            except Exception as e:  # reported to the main thread below
                outcome.append(e)
            finally:
                other_closed.set()

        t = threading.Thread(target=other)
        t.start()
        entered.wait()
        with Tape() as mine:
            main_opened.set()
            assert other_closed.wait(timeout=30)
            x = mine.watch(Tensor([3.0]))
            (x * x).sum()
        t.join(timeout=30)
        assert not t.is_alive()
        assert outcome == ["ok"]
        assert len(mine.nodes) == 3


class TestUncheckedOps:
    def test_unchecked_block_on_one_thread_leaves_another_checking(self):
        inside, release = threading.Event(), threading.Event()
        outcome = []

        def unchecked():
            with _unchecked_ops():
                with np.errstate(over="ignore"):
                    outcome.append(np.isinf((Tensor([1e300]) * Tensor([1e300])).numpy()).all())
                inside.set()
                release.wait(timeout=30)

        t = threading.Thread(target=unchecked)
        t.start()
        try:
            assert inside.wait(timeout=30)
            with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="^mul:"):
                Tensor([1e300]) * Tensor([1e300])
        finally:
            release.set()
            t.join(timeout=30)
        assert not t.is_alive() and outcome == [True]

    def test_checks_resume_after_the_block_raises(self):
        with pytest.raises(KeyError), _unchecked_ops():
            raise KeyError("inside")
        with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="^mul:"):
            Tensor([1e300]) * Tensor([1e300])


class TestBroadcastGradients:
    @pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
    def test_size_one_axis_sums_back(self, op):
        # a [1, D] operand against a [T, D] one: its gradient sums over T, kept as [1, D]
        row, full = rand(1, 6, seed=40), rand(5, 6, seed=41)
        w = rand(5, 6, seed=42)
        assert grad_check(lambda: (op(row, full) * w).sum(), [row, full]) < 1e-8
        assert grad_check(lambda: (op(full, row) * w).sum(), [row, full]) < 1e-8

    @pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
    def test_shapes_that_do_not_broadcast_are_named(self, op):
        with pytest.raises(DimensionError, match=rf"^{op.__name__}: shapes \(2, 3\) and \(4,\) do not broadcast$"):
            op(rand(2, 3), rand(4))


class TestStructuralOps:
    def test_repeat_groups_and_gradient(self):
        x = Tensor([[1.0], [2.0]])
        out = repeat(x, 3, axis=0)
        assert out.numpy().tolist() == [[1.0], [1.0], [1.0], [2.0], [2.0], [2.0]]
        y = rand(2, 3, seed=26)
        w = rand(4, 3, seed=27)
        err = grad_check(lambda: (repeat(y, 2, axis=0) * w).sum(), [y])
        assert err < 1e-8

    def test_embed_lookup_and_scatter_gradient(self):
        table = rand(5, 3, seed=28)
        ids = np.array([[0, 4], [4, 2]])
        out = embed(table, ids)
        np.testing.assert_array_equal(out.numpy()[1, 0], table.numpy()[4])
        err = grad_check(lambda: (embed(table, ids) * 0.5).sum(), [table])
        assert err < 1e-8
        with pytest.raises(ValueError):
            embed(table, np.array([5]))


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        logits = Tensor(np.zeros((3, 7)))
        loss = cross_entropy(logits, np.array([0, 3, 6]))
        np.testing.assert_allclose(loss.item(), np.log(7.0), atol=1e-12)

    def test_mask_selects_positions(self):
        logits = Tensor(np.zeros((2, 4)))
        full = cross_entropy(logits, np.array([1, 2]))
        half = cross_entropy(logits, np.array([1, 2]), mask=np.array([True, False]))
        np.testing.assert_allclose(full.item(), half.item(), atol=1e-12)
        with pytest.raises(EvaluationError):
            cross_entropy(logits, np.array([1, 2]), mask=np.array([False, False]))

    def test_backward_matches_finite_differences(self):
        logits = rand(4, 6, seed=29)
        targets = np.array([0, 5, 2, 2])
        err = grad_check(lambda: cross_entropy(logits, targets), [logits])
        assert err < 1e-7
