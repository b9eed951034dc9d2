"""Dense tensors with tape-based reverse-mode autodiff.

Everything in this package computes through `Tensor`, a thin immutable
wrapper over a row-major numpy array. When a `Tape` is active (used as a
context manager), every operation on a watched tensor records a `Node`;
nodes are appended in execution order, so the tape is a DAG already in
topological order and `Tape.backward` is a single reverse sweep that
visits each node exactly once. Gradients are read-only arrays: the sweep
stores a node's first contribution without copying it and adds later ones
out of place, so an array one backward hands to two parents stays whole.

Outside a tape, the same functions are plain (and fast) numpy calls, which
is the path incremental decoding uses.

Conventions:
  - `Tensor._wrap` adopts arrays without a copy; reshapes and transposes
    copy, so the one strided view is a storage layer's decode cache, a row
    prefix `buf[..., :n, :]` of a buffer (`sharing.LayerCache.buffered`),
  - `matmul`'s right operand is a 2-D weight: one GEMM over all rows,
  - backward closures capture arrays and shapes, never a recorded Tensor
    (which points at its tape), so a step's graph dies with its tape,
  - float64 is the default dtype (float32 is opt-in for training;
    longdouble serves `grad_check`'s finite differences),
  - non-finite values raise `EvaluationError` naming the op that made
    them. Each op checks its result, except inside `_unchecked_ops`:
    there the caller checks what the block gives back once (a tape-free
    decoder layer, `model.DecoderModel._checked_once`), and on a
    non-finite value re-runs it with each op checking. The ops that could
    turn a non-finite input into a finite output check that input on
    their own: `rmsnorm`'s mean square, the attention scores before their
    exp, and a cache append.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "EvaluationError",
    "Tensor",
    "Tape",
    "add",
    "mul",
    "matmul",
    "matmul_t",
    "repeat",
    "tsum",
    "masked_softmax",
    "rmsnorm",
    "swiglu",
    "embed",
    "cross_entropy",
    "grad_check",
    "record_op",
    "FD_DTYPE",
]

RMSNORM_EPS = 1e-6

# `grad_check`'s finite-difference dtype: 80-bit extended on x86-64 Linux
# (eps 1.1e-19); where longdouble is float64, the oracle runs in float64.
FD_DTYPE = np.dtype(np.longdouble)
# float32 and float64 for models; FD_DTYPE for `grad_check`'s finite differences.
_DTYPES = (np.dtype(np.float32), np.dtype(np.float64), FD_DTYPE)


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class EvaluationError(RuntimeError):
    """A computation produced, or was fed, non-finite values."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    # Entry by entry, not through one sum: a sum overflows (and warns) on
    # large finite entries such as 1e308, and is no faster.
    if not np.isfinite(arr).all():
        raise EvaluationError(f"{op}: result contains non-finite entries")


class Tensor:
    """Immutable dense array: row-major data plus optional tape tracking.

    The underlying buffer is flagged read-only on construction; value
    immutability is what makes tensors safe to share across threads and
    to alias in direct cache reuse.
    """

    __slots__ = ("data", "tape", "node_id")

    # Make numpy defer to the reflected operators below instead of trying
    # (and failing) to treat a Tensor as an array of objects.
    __array_ufunc__ = None

    def __init__(self, data, dtype=None):
        arr = np.array(data, dtype=dtype, order="C")
        if arr.dtype.kind in "iub":
            arr = arr.astype(np.float64)
        if arr.dtype not in _DTYPES:
            raise TypeError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        if any(e <= 0 for e in arr.shape):
            raise DimensionError(f"extents must be positive, got shape {arr.shape}")
        _check_finite(arr, "tensor")
        arr.setflags(write=False)
        self.data = arr
        self.tape: Tape | None = None
        self.node_id: int | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, op: str) -> "Tensor":
        """Adopt an op's result, or a cache buffer's row-prefix view, read-only and without a copy."""
        t = object.__new__(cls)
        if arr.size == 0:  # numpy extents are nonnegative, so this is `any extent == 0`
            raise DimensionError(f"{op}: extents must be positive, got {arr.shape}")
        if _THREAD.check_ops:
            _check_finite(arr, op)
        arr.setflags(write=False)
        t.data = arr
        t.tape = None
        t.node_id = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"

    # Arithmetic sugar; scalars and arrays are lifted to untracked constants.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        return tsum(self)


class Node:
    """One recorded operation: id is the position in the tape."""

    __slots__ = ("op", "parents", "backward", "shape")

    def __init__(self, op: str, parents: tuple[int, ...], backward, shape):
        self.op = op
        self.parents = parents
        self.backward = backward  # grad_out -> tuple of parent grads (or None)
        self.shape = shape


class _ThreadState(threading.local):
    """The calling thread's active tapes, innermost last, and whether each
    op checks its own result finite."""

    def __init__(self):
        self.tapes: list["Tape"] = []
        self.check_ops = True


_THREAD = _ThreadState()


def _active_tape() -> "Tape | None":
    tapes = _THREAD.tapes
    return tapes[-1] if tapes else None


@contextmanager
def _unchecked_ops():
    """On the calling thread, ops skip the finite check of their results
    (`record_op`), and the caller checks what the block gives back. The
    checks ops make of their own (`rmsnorm`'s mean square, the attention
    scores, a cache append) still run."""
    state = _THREAD
    before, state.check_ops = state.check_ops, False
    try:
        yield
    finally:
        state.check_ops = before


class Tape:
    """Gradient tape. Nodes are topologically ordered because they are
    appended at creation time. Each thread has its own stack of active
    tapes, so operations on one thread never record onto a tape another
    thread has open; one tape is used by one thread."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._grads: list[np.ndarray | None] | None = None

    def __enter__(self) -> "Tape":
        _THREAD.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _THREAD.tapes.pop()
        assert popped is self, "tape contexts must nest"

    def watch(self, t: Tensor) -> Tensor:
        """Register a tensor as a differentiable leaf of this tape."""
        if t.tape is self and t.node_id is not None:
            return t
        t.tape = self
        t.node_id = self._record("leaf", (), None, t.shape)
        return t

    def _record(self, op: str, parents: tuple[int, ...], backward, shape) -> int:
        self.nodes.append(Node(op, parents, backward, shape))
        return len(self.nodes) - 1

    def backward(self, out: Tensor) -> None:
        """Reverse sweep from `out` (a tracked scalar); fills gradient slots.

        A node's first gradient contribution is kept as it is, not copied;
        later ones are added out of place. An op's backward may hand one
        array to several parents (`add` gives both the gradient it got), so
        every stored gradient is flagged read-only and never written."""
        if out.tape is not self or out.node_id is None:
            raise ValueError("backward target is not tracked on this tape")
        if out.size != 1:
            raise DimensionError(f"backward target must be scalar, got {out.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        seed = np.ones(out.shape, dtype=out.dtype)
        seed.setflags(write=False)
        grads[out.node_id] = seed
        for nid in range(len(self.nodes) - 1, -1, -1):
            g = grads[nid]
            node = self.nodes[nid]
            if g is None or node.backward is None:
                continue
            contribs = node.backward(g)
            for pid, pg in zip(node.parents, contribs):
                if pid < 0 or pg is None:
                    continue
                pshape = self.nodes[pid].shape
                if pg.shape != pshape:
                    raise DimensionError(
                        f"{node.op}: gradient shape {pg.shape} != value shape {pshape}"
                    )
                acc = pg if grads[pid] is None else grads[pid] + pg
                acc.setflags(write=False)
                grads[pid] = acc
        self._grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of a tracked tensor, read-only (zeros if the sweep never reached it)."""
        if t.tape is not self or t.node_id is None:
            raise ValueError("tensor is not tracked on this tape")
        if self._grads is None:
            raise RuntimeError("call backward() before grad()")
        g = self._grads[t.node_id]
        if g is None:
            g = np.zeros(t.shape, dtype=t.dtype)
            g.setflags(write=False)
        return g

    def fan_out(self, t: Tensor) -> int:
        """Number of recorded operations that consume `t` directly."""
        if t.tape is not self or t.node_id is None:
            return 0
        nid = t.node_id
        return sum(1 for node in self.nodes if nid in node.parents)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def record_op(
    op: str,
    out: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], tuple],
) -> Tensor:
    """Wrap an op result, recording a node when any parent is tracked.

    `backward(grad_out)` must return one gradient array (or None) per
    parent, in order, and should capture arrays and shapes, not the
    parent tensors. This is the extension point other modules use to
    define differentiable operations of their own.
    """
    t = Tensor._wrap(out, op)
    tape = _active_tape()
    if tape is None:
        return t
    pids = tuple(
        p.node_id if (p.tape is tape and p.node_id is not None) else -1 for p in parents
    )
    if all(pid < 0 for pid in pids):
        return t
    t.tape = tape
    t.node_id = tape._record(op, pids, backward, t.shape)
    return t


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return record_op("add", out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    a_data, b_data = a.data, b.data

    def backward(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return record_op("mul", out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Product [..., K] x [K, N] -> [..., N] of an activation and a 2-D weight.

    The leading axes of `a` fold into rows: [..., K] is one [rows, K]
    matrix, so the forward is one GEMM and the backward two, dA = G·Bᵀ and
    dB = A_rowsᵀ·G_rows. Any other right operand raises `DimensionError`.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul needs [..., K] x [K, N], got {a.shape} x {b.shape}")
    rows, b_data, a_shape = a.data.reshape(-1, a.shape[-1]), b.data, a.shape
    out = np.matmul(rows, b_data).reshape(a_shape[:-1] + b.shape[-1:])

    def backward(g):
        g_rows = g.reshape(-1, g.shape[-1])
        return np.matmul(g_rows, b_data.T).reshape(a_shape), np.matmul(rows.T, g_rows)

    return record_op("matmul", out, (a, b), backward)


def matmul_t(a, b) -> Tensor:
    """a @ b with b transposed on its last two axes: [..., m, k] x [..., n, k]
    -> [..., m, n]. Saves materializing the transpose (dA = dC·B, dB = dCᵀ·A)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul_t needs rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"matmul_t: inner extents differ: {a.shape} x {b.shape}")
    try:
        out = np.matmul(a.data, np.swapaxes(b.data, -1, -2))
    except ValueError:
        raise DimensionError(f"matmul_t: batch extents differ: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def backward(g):
        da = _unbroadcast(np.matmul(g, b_data), a_data.shape)
        db = _unbroadcast(np.matmul(np.swapaxes(g, -1, -2), a_data), b_data.shape)
        return da, db

    return record_op("matmul_t", out, (a, b), backward)


def repeat(a, n: int, axis: int) -> Tensor:
    """Repeat each index along `axis` n times (contiguous groups)."""
    a = _as_tensor(a)
    axis = axis % a.ndim
    out = np.repeat(a.data, n, axis=axis)
    shp = a.shape

    def backward(g):
        grouped = g.reshape(shp[:axis] + (shp[axis], n) + shp[axis + 1 :])
        return (grouped.sum(axis=axis + 1),)

    return record_op("repeat", out, (a,), backward)


def tsum(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=a.dtype)
    shp, dt = a.shape, a.dtype

    def backward(g):
        return (np.full(shp, g.reshape(()), dtype=dt),)

    return record_op("sum", out, (a,), backward)


def masked_softmax(scores, allowed: np.ndarray, scale_factor: float) -> Tensor:
    """Softmax over the last axis of `scale_factor * scores`, restricted to
    the boolean mask `allowed` (broadcast against the score shape). Entries
    outside the mask are exactly zero."""
    scores = _as_tensor(scores)
    if scale_factor <= 0:
        raise ValueError(f"scale must be positive, got {scale_factor}")
    allowed = np.asarray(allowed, dtype=bool)
    if not allowed.any(axis=-1).all():
        raise EvaluationError("masked_softmax: a row has no allowed entries")
    # in place on a fresh array; exp(-inf - finite row max) is exactly 0
    p = scores.data * scale_factor
    with np.errstate(invalid="ignore"):
        np.copyto(p, -np.inf, where=~np.broadcast_to(allowed, scores.shape))
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (p * g).sum(axis=-1, keepdims=True)
        return (scale_factor * p * (g - inner),)

    return record_op("masked_softmax", p, (scores,), backward)


def rmsnorm(x, gain) -> Tensor:
    """Normalize each last-axis vector by its RMS, then scale by `gain`."""
    x, gain = _as_tensor(x), _as_tensor(gain)
    if gain.ndim != 1 or x.shape[-1] != gain.shape[0]:
        raise DimensionError(f"rmsnorm: gain {gain.shape} does not match last extent of {x.shape}")
    d = x.shape[-1]
    mean_square = (x.data * x.data).mean(axis=-1, keepdims=True)
    _check_finite(mean_square, "rmsnorm")  # an overflowed mean square would zero the output silently
    inv = 1.0 / np.sqrt(mean_square + RMSNORM_EPS)
    normed = x.data * inv
    out = normed * gain.data
    x_data, gain_data = x.data, gain.data

    def backward(g):
        du = g * gain_data
        dot = (x_data * du).sum(axis=-1, keepdims=True)
        dx = inv * du - (inv**3 / d) * x_data * dot
        dgain = (g * normed).reshape(-1, d).sum(axis=0)
        return dx, dgain

    return record_op("rmsnorm", out, (x, gain), backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows.
    # The numerator is a second exp: np.where(z >= 0, 1, e) gives its bits at ~4x the cost.
    e = np.exp(-np.abs(z))
    return np.exp(np.minimum(z, 0.0)) / (1 + e)


def swiglu(x) -> Tensor:
    """Gated activation: split the last axis in half, silu(gate) * value."""
    x = _as_tensor(x)
    if x.shape[-1] % 2 != 0:
        raise DimensionError(f"swiglu needs an even last extent, got {x.shape}")
    h = x.shape[-1] // 2
    gate = x.data[..., :h]
    val = x.data[..., h:]
    sig = _sigmoid(gate)
    silu = gate * sig
    out = silu * val

    def backward(g):
        dx = np.empty(g.shape[:-1] + (2 * h,), dtype=np.result_type(g, gate))
        np.multiply(g * val * sig, 1.0 + gate * (1.0 - sig), out=dx[..., :h])
        np.multiply(g, silu, out=dx[..., h:])
        return (dx,)

    return record_op("swiglu", out, (x,), backward)


def embed(table, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise DimensionError(f"embed table must be 2-D, got {table.shape}")
    if ids.dtype.kind not in "iu":
        raise TypeError("embed ids must be integers")
    n_rows = table.shape[0]
    if ids.size == 0:
        raise DimensionError("embed: empty id array")
    if ids.min() < 0 or ids.max() >= n_rows:
        raise ValueError(f"embed: id out of range [0, {n_rows})")
    out = table.data[ids]
    d = table.shape[1]
    tshape, tdtype = table.shape, table.dtype

    def backward(g):
        dt = np.zeros(tshape, dtype=tdtype)
        np.add.at(dt, ids.ravel(), g.reshape(-1, d))
        return (dt,)

    return record_op("embed", out, (table,), backward)


def cross_entropy(logits, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean next-token cross-entropy.

    `logits` has shape [..., V]; `targets` matches the leading shape. When
    `mask` is given, the mean runs over masked-in positions only.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    lead = logits.shape[:-1]
    v = logits.shape[-1]
    if targets.shape != lead:
        raise DimensionError(f"targets {targets.shape} do not match logit rows {lead}")
    if targets.size == 0:
        raise DimensionError("cross_entropy: no target positions")
    if targets.min() < 0 or targets.max() >= v:
        raise ValueError(f"cross_entropy: target out of range [0, {v})")
    if mask is None:
        sel = np.ones(lead, dtype=bool)
    else:
        sel = np.asarray(mask, dtype=bool)
        if sel.shape != lead:
            raise DimensionError(f"mask {sel.shape} does not match logit rows {lead}")
        if not sel.any():
            raise EvaluationError("cross_entropy: mask selects no positions")
    count = int(sel.sum())

    z = logits.data.reshape(-1, v)
    t = targets.reshape(-1)
    s = sel.reshape(-1)
    m = z.max(axis=-1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=-1))
    losses = lse - z[np.arange(z.shape[0]), t]
    out = np.asarray((losses * s).sum() / count, dtype=logits.dtype)
    lshape, ldtype = logits.shape, logits.dtype

    def backward(g):
        gv = float(g.reshape(())) / count
        probs = np.exp(z - lse[:, None])
        probs[np.arange(z.shape[0]), t] -= 1.0
        probs *= (s * gv)[:, None]
        return (probs.reshape(lshape).astype(ldtype),)

    return record_op("cross_entropy", out, (logits,), backward)


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between autodiff and central finite differences.

    `f` is a zero-argument callable that recomputes a scalar from the
    current contents of `params`. Autodiff runs in float64. The
    finite-difference side is independent of the tape: for its loop each
    parameter's buffer is swapped for a `FD_DTYPE` copy, perturbed in place
    entry by entry, and the float64 buffers are restored afterwards, so the
    loss difference over 2h keeps the digits float64 would round away.
    Returns max over entries of |ad - fd| / (|fd| + 1e-8).
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError(f"step h={h} outside [1e-6, 1e-4]")
    for p in params:
        if p.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters")

    with Tape() as tape:
        for p in params:
            tape.watch(p)
        out = f()
        if out.size != 1:
            raise DimensionError(f"grad_check target must be scalar, got {out.shape}")
        if out.tape is tape:
            tape.backward(out)
            auto = [tape.grad(p) for p in params]
        else:  # constant objective: every gradient is zero
            auto = [np.zeros(p.shape) for p in params]

    saved = [p.data for p in params]
    worst = 0.0
    try:
        for p in params:
            p.data = p.data.astype(FD_DTYPE)  # a writable copy
        for p, g in zip(params, auto):
            flat, gflat = p.data.reshape(-1), g.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = f().data.reshape(())
                flat[idx] = orig - h
                fm = f().data.reshape(())
                flat[idx] = orig
                numeric = (fp - fm) / (2.0 * h)  # FD_DTYPE: .item() would round to float64 first
                worst = max(worst, float(abs(gflat[idx] - numeric) / (abs(numeric) + 1e-8)))
    finally:
        for p, data in zip(params, saved):
            p.data = data
    return worst
