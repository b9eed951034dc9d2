"""Dense tensors with tape-based reverse-mode autodiff.

Everything in this package computes through `Tensor`, a thin immutable
wrapper over a row-major numpy array. When a `Tape` is active (used as a
context manager), every operation on a watched tensor records a `Node`;
nodes are appended in execution order, so the tape is a DAG already in
topological order and `Tape.backward` is a single reverse sweep that
visits each node exactly once.

Outside a tape, the same functions are plain (and fast) numpy calls, which
is the path incremental decoding uses.

Conventions:
  - reshapes and transposes copy; the one strided view is a decode
    cache's row prefix `buf[..., :n, :]` of a preallocated buffer
    (`sharing.LayerCache.append`), read-only and never written again,
  - float64 is the default dtype (float32 is opt-in for training),
  - every exposed operation produces finite values or raises
    `EvaluationError`.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "EvaluationError",
    "Tensor",
    "Tape",
    "add",
    "sub",
    "mul",
    "scale",
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
]

RMSNORM_EPS = 1e-6


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
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
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
        """Adopt a freshly computed array without copying."""
        t = object.__new__(cls)
        if arr.size == 0:  # numpy extents are nonnegative, so this is `any extent == 0`
            raise DimensionError(f"{op}: extents must be positive, got {arr.shape}")
        _check_finite(arr, op)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        t.data = arr
        t.tape = None
        t.node_id = None
        return t

    @classmethod
    def _adopt_rows(cls, view: np.ndarray) -> "Tensor":
        """Adopt a row-prefix view of a cache buffer as is: no copy, no
        contiguity, no finite check (its rows were checked when written).
        The view turns read-only; the buffer behind it stays writable for
        rows past the view."""
        view.setflags(write=False)
        t = object.__new__(cls)
        t.data = view
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

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return scale(self, 1.0 / float(c))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

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


class _TapeStack(threading.local):
    """Active tapes of the calling thread, innermost last."""

    def __init__(self):
        self.tapes: list["Tape"] = []


_TAPE_STACK = _TapeStack()


def _active_tape() -> "Tape | None":
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


class Tape:
    """Gradient tape. Nodes are topologically ordered because they are
    appended at creation time. Each thread has its own stack of active
    tapes, so operations on one thread never record onto a tape another
    thread has open; one tape is used by one thread."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._grads: list[np.ndarray | None] | None = None

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.tapes.pop()
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
        """Reverse sweep from `out` (a tracked scalar); fills gradient slots."""
        if out.tape is not self or out.node_id is None:
            raise ValueError("backward target is not tracked on this tape")
        if out.size != 1:
            raise DimensionError(f"backward target must be scalar, got {out.shape}")
        grads: list[np.ndarray | None] = [None] * len(self.nodes)
        grads[out.node_id] = np.ones(out.shape, dtype=out.dtype)
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
                if grads[pid] is None:
                    grads[pid] = pg.copy()
                else:
                    grads[pid] += pg
        self._grads = grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient slot of a tracked tensor (zeros if the sweep never reached it)."""
        if t.tape is not self or t.node_id is None:
            raise ValueError("tensor is not tracked on this tape")
        if self._grads is None:
            raise RuntimeError("call backward() before grad()")
        g = self._grads[t.node_id]
        return g if g is not None else np.zeros(t.shape, dtype=t.dtype)

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
    backward: Callable[[np.ndarray], tuple] | None,
) -> Tensor:
    """Wrap an op result, recording a node when any parent is tracked.

    `backward(grad_out)` must return one gradient array (or None) per
    parent, in order. This is the extension point other modules use to
    define differentiable operations of their own.
    """
    t = Tensor._wrap(out, op)
    tape = _active_tape()
    if tape is None or backward is None:
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


def _broadcastable(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcastable(a, b, "add")
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return record_op("add", out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcastable(a, b, "sub")
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return record_op("sub", out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcastable(a, b, "mul")
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def backward(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return record_op("mul", out, (a, b), backward)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = a.data * c

    def backward(g):
        return (g * c,)

    return record_op("scale", out, (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product; stacked inputs batch over leading axes (dA = dC·Bᵀ, dB = Aᵀ·dC)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ: {a.shape} x {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise DimensionError(f"matmul: batch extents differ: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def backward(g):
        da = _unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), a.shape)
        db = _unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), b.shape)
        return da, db

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
        da = _unbroadcast(np.matmul(g, b_data), a.shape)
        db = _unbroadcast(np.matmul(np.swapaxes(g, -1, -2), a_data), b.shape)
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


def _masked_softmax_data(z: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Row-stable softmax over the last axis restricted to `allowed`;
    disallowed entries are exactly zero."""
    with np.errstate(invalid="ignore"):
        masked = np.where(allowed, z, -np.inf)
        row_max = masked.max(axis=-1, keepdims=True)
        e = np.exp(masked - row_max)
    e = np.where(allowed, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax(scores, allowed: np.ndarray, scale_factor: float) -> Tensor:
    """Softmax over the last axis of `scale_factor * scores`, restricted to
    the boolean mask `allowed` (broadcast against the score shape). Entries
    outside the mask are exactly zero."""
    scores = _as_tensor(scores)
    if scale_factor <= 0:
        raise ValueError(f"scale must be positive, got {scale_factor}")
    allowed = np.broadcast_to(np.asarray(allowed, dtype=bool), scores.shape)
    if not allowed.any(axis=-1).all():
        raise EvaluationError("masked_softmax: a row has no allowed entries")
    p = _masked_softmax_data(scores.data * scale_factor, allowed)

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
    inv = 1.0 / np.sqrt((x.data * x.data).mean(axis=-1, keepdims=True) + RMSNORM_EPS)
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        dgate = g * val * sig * (1.0 + gate * (1.0 - sig))
        dval = g * silu
        return (np.concatenate([dgate, dval], axis=-1),)

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
    current contents of `params`. The finite-difference side perturbs each
    parameter entry in place (restoring it), so it is independent of the
    tape. Returns max over entries of |ad - fd| / (|fd| + 1e-8).
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
            auto = [tape.grad(p).copy() for p in params]
        else:  # constant objective: every gradient is zero
            auto = [np.zeros(p.shape) for p in params]

    worst = 0.0
    for p, g in zip(params, auto):
        buf = p.data
        buf.setflags(write=True)
        flat = buf.reshape(-1)
        gflat = g.reshape(-1)
        try:
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = f().item()
                flat[idx] = orig - h
                fm = f().item()
                flat[idx] = orig
                numeric = (fp - fm) / (2.0 * h)
                rel = abs(gflat[idx] - numeric) / (abs(numeric) + 1e-8)
                if rel > worst:
                    worst = rel
        finally:
            buf.setflags(write=False)
    return worst
