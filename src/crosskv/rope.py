"""Rotary position embeddings and weighted-score analysis.

A rotary embedding splits a head vector of even width D into D/2 adjacent
2-D subspaces and rotates subspace j of the token at position m by the
angle m * theta_j. When a learnable weight vector w is applied elementwise
to a rotated key, the attention score in subspace j splits into two parts:

    (w[2j] + w[2j+1])/2 * [relative part, a function of (m - n)]
  + (w[2j] - w[2j+1])/2 * [absolute part, a function of (m + n)]

so the score depends only on the relative offset m - n exactly when the
weight is identical within every 2-D pair. `score_direct` evaluates the
weighted score by actually rotating; `score_decomposed` evaluates the
split form; the two must agree for arbitrary weights, which is the core
identity this module exists to verify.

A key fusion weight is stored as its D/2 free values and `expand_pairs`
duplicates them where the weight is applied, so pair symmetry holds by
construction and gradients accumulate into the free vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import DimensionError, Tensor, _as_tensor, record_op

__all__ = [
    "RopeSchedule",
    "expand_pairs",
    "apply_rope",
    "score_direct",
    "score_decomposed",
    "fused_key_score",
]

DEFAULT_ROPE_BASE = 10000.0


@dataclass(frozen=True)
class RopeSchedule:
    """Per-subspace rotation rates theta_j = base ** (-2j / D), j < D/2."""

    head_dim: int
    base: float = DEFAULT_ROPE_BASE

    def __post_init__(self):
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise DimensionError(f"head_dim must be positive and even, got {self.head_dim}")
        if not 1.0 < self.base < np.inf:  # also rejects NaN
            raise ValueError(f"rope base must be finite and exceed 1, got {self.base}")

    @property
    def angles(self) -> np.ndarray:
        j = np.arange(self.head_dim // 2, dtype=np.float64)
        return self.base ** (-2.0 * j / self.head_dim)


@lru_cache(maxsize=256)
def _rotation_tables_cached(head_dim: int, base: float, pos_bytes: bytes, n: int):
    positions = np.frombuffer(pos_bytes, dtype=np.int64, count=n)
    phase = positions[:, None].astype(np.float64) * RopeSchedule(head_dim, base).angles[None, :]
    cos, sin = np.cos(phase), np.sin(phase)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def _rotation_tables(sched: RopeSchedule, positions: np.ndarray):
    """cos/sin of position*theta_j, shape [len(positions), D/2]; cached,
    since forward passes reuse the same position vectors constantly."""
    if positions.dtype.kind not in "iu":
        raise TypeError("positions must be integers")
    if positions.min() < 0:
        raise ValueError("positions must be nonnegative")
    positions = positions.astype(np.int64, copy=False)
    return _rotation_tables_cached(sched.head_dim, sched.base, positions.tobytes(), positions.size)


def apply_rope(x, positions, sched: RopeSchedule) -> Tensor:
    """Rotate each adjacent (2j, 2j+1) pair of the rows of `x`.

    `x` has shape [..., s, D]; `positions` gives the absolute token index
    of each of the s rows. Differentiable (the backward pass rotates the
    gradient by the opposite angle).
    """
    x = _as_tensor(x)
    if x.ndim < 2 or x.shape[-1] != sched.head_dim:
        raise DimensionError(f"apply_rope: input {x.shape} does not end in head_dim {sched.head_dim}")
    positions = np.asarray(positions)
    if positions.shape != (x.shape[-2],):
        raise DimensionError(
            f"apply_rope: {positions.shape[0] if positions.ndim == 1 else positions.shape} "
            f"positions for {x.shape[-2]} rows"
        )
    cos, sin = _rotation_tables(sched, positions)
    cos = cos.astype(x.dtype)
    sin = sin.astype(x.dtype)

    even = x.data[..., 0::2]
    odd = x.data[..., 1::2]
    out = np.empty_like(x.data)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos

    def backward(g):
        ge = g[..., 0::2]
        go = g[..., 1::2]
        dx = np.empty_like(g)
        dx[..., 0::2] = ge * cos + go * sin
        dx[..., 1::2] = -ge * sin + go * cos
        return (dx,)

    return record_op("rope", out, (x,), backward)


def expand_pairs(free) -> Tensor:
    """Duplicate a length-D/2 vector into length D with w[2j] == w[2j+1].

    Differentiable: the backward pass sums each pair's gradient back into
    the single free entry.
    """
    free = _as_tensor(free)
    if free.ndim != 1:
        raise DimensionError(f"expand_pairs needs a vector, got {free.shape}")
    out = np.repeat(free.data, 2)

    def backward(g):
        return (g.reshape(-1, 2).sum(axis=1),)

    return record_op("expand_pairs", out, (free,), backward)


def _as_vector(x, d: int, name: str) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if arr.shape != (d,):
        raise DimensionError(f"{name} must have shape ({d},), got {arr.shape}")
    return arr.astype(np.float64)


def score_direct(q, k, m: int, n: int, w, sched: RopeSchedule) -> float:
    """Weighted attention score by explicit rotation:
    rotate(q, m) . (w * rotate(k, n)). Ground truth for `score_decomposed`."""
    d = sched.head_dim
    qv = _as_vector(q, d, "q")
    kv = _as_vector(k, d, "k")
    wv = _as_vector(w, d, "w")
    q_rot = apply_rope(Tensor(qv[None, :]), np.array([m]), sched).data[0]
    k_rot = apply_rope(Tensor(kv[None, :]), np.array([n]), sched).data[0]
    return float(q_rot @ (wv * k_rot))


def score_decomposed(q, k, m: int, n: int, w, sched: RopeSchedule) -> float:
    """Weighted attention score via the relative/absolute split.

    Per 2-D subspace j, with mean weight (w[2j]+w[2j+1])/2 and half
    difference (w[2j]-w[2j+1])/2:

      mean * [ (q_e k_e + q_o k_o) cos((m-n)t) + (q_e k_o - q_o k_e) sin((m-n)t) ]
    + diff * [ (q_e k_e - q_o k_o) cos((m+n)t) - (q_e k_o + q_o k_e) sin((m+n)t) ]

    summed over j. Must equal `score_direct` for arbitrary w; the second
    line vanishes exactly when the weight is pair-symmetric.
    """
    d = sched.head_dim
    qv = _as_vector(q, d, "q")
    kv = _as_vector(k, d, "k")
    wv = _as_vector(w, d, "w")
    theta = sched.angles
    qe, qo = qv[0::2], qv[1::2]
    ke, ko = kv[0::2], kv[1::2]
    w_mean = 0.5 * (wv[0::2] + wv[1::2])
    w_diff = 0.5 * (wv[0::2] - wv[1::2])
    rel = (m - n) * theta
    absu = (m + n) * theta
    relative_part = (qe * ke + qo * ko) * np.cos(rel) + (qe * ko - qo * ke) * np.sin(rel)
    absolute_part = (qe * ke - qo * ko) * np.cos(absu) - (qe * ko + qo * ke) * np.sin(absu)
    return float((w_mean * relative_part + w_diff * absolute_part).sum())


def fused_key_score(
    q,
    keys: list,
    positions: tuple[int, int],
    weights: list,
    sched: RopeSchedule,
) -> float:
    """Score of a rotated query against a weighted sum of rotated keys.

    Each weight is a free vector of D/2 values, applied pair-symmetrically
    (`expand_pairs`). All source keys share the key position n; because
    the score is linear in the key, this equals the sum of the per-source
    weighted scores, and each term depends only on m - n.
    """
    if len(keys) != len(weights):
        raise DimensionError(f"{len(keys)} keys but {len(weights)} weights")
    if not keys:
        raise DimensionError("fused_key_score needs at least one source")
    m, n = positions
    d = sched.head_dim
    qv = _as_vector(q, d, "q")
    q_rot = apply_rope(Tensor(qv[None, :]), np.array([m]), sched).data[0]
    fused = np.zeros(d, dtype=np.float64)
    for key, weight in zip(keys, weights):
        kv = _as_vector(key, d, "key")
        wv = _as_vector(weight, d // 2, "free weight")
        k_rot = apply_rope(Tensor(kv[None, :]), np.array([n]), sched).data[0]
        fused += np.repeat(wv, 2) * k_rot
    return float(q_rot @ fused)
