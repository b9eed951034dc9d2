"""Causal grouped-query attention over weighted cache terms.

Queries and cached keys arrive already rotated; masking is by absolute
token position, so shifting every position by the same offset changes
nothing. Query head h reads kv head h // (H_q / H_kv); with H_kv == H_q
this is plain multi-head attention.

One kernel serves every layer. A layer's cache is a set of key terms and
value terms, each a stored tensor with an optional weight: a storage layer
is one unweighted term, a direct-reuse layer (CLA, YOCO) one unweighted
term of its source, a fusion layer one weighted term per source. Weights
fold into the small operands through the dot-product identities

    (w ⊙ q)·k = q·(w ⊙ k)        and        P·(V ⊙ b) = (P·V) ⊙ b,

so a one-row query (a decode step) never builds a fused cache. A query of
several rows (a prefill chunk or a training pass) sums each side's terms once
instead, with the tape ops of `sharing.reconstruct`: folding would
multiply its [s_q, s_k] score and value matmuls by the number of terms.
Grouping is a free view of the queries as [..., H_kv, g·s_q, D]; no cache
is ever repeated per query head. Both forms must match
materialize-then-attend to 1e-12 (tests and `verify`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sharing import FoldedCache, LayerCache, _sum_terms
from .tensor import DimensionError, Tensor, _unbroadcast, masked_softmax, record_op

# Not called here any more. The benchmark's tracer (perfbench/hooks.py)
# wraps these names in this module by attribute, so they stay bound.
from .tensor import matmul, matmul_t, repeat  # noqa: F401

__all__ = ["AttentionConfig", "attend"]


@dataclass(frozen=True)
class AttentionConfig:
    n_query_heads: int
    n_kv_heads: int
    head_dim: int

    def __post_init__(self):
        if self.n_query_heads % self.n_kv_heads != 0:
            raise DimensionError(
                f"{self.n_query_heads} query heads not divisible by {self.n_kv_heads} kv heads"
            )

    @property
    def group_size(self) -> int:
        return self.n_query_heads // self.n_kv_heads


def _causal_mask(q_positions: np.ndarray, k_positions: np.ndarray) -> np.ndarray:
    return k_positions[None, :] <= q_positions[:, None]


def _check_terms(cache, cfg: AttentionConfig) -> tuple[int, ...]:
    """Every term has the same [..., H_kv, s_k, D] shape; weights are scalars or [D]."""
    terms = tuple(cache.key_terms) + tuple(cache.value_terms)
    if not cache.key_terms or not cache.value_terms:
        raise DimensionError("attention needs at least one key term and one value term")
    shape = terms[0][0].shape
    if len(shape) < 3 or shape[-3] != cfg.n_kv_heads or shape[-1] != cfg.head_dim:
        raise DimensionError(
            f"cache {shape} does not match {cfg.n_kv_heads} kv heads x head_dim {cfg.head_dim}"
        )
    for tensor, weight in terms:
        if tensor.shape != shape:
            raise DimensionError(f"cache terms differ in shape: {tensor.shape} vs {shape}")
        if weight is not None and weight.shape not in ((), (cfg.head_dim,)):
            raise DimensionError(f"weight {weight.shape} is neither a scalar nor [{cfg.head_dim}]")
    return shape


def _check_positions(q: Tensor, shape, cfg: AttentionConfig, q_positions, k_positions):
    if q.ndim < 3 or q.shape[-3] != cfg.n_query_heads or q.shape[-1] != cfg.head_dim:
        raise DimensionError(
            f"queries {q.shape} do not match {cfg.n_query_heads} heads x head_dim {cfg.head_dim}"
        )
    if q.shape[:-3] != shape[:-3]:
        raise DimensionError(f"leading dims differ: queries {q.shape} vs cache {shape}")
    q_positions = np.asarray(q_positions)
    if q_positions.shape != (q.shape[-2],):
        raise DimensionError(f"{q_positions.size} query positions for {q.shape[-2]} query rows")
    s_k = shape[-2]
    if k_positions is None:
        k_positions = np.arange(s_k)
    else:
        k_positions = np.asarray(k_positions)
        if k_positions.shape != (s_k,):
            raise DimensionError(f"{k_positions.size} key positions for {s_k} cache rows")
    if q_positions.min() < 0 or k_positions.min() < 0:
        raise ValueError("positions must be nonnegative")
    return q_positions, k_positions


def _parents(first: Tensor, terms) -> tuple[Tensor, ...]:
    """`first`, then each term's tensor and (when present) its weight."""
    out = [first]
    for tensor, weight in terms:
        out.append(tensor)
        if weight is not None:
            out.append(weight)
    return tuple(out)


def _folded_scores(q: Tensor, key_terms, n_kv_heads: int) -> Tensor:
    """Σ_j (w_j ⊙ q)·K_jᵀ with q viewed as [..., H_kv, g·s_q, D]; one tape op."""
    qg = q.data.reshape(q.shape[:-3] + (n_kv_heads, -1, q.shape[-1]))
    out = None
    for keys, weight in key_terms:
        qw = qg if weight is None else qg * weight.data
        term = np.matmul(qw, np.swapaxes(keys.data, -1, -2))
        out = term if out is None else out + term

    def backward(g):
        dq, grads = None, []
        for keys, weight in key_terms:
            gk = np.matmul(g, keys.data)
            qw = qg if weight is None else qg * weight.data
            grads.append(np.matmul(np.swapaxes(g, -1, -2), qw))
            if weight is not None:
                grads.append(_unbroadcast(gk * qg, weight.shape))
                gk = gk * weight.data
            dq = gk if dq is None else dq + gk
        return (dq.reshape(q.shape), *grads)

    return record_op("folded_scores", out, _parents(q, key_terms), backward)


def _folded_values(probs: Tensor, value_terms, q_shape) -> Tensor:
    """Σ_j (P·V_j) ⊙ b_j, returned in the query layout [..., H_q, s_q, D]; one tape op."""
    p = probs.data
    parts = [np.matmul(p, values.data) for values, _ in value_terms]
    out = None
    for part, (_, weight) in zip(parts, value_terms):
        term = part if weight is None else part * weight.data
        out = term if out is None else out + term
    grouped = out.shape

    def backward(g):
        gg = g.reshape(grouped)
        dp, grads = None, []
        for part, (values, weight) in zip(parts, value_terms):
            gw = gg if weight is None else gg * weight.data
            term = np.matmul(gw, np.swapaxes(values.data, -1, -2))
            dp = term if dp is None else dp + term
            grads.append(np.matmul(np.swapaxes(p, -1, -2), gw))
            if weight is not None:
                grads.append(_unbroadcast(part * gg, weight.shape))
        return (dp, *grads)

    return record_op("folded_values", out.reshape(q_shape), _parents(probs, value_terms), backward)


def attend(
    q: Tensor,
    cache: LayerCache | FoldedCache,
    cfg: AttentionConfig,
    q_positions,
    k_positions=None,
) -> Tensor:
    """Causal attention of rotated queries against one layer's cache terms.

    q: [..., H_q, s_q, D]; every term tensor: [..., H_kv, s_k, D]. Scores
    Σ_j (w_j ⊙ q)·K_jᵀ are scaled by 1/sqrt(D); each query row attends to
    cache rows at positions <= its own; the output is Σ_j (P·V_j) ⊙ b_j.
    A `LayerCache` is one unweighted term of keys and one of values. With
    more than one query row, each side's terms are summed first.
    Returns [..., H_q, s_q, D].
    """
    shape = _check_terms(cache, cfg)
    q_positions, k_positions = _check_positions(q, shape, cfg, q_positions, k_positions)
    key_terms, value_terms = cache.key_terms, cache.value_terms
    if q.shape[-2] > 1:
        key_terms, value_terms = ((_sum_terms(key_terms), None),), ((_sum_terms(value_terms), None),)
    scores = _folded_scores(q, key_terms, cfg.n_kv_heads)
    mask = np.tile(_causal_mask(q_positions, k_positions), (cfg.group_size, 1))
    probs = masked_softmax(scores, mask, 1.0 / math.sqrt(cfg.head_dim))
    return _folded_values(probs, value_terms, q.shape)
