"""Causal grouped-query attention over weighted cache terms.

`attend(q, cache)` takes every size from its operands. The cache's rows
sit at positions 0..s_k-1 and the queries are its last s_q rows, as in
every model pass. Queries and keys arrive already rotated, and the mask
depends only on s_k - s_q, so rotating both at shifted positions changes
nothing. Query head h reads kv head h // (H_q / H_kv); with H_kv == H_q
this is plain multi-head attention.

One kernel serves every layer, and every layer hands it one cache type,
`sharing.LayerCache`: a set of key terms and value terms, each a stored
tensor with an optional weight. A storage layer's cache is one unweighted
term of its own rows, a direct-reuse layer's (CLA, YOCO) one unweighted
term of its source, a fusion layer's one weighted term per source. Weights
fold into the small operands through the dot-product identities

    (w ⊙ q)·k = q·(w ⊙ k)        and        P·(V ⊙ b) = (P·V) ⊙ b,

so a one-row query (a decode step) never builds a fused cache. They fold
only where nothing records: with a tape open on the calling thread, or
with several query rows (where folding would multiply the [s_q, s_k]
matmuls by the number of terms), each side's terms are summed first with
the tape ops of `sharing.reconstruct`. Grouping is a free view of the
queries as [..., H_kv, g·s_q, D]; no cache is repeated per query head.
Both forms match materialize-then-attend to 1e-12 (tests and `verify`).

Each call is one tape op whose hand-written backward covers one key and
one value tensor. The queries are scaled by 1/√D before the score matmul;
the one score slab is checked finite, masked only in its last s_q columns
and exponentiated in place, and the [.., s_q, D] output is divided by the
slab's row sums, as FlashAttention (arXiv 2205.14135) orders it: no pass
scales or divides the slab, and the backward divides its small gradients
by the row sums in its place. The results match a scores-softmax-values
chain of separate ops to roundoff (the loop oracle in the tests, 1e-12).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .sharing import LayerCache, _sum_terms
from .tensor import DimensionError, Tensor, _active_tape, _check_finite, record_op

# Not called here any more. The benchmark's tracer (perfbench/hooks.py)
# wraps these names in this module by attribute, so they stay bound.
from .tensor import masked_softmax, matmul, matmul_t, repeat  # noqa: F401

__all__ = ["attend"]


def _check_terms(q: Tensor, cache) -> None:
    """q: [..., H_q, s_q, D]; every term: [..., H_kv, s_k, D]; weights: scalars or [D]."""
    if not cache.key_terms or not cache.value_terms:
        raise DimensionError("attention needs at least one key term and one value term")
    terms = tuple(cache.key_terms) + tuple(cache.value_terms)
    shape = terms[0][0].shape
    if len(shape) < 3 or q.ndim != len(shape):
        raise DimensionError(f"queries {q.shape} and cache {shape} are not both [..., H, s, D]")
    if q.shape[:-3] != shape[:-3] or q.shape[-1] != shape[-1]:
        raise DimensionError(f"leading dims or head_dim differ: queries {q.shape} vs cache {shape}")
    if q.shape[-3] % shape[-3] != 0:
        raise DimensionError(f"{q.shape[-3]} query heads not divisible by {shape[-3]} kv heads")
    if q.shape[-2] > shape[-2]:
        raise DimensionError(f"{q.shape[-2]} query rows but only {shape[-2]} cache rows")
    for tensor, weight in terms:
        if tensor.shape != shape:
            raise DimensionError(f"cache terms differ in shape: {tensor.shape} vs {shape}")
        if weight is not None and weight.shape not in ((), (shape[-1],)):
            raise DimensionError(f"weight {weight.shape} is neither a scalar nor [{shape[-1]}]")


def _weighted(x: np.ndarray, weight: Tensor | None) -> np.ndarray:
    return x if weight is None else x * weight.data


def _attention(q: Tensor, key_terms, value_terms) -> Tensor:
    """softmax(Σ_j (w_j ⊙ q)·K_jᵀ / √D, causal) · Σ_j V_j ⊙ b_j as one tape
    op, with q viewed as [..., H_kv, g·s_q, D]. Only a tape-free call passes
    weights, so the backward covers one unweighted key and value term."""
    h_kv, s_k, depth = key_terms[0][0].shape[-3:]
    s_q, scale = q.shape[-2], 1.0 / math.sqrt(depth)
    qg = q.data.reshape(q.shape[:-3] + (h_kv, -1, depth))
    qs = qg * scale
    p = reduce(np.add, (np.matmul(_weighted(qs, w), np.swapaxes(k.data, -1, -2)) for k, w in key_terms))
    _check_finite(p, "attention scores")  # exp(-inf) below is a finite 0
    if s_q > 1:  # query row t sees cache rows up to s_k - s_q + t
        newest = p.reshape(p.shape[:-2] + (-1, s_q, s_k))[..., s_k - s_q :]
        np.copyto(newest, -np.inf, where=~np.tri(s_q, dtype=bool))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    rows = p.sum(axis=-1, keepdims=True)
    out = reduce(np.add, (_weighted(np.matmul(p, v.data), w) for v, w in value_terms))
    out /= rows
    (k, _), (v, _) = key_terms[0], value_terms[0]
    k_data, v_data, q_shape = k.data, v.data, q.shape

    def backward(g):
        # P = p / rows is never formed: the row sums divide the small
        # [.., s_q, D] gradient instead, and dp below is dL/dP / rows
        gg = g.reshape(out.shape) / rows
        dp = np.matmul(gg, np.swapaxes(v_data, -1, -2))
        dv = np.matmul(np.swapaxes(p, -1, -2), gg)
        dp -= (p * dp).sum(axis=-1, keepdims=True) / rows
        dz = scale * p * dp  # masked entries have p == 0
        dk = np.matmul(np.swapaxes(dz, -1, -2), qg)
        return np.matmul(dz, k_data).reshape(q_shape), dk, dv

    return record_op("attention", out.reshape(q_shape), (q, k, v), backward)


def attend(q: Tensor, cache: LayerCache) -> Tensor:
    """Causal attention of rotated queries against one layer's cache terms.

    q: [..., H_q, s_q, D]; every term tensor: [..., H_kv, s_k, D], H_kv
    dividing H_q and s_q <= s_k. The queries are the cache's last rows, so
    query row t attends to cache rows 0..s_k-s_q+t. Scores Σ_j (w_j ⊙ q)·K_jᵀ
    are scaled by 1/sqrt(D); the output is Σ_j (P·V_j) ⊙ b_j. A storage
    layer's cache is one unweighted term on each side. With more than one
    query row, or while a tape records on this thread, each side's terms
    are summed first; else they fold. Returns [..., H_q, s_q, D].
    """
    _check_terms(q, cache)
    key_terms, value_terms = cache.key_terms, cache.value_terms
    if q.shape[-2] > 1 or _active_tape() is not None:
        key_terms, value_terms = ((_sum_terms(key_terms), None),), ((_sum_terms(value_terms), None),)
    return _attention(q, key_terms, value_terms)
