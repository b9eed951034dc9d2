"""Causal grouped-query attention over weighted cache terms.

`attend(q, cache)` takes every size from its operands. The cache's rows
sit at positions 0..s_k-1 and the queries are its last s_q rows, as in
every model pass. Queries and keys arrive already rotated, and the mask
depends only on s_k - s_q, so rotating both at shifted positions changes
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

import numpy as np

from .sharing import FoldedCache, LayerCache, _sum_terms
from .tensor import DimensionError, Tensor, _unbroadcast, masked_softmax, record_op

# Not called here any more. The benchmark's tracer (perfbench/hooks.py)
# wraps these names in this module by attribute, so they stay bound.
from .tensor import matmul, matmul_t, repeat  # noqa: F401

__all__ = ["attend"]


def _check_terms(q: Tensor, cache) -> tuple[int, ...]:
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
    return shape


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


def attend(q: Tensor, cache: LayerCache | FoldedCache) -> Tensor:
    """Causal attention of rotated queries against one layer's cache terms.

    q: [..., H_q, s_q, D]; every term tensor: [..., H_kv, s_k, D], H_kv
    dividing H_q and s_q <= s_k. The queries are the cache's last rows, so
    query row t attends to cache rows 0..s_k-s_q+t. Scores Σ_j (w_j ⊙ q)·K_jᵀ
    are scaled by 1/sqrt(D); the output is Σ_j (P·V_j) ⊙ b_j. A `LayerCache`
    is one unweighted term of keys and one of values. With more than one
    query row, each side's terms are summed first. Returns [..., H_q, s_q, D].
    """
    h_kv, s_k, depth = _check_terms(q, cache)[-3:]
    h_q, s_q = q.shape[-3:-1]
    key_terms, value_terms = cache.key_terms, cache.value_terms
    if s_q > 1:
        key_terms, value_terms = ((_sum_terms(key_terms), None),), ((_sum_terms(value_terms), None),)
    scores = _folded_scores(q, key_terms, h_kv)
    mask = np.tile(np.tri(s_q, s_k, s_k - s_q, dtype=bool), (h_q // h_kv, 1))
    probs = masked_softmax(scores, mask, 1.0 / math.sqrt(depth))
    return _folded_values(probs, value_terms, q.shape)
