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

import numpy as np

from .sharing import LayerCache, _sum_terms
from .tensor import DimensionError, Tensor, _active_tape, _check_finite, record_op

# Not called here any more. The benchmark's tracer (perfbench/hooks.py)
# wraps these names in this module by attribute, so they stay bound.
from .tensor import masked_softmax, matmul, matmul_t, repeat  # noqa: F401

__all__ = ["attend"]


def _check_terms(q_shape: tuple, key_terms: tuple, value_terms: tuple) -> None:
    """q: [..., H_q, s_q, D]; every term: [..., H_kv, s_k, D]; weights: scalars or [D]."""
    if not key_terms or not value_terms:
        raise DimensionError("attention needs at least one key term and one value term")
    shape = key_terms[0][0].data.shape
    if len(shape) < 3 or len(q_shape) != len(shape):
        raise DimensionError(f"queries {q_shape} and cache {shape} are not both [..., H, s, D]")
    if q_shape[:-3] != shape[:-3] or q_shape[-1] != shape[-1]:
        raise DimensionError(f"leading dims or head_dim differ: queries {q_shape} vs cache {shape}")
    if q_shape[-3] % shape[-3] != 0:
        raise DimensionError(f"{q_shape[-3]} query heads not divisible by {shape[-3]} kv heads")
    if q_shape[-2] > shape[-2]:
        raise DimensionError(f"{q_shape[-2]} query rows but only {shape[-2]} cache rows")
    for tensor, weight in key_terms + value_terms:
        if tensor.data.shape != shape:
            raise DimensionError(f"cache terms differ in shape: {tensor.data.shape} vs {shape}")
        if weight is not None and weight.data.shape not in ((), (shape[-1],)):
            raise DimensionError(f"weight {weight.data.shape} is neither a scalar nor [{shape[-1]}]")


def _attention(q: Tensor, key_terms, value_terms) -> Tensor:
    """softmax(Σ_j (w_j ⊙ q)·K_jᵀ / √D, causal) · Σ_j V_j ⊙ b_j as one tape
    op, with q viewed as [..., H_kv, g·s_q, D]. Only a tape-free call passes
    weights, so the backward covers one unweighted key and value term."""
    q_shape = q.data.shape
    h_kv, s_k, depth = key_terms[0][0].data.shape[-3:]
    s_q, scale = q_shape[-2], 1.0 / math.sqrt(depth)
    qg = q.data.reshape(q_shape[:-3] + (h_kv, -1, depth))
    qs = qg * scale
    p = None  # the terms' sum, added left to right
    for k, w in key_terms:
        term = np.matmul(qs if w is None else qs * w.data, k.data.swapaxes(-1, -2))
        p = term if p is None else p + term
    _check_finite(p, "attention scores")  # exp(-inf) below is a finite 0
    if s_q > 1:  # query row t sees cache rows up to s_k - s_q + t
        newest = p.reshape(p.shape[:-2] + (-1, s_q, s_k))[..., s_k - s_q :]
        np.copyto(newest, -np.inf, where=~np.tri(s_q, dtype=bool))
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    rows = np.add.reduce(p, axis=-1, keepdims=True)
    out = None
    for v, w in value_terms:
        term = np.matmul(p, v.data)
        term = term if w is None else term * w.data
        out = term if out is None else out + term
    out /= rows
    k_data, v_data = key_terms[0][0].data, value_terms[0][0].data

    def backward(g):
        # P = p / rows is never formed: the row sums divide the small
        # [.., s_q, D] gradient instead, and dp below is dL/dP / rows
        gg = g.reshape(out.shape) / rows
        dp = np.matmul(gg, v_data.swapaxes(-1, -2))
        dv = np.matmul(p.swapaxes(-1, -2), gg)
        dp -= np.add.reduce(p * dp, axis=-1, keepdims=True) / rows
        dz = scale * p * dp  # masked entries have p == 0
        dk = np.matmul(dz.swapaxes(-1, -2), qg)
        return np.matmul(dz, k_data).reshape(q_shape), dk, dv

    return record_op("attention", out.reshape(q_shape), (q, key_terms[0][0], value_terms[0][0]), backward)


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
    key_terms, value_terms, q_shape = cache.key_terms, cache.value_terms, q.data.shape
    _check_terms(q_shape, key_terms, value_terms)
    if q_shape[-2] > 1 or _active_tape() is not None:
        key_terms, value_terms = ((_sum_terms(key_terms), None),), ((_sum_terms(value_terms), None),)
    return _attention(q, key_terms, value_terms)
