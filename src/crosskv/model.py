"""Desk-scale decoder stack wired through a cache-sharing plan.

Storage layers own query/key/value/output projections; reconstruction
layers drop the key and value projections entirely and rebuild their
caches from stored ones, so their only attention parameters are the query
and output projections plus any fusion weights. Blocks are pre-norm RMS,
projections are biasless, and the MLP is a gated silu unit.

Every pass runs one layer body, `_block`, through `_forward`: training
and `forward_logits` over the whole sequence into a fresh cache dict,
`decode` for its prefill and for each step, appending to the caches that
only storage layers keep. An append writes the step's rows into a buffer
of `max_seq_len` rows (`LayerCache.append`); only the first step copies
the prefill's rows in. Training records on the gradient tape; decode
runs tape-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .attention import AttentionConfig, attend
from .rope import RopeSchedule, apply_rope
from .sharing import (
    FoldedCache,
    FusionWeights,
    LayerCache,
    SharingPlan,
    canonical_strategy,
    folded_cache,
    init_equivalent,
    init_normal,
    plan_for_strategy,
    reconstruct,
    sample_iterative_weights,
)
from .tensor import (
    DimensionError,
    Tensor,
    cross_entropy,
    embed,
    matmul,
    record_op,
    rmsnorm,
    swiglu,
)

__all__ = ["ModelConfig", "DecoderModel", "DecodeResult", "HeatmapResult", "build_model", "fusion_weight_heatmap"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and initialization knobs. Defaults run every oracle in seconds."""

    n_layers: int = 8
    d_model: int = 64
    n_query_heads: int = 8
    n_kv_heads: int = 8
    vocab_size: int = 64
    max_seq_len: int = 128
    strategy: str = "Vanilla"
    middle: int | None = None  # last storage layer for half-stack strategies; default L/2
    init_scheme: str = "normal"  # fusion weights: "normal" or "equivalent"
    init_std: float = 0.02
    rope_base: float = 10000.0
    precision: str = "double"  # "single" switches training math to float32
    d_ff: int | None = None  # gated-MLP width h; default 2 * d_model

    def __post_init__(self):
        sizes = ("n_layers", "d_model", "n_query_heads", "n_kv_heads", "max_seq_len")
        for name in sizes + (("d_ff",) if self.d_ff is not None else ()):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % self.n_query_heads != 0:
            raise DimensionError(f"d_model {self.d_model} not divisible by {self.n_query_heads} heads")
        if self.head_dim % 2 != 0:
            raise DimensionError(f"head_dim {self.head_dim} must be even for rotation")
        if self.n_query_heads % self.n_kv_heads != 0:
            raise DimensionError(
                f"{self.n_query_heads} query heads not divisible by {self.n_kv_heads} kv heads"
            )
        canonical_strategy(self.strategy)  # raises on unknown names
        if self.middle is not None and not 1 <= self.middle < self.n_layers:
            raise ValueError(f"middle {self.middle} out of range [1, {self.n_layers - 1}]")
        if self.init_scheme not in ("normal", "equivalent"):
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")
        if self.precision not in ("double", "single"):
            raise ValueError(f"precision must be 'double' or 'single', got {self.precision!r}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_query_heads

    @property
    def mlp_width(self) -> int:
        return self.d_ff if self.d_ff is not None else 2 * self.d_model

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


@dataclass
class DecodeResult:
    """Greedy decode output plus cache accounting."""

    tokens: np.ndarray  # prompt followed by generated tokens
    logits: np.ndarray  # row t: logits at position t, for t < len(tokens) - 1
    peak_cache_layers: int  # persistent LayerCache count (== |storage layers|)
    peak_cache_elements: int  # total stored K/V elements at maximum length
    cache_length: int


@dataclass
class HeatmapResult:
    """Per-(target, source) fusion weight summary, keys and values separately.

    Scalar weights are reported as-is; vector weights as mean |w|.
    """

    targets: tuple[int, ...]
    key_sources: tuple[int, ...]
    value_sources: tuple[int, ...]
    key_matrix: np.ndarray  # [len(targets), len(key_sources)]
    value_matrix: np.ndarray


def _swap_head_axes(t: Tensor, grouped: tuple, out_shape: tuple, op: str) -> Tensor:
    """`t` read as `grouped` [..., A, B, D], axes A and B swapped, then
    reshaped to `out_shape`; one tape op. Splitting heads reads
    [..., T, H*D] as [..., T, H, D]; merging reads [..., H, T, D] as is."""
    swapped = np.ascontiguousarray(np.swapaxes(t.data.reshape(grouped), -2, -3))
    in_shape, mid_shape = t.shape, swapped.shape

    def backward(g):
        return (np.ascontiguousarray(np.swapaxes(g.reshape(mid_shape), -2, -3)).reshape(in_shape),)

    return record_op(op, swapped.reshape(out_shape), (t,), backward)


class DecoderModel:
    """Parameter container plus forward/decode paths for one sharing plan."""

    def __init__(self, cfg: ModelConfig, plan: SharingPlan, params: dict, fusion: FusionWeights):
        self.cfg = cfg
        self.plan = plan
        self.params = params
        self.fusion = fusion
        self.sched = RopeSchedule(cfg.head_dim, cfg.rope_base)
        self.attn_cfg = AttentionConfig(cfg.n_query_heads, cfg.n_kv_heads, cfg.head_dim)

    # -- parameter plumbing ------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = list(self.params.items())
        out.extend(self.fusion.named_parameters())
        return out

    def set_parameter(self, name: str, tensor: Tensor) -> None:
        if name.startswith("fusion."):
            self.fusion.set_parameter(name, tensor)
        elif name in self.params:
            self.params[name] = tensor
        else:
            raise KeyError(f"unknown parameter {name!r}")

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def state_dict(self) -> dict:
        return {name: t.numpy() for name, t in self.parameters()}

    def load_state_dict(self, arrays: dict) -> None:
        """Replace every parameter. The arrays must name exactly this model's
        parameters, each in its shape; nothing is replaced otherwise."""
        params = dict(self.parameters())
        missing = [name for name in params if name not in arrays]
        extra = [name for name in arrays if name not in params]
        if missing or extra:
            raise KeyError(
                f"checkpoint does not match the {self.cfg.strategy} model: missing {missing}, extra {extra}"
            )
        loaded = {name: np.asarray(arrays[name], dtype=self.cfg.dtype) for name in params}
        for name, arr in loaded.items():
            if arr.shape == (1,) and params[name].ndim == 0:
                # older v1 writers stored 0-d arrays, such as scalar weights, as shape (1,)
                loaded[name] = arr = arr.reshape(())
            if arr.shape != params[name].shape:
                raise ValueError(f"parameter {name!r}: checkpoint shape {arr.shape}, model shape {params[name].shape}")
        for name, arr in loaded.items():
            self.set_parameter(name, Tensor(arr))

    # -- forward -----------------------------------------------------------

    def _check_tokens(self, tokens) -> np.ndarray:
        arr = np.asarray(tokens)
        if arr.dtype.kind not in "iu":
            raise TypeError("tokens must be integers")
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise DimensionError(f"tokens must be [T] or [B, T], got shape {arr.shape}")
        if arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("empty token batch")
        if arr.shape[1] > self.cfg.max_seq_len:
            raise ValueError(f"sequence length {arr.shape[1]} exceeds max {self.cfg.max_seq_len}")
        if arr.min() < 0 or arr.max() >= self.cfg.vocab_size:
            raise ValueError(f"token id out of range [0, {self.cfg.vocab_size})")
        return arr

    def _split_heads(self, t: Tensor, n_heads: int) -> Tensor:
        # [..., T, H*D] -> [..., H, T, D]
        lead, T = t.shape[:-2], t.shape[-2]
        depth = self.cfg.head_dim
        return _swap_head_axes(t, lead + (T, n_heads, depth), lead + (n_heads, T, depth), "split_heads")

    def _merge_heads(self, t: Tensor) -> Tensor:
        # [..., H, T, D] -> [..., T, H*D]
        H, T, depth = t.shape[-3:]
        return _swap_head_axes(t, t.shape, t.shape[:-3] + (T, H * depth), "merge_heads")

    def _layer_cache(self, i: int, xn: Tensor, positions: np.ndarray) -> LayerCache:
        k = self._split_heads(matmul(xn, self.params[f"layer{i}.w_k"]), self.cfg.n_kv_heads)
        k = apply_rope(k, positions, self.sched)
        v = self._split_heads(matmul(xn, self.params[f"layer{i}.w_v"]), self.cfg.n_kv_heads)
        return LayerCache(k, v, i)

    def _reconstructed(self, i: int, caches: dict, rows: int) -> LayerCache | FoldedCache:
        """Reconstruction layer i's cache for `rows` query rows. A one-row
        decode step reads the stored caches through folded weights; a
        multi-row pass materializes the cache once, because folding would
        multiply its [T, T] score and value matmuls by the number of
        sources, which makes a long prefill slower."""
        if rows == 1:
            return folded_cache(self.plan, self.fusion, caches, i)
        k, v = reconstruct(self.plan, self.fusion, caches, i)
        return LayerCache(k, v, i)

    def _block(self, i: int, x: Tensor, positions: np.ndarray, caches: dict) -> Tensor:
        """Decoder layer i over the rows of `x` at `positions`. A storage
        layer appends its new keys and values to caches[i] in place (a
        buffer of `max_seq_len` rows), or starts that entry; the append is
        tape-free, so a taped pass starts from an empty dict. A
        reconstruction layer reads the stored caches."""
        xn = rmsnorm(x, self.params[f"layer{i}.attn_norm"])
        q = self._split_heads(matmul(xn, self.params[f"layer{i}.w_q"]), self.cfg.n_query_heads)
        q = apply_rope(q, positions, self.sched)
        if i in self.plan.rules:
            cache = self._reconstructed(i, caches, positions.size)
        else:
            new = self._layer_cache(i, xn, positions)
            caches[i] = cache = caches[i].append(new, self.cfg.max_seq_len) if i in caches else new
        o = attend(q, cache, self.attn_cfg, positions, np.arange(cache.length))
        x = x + matmul(self._merge_heads(o), self.params[f"layer{i}.w_o"])
        xn = rmsnorm(x, self.params[f"layer{i}.mlp_norm"])
        return x + matmul(swiglu(matmul(xn, self.params[f"layer{i}.w_in"])), self.params[f"layer{i}.w_out"])

    def _forward(self, tokens: np.ndarray, positions: np.ndarray, caches: dict) -> Tensor:
        """Logits [B, t, vocab] for `tokens` [B, t] at `positions`, through
        every layer's `_block` with the storage caches in `caches`."""
        x = embed(self.params["embed"], tokens)
        for i in range(1, self.cfg.n_layers + 1):
            x = self._block(i, x, positions, caches)
        h = rmsnorm(x, self.params["final_norm"])
        return matmul(h, self.params["unembed"])

    def forward_logits(self, tokens, caches_out: dict | None = None) -> Tensor:
        """Full-sequence logits, shape [B, T, vocab].

        `caches_out`, when given, captures the storage-layer caches built
        during the pass (useful for inspecting cache reuse on the tape).
        """
        arr = self._check_tokens(tokens)
        caches: dict[int, LayerCache] = {}
        logits = self._forward(arr, np.arange(arr.shape[1]), caches)
        if caches_out is not None:
            caches_out.update(caches)
        return logits

    def forward_loss(self, tokens, loss_mask: np.ndarray | None = None) -> Tensor:
        """Mean next-token cross-entropy over the batch.

        `loss_mask`, when given, selects transition positions ([B, T-1]):
        entry t gates the prediction of token t+1.
        """
        arr = self._check_tokens(tokens)
        B, T = arr.shape
        if T < 2:
            raise ValueError("sequences need at least two tokens to form a next-token pair")
        logits = self.forward_logits(arr)
        targets = np.zeros((B, T), dtype=arr.dtype)
        targets[:, :-1] = arr[:, 1:]
        sel = np.zeros((B, T), dtype=bool)
        if loss_mask is None:
            sel[:, :-1] = True
        else:
            mask = np.asarray(loss_mask, dtype=bool)
            if mask.shape != (B, T - 1):
                raise DimensionError(f"loss mask {mask.shape} does not match transitions {(B, T - 1)}")
            sel[:, :-1] = mask
        return cross_entropy(logits, targets, mask=sel)

    # -- incremental decoding ----------------------------------------------

    def decode(self, prompt, new_tokens: int) -> DecodeResult:
        """Greedy decoding with incremental caches for storage layers only.

        Logits row t is the distribution over token t+1; generated token
        t+1 is its argmax. Reconstruction layers read the stored caches
        through their fusion weights at every step and keep nothing, so only
        |storage layers| caches ever persist.
        """
        prompt = np.asarray(prompt)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError("prompt must be a nonempty token vector")
        if not isinstance(new_tokens, (int, np.integer)):
            raise TypeError(f"new_tokens must be an integer, got {new_tokens!r}")
        if new_tokens < 0:
            raise ValueError("new_tokens must be nonnegative")
        total = prompt.size + new_tokens
        if total > self.cfg.max_seq_len:
            raise ValueError(f"prompt + new tokens = {total} exceeds max sequence {self.cfg.max_seq_len}")
        self._check_tokens(prompt)

        caches: dict[int, LayerCache] = {}
        logits_rows = list(self._forward(prompt[None, :], np.arange(prompt.size), caches).numpy()[0])

        tokens = list(prompt)
        for _ in range(new_tokens):
            nxt = int(np.argmax(logits_rows[-1]))
            tokens.append(nxt)
            if len(tokens) == total:
                break
            pos = len(tokens) - 1
            step = self._forward(np.array([[nxt]], dtype=prompt.dtype), np.array([pos]), caches)
            logits_rows.append(step.numpy()[0, 0])

        if set(caches) != set(self.plan.storage_layers):
            raise RuntimeError(
                f"decode kept caches for layers {sorted(caches)}, "
                f"not the storage layers {list(self.plan.storage_layers)}"
            )
        elements = sum(c.keys.size + c.values.size for c in caches.values())
        return DecodeResult(
            tokens=np.asarray(tokens),
            logits=np.asarray(logits_rows),
            peak_cache_layers=len(caches),
            peak_cache_elements=elements,
            cache_length=next(iter(caches.values())).length,
        )


def build_model(cfg: ModelConfig, seed) -> DecoderModel:
    """Construct and initialize a model; identical seeds give identical weights.

    Linear weights are N(0, init_std^2); norm gains start at one. Fusion
    weights follow cfg.init_scheme ("normal", or "equivalent" for
    two-anchor fusion plans).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    plan = plan_for_strategy(cfg.strategy, cfg.n_layers, cfg.middle)
    dt = cfg.dtype
    d, h = cfg.d_model, cfg.mlp_width

    def linear(rows: int, cols: int) -> Tensor:
        return Tensor((rng.standard_normal((rows, cols)) * cfg.init_std).astype(dt))

    params: dict[str, Tensor] = {}
    params["embed"] = linear(cfg.vocab_size, d)
    for i in range(1, cfg.n_layers + 1):
        params[f"layer{i}.attn_norm"] = Tensor(np.ones(d, dtype=dt))
        params[f"layer{i}.w_q"] = linear(d, cfg.n_query_heads * cfg.head_dim)
        if i not in plan.rules:
            params[f"layer{i}.w_k"] = linear(d, cfg.n_kv_heads * cfg.head_dim)
            params[f"layer{i}.w_v"] = linear(d, cfg.n_kv_heads * cfg.head_dim)
        params[f"layer{i}.w_o"] = linear(cfg.n_query_heads * cfg.head_dim, d)
        params[f"layer{i}.mlp_norm"] = Tensor(np.ones(d, dtype=dt))
        params[f"layer{i}.w_in"] = linear(d, 2 * h)
        params[f"layer{i}.w_out"] = linear(h, d)
    params["final_norm"] = Tensor(np.ones(d, dtype=dt))
    params["unembed"] = linear(d, cfg.vocab_size)

    if plan.has_fusion_weights:
        if cfg.init_scheme == "equivalent":
            aux = sample_iterative_weights(plan, cfg.head_dim, rng)
            fusion = init_equivalent(plan, aux)
        else:
            fusion = init_normal(plan, cfg.head_dim, rng)
        if dt is not np.float64:
            for name, t in list(fusion.named_parameters()):
                fusion.set_parameter(name, Tensor(t.numpy().astype(dt)))
    else:
        fusion = FusionWeights({}, {})
    return DecoderModel(cfg, plan, params, fusion)


def fusion_weight_heatmap(model: DecoderModel) -> HeatmapResult:
    """Per-(target, source) weight magnitudes for strategies with fusion
    weights; raises for pure direct-reuse plans."""
    plan = model.plan
    if not plan.has_fusion_weights:
        raise ValueError(f"strategy {model.cfg.strategy!r} has no fusion weights")
    targets = plan.reconstruction_layers

    def summarize(slot_map, i, j):
        if (i, j) not in slot_map:
            return 0.0
        w = slot_map[(i, j)]
        arr = w.expanded().numpy() if hasattr(w, "expanded") else w.numpy()
        if arr.ndim == 0:
            return float(arr)
        return float(np.abs(arr).mean())

    key_sources = tuple(sorted({j for (_, j) in model.fusion.key}))
    value_sources = tuple(sorted({j for (_, j) in model.fusion.value}))
    key_matrix = np.array(
        [[summarize(model.fusion.key, i, j) for j in key_sources] for i in targets]
    )
    value_matrix = np.array(
        [[summarize(model.fusion.value, i, j) for j in value_sources] for i in targets]
    )
    return HeatmapResult(targets, key_sources, value_sources, key_matrix, value_matrix)
