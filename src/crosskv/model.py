"""Desk-scale decoder stack wired through a cache-sharing plan.

Storage layers own query/key/value/output projections; reconstruction
layers drop the key and value projections and rebuild their caches from
stored ones, so their only attention parameters are the query and output
projections plus any fusion weights. Blocks are pre-norm RMS, projections
are biasless, and the MLP is a gated silu unit. Each projection is one
`matmul` op, a head split or merge, or a residual add, folded into it.

Every pass runs one layer body, `_block`, in one block loop, `_layers`:
training and `forward_logits` over the whole sequence into a fresh cache
dict, `decode` for each step and for its prefill, appending to the caches
that only storage layers keep. A pass reads `params` once, fusion weights
applied (`_weights`; a decode, once for all its steps), so a concurrent
update changes nothing it reads. The prefill embeds the prompt once, then
runs it through the stack `PREFILL_CHUNK` rows at a time, so each chunk
attends to the keys up to its own end and no [H, T, T] score tensor is
built. Every layer hands the attention kernel a `LayerCache` of weighted
terms. A storage layer's is its own rows (`LayerCache.stored`); a tape-free
pass writes its first rows into a buffer of `max_seq_len` rows
(`LayerCache.buffered`), and each later chunk or step writes only its own
rows (`LayerCache.append`). A reconstruction layer's is its sources' stored
tensors and fusion weights (`folded_cache`); the kernel folds them only
where nothing records (a tape-free one-row step) and sums them otherwise,
so `sharing.reconstruct` stays an oracle.
Whether a tape records decides only what is recorded, buffering and
folding. Every pass checks finiteness one way: its blocks run under one
unchecked context, each block's output is checked once, and a block that
fails runs again with every op checked, so the `EvaluationError` still
names the op. The head's ops, the cache appends and the checks ops make
of their own inputs still check each result.
The queries handed to `attend(q, cache)` are the cache's last rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import attend
from .rope import RopeSchedule, apply_rope
from .sharing import (
    DIRECT,
    LayerCache,
    SharingPlan,
    _fusedkv_shape,
    applied_weights,
    folded_cache,
    fusion_weight,
    init_equivalent,
    init_normal,
    plan_for_strategy,
    sample_iterative_weights,
)
from .tensor import (
    DimensionError,
    EvaluationError,
    Tensor,
    _check_finite,
    _unchecked_ops,
    cross_entropy,
    embed,
    matmul,
    record_op,
    rmsnorm,
    swiglu,
)

# Not called here. The benchmark's tracer (perfbench/hooks.py) wraps this
# name in this module by attribute, so it stays bound.
from .sharing import reconstruct  # noqa: F401

# Prompt rows per prefill chunk in `decode`; 128 measured best of 64/128/256
# on a 768-token prompt (BENCH_9.json).
PREFILL_CHUNK = 128

__all__ = ["ModelConfig", "DecoderModel", "DecodeResult", "build_model", "fusion_weight_rows"]


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
        sizes = ("n_layers", "d_model", "n_query_heads", "n_kv_heads", "vocab_size", "max_seq_len")
        for name in sizes + tuple(n for n in ("d_ff", "middle") if getattr(self, n) is not None):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.d_model % self.n_query_heads != 0:
            raise DimensionError(f"d_model {self.d_model} not divisible by {self.n_query_heads} heads")
        RopeSchedule(self.head_dim, self.rope_base)  # the schedule DecoderModel builds; needs even head_dim
        if not np.isfinite(self.init_std):
            raise ValueError(f"init_std must be finite, got {self.init_std!r}")
        if self.n_query_heads % self.n_kv_heads != 0:
            raise DimensionError(f"{self.n_query_heads} query heads not divisible by {self.n_kv_heads} kv heads")
        if self.middle is not None and self.middle >= self.n_layers:
            raise ValueError(f"middle {self.middle} out of range [1, {self.n_layers - 1}]")
        plan = plan_for_strategy(self.strategy, self.n_layers, self.middle)  # the plan build_model uses
        if self.init_scheme not in ("normal", "equivalent"):
            raise ValueError(f"unknown init scheme {self.init_scheme!r}")
        if self.init_scheme == "equivalent" and plan.has_fusion_weights:
            _fusedkv_shape(plan)  # equivalent init needs a two-anchor plan
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


def _project_heads(x: Tensor, w: Tensor, n_heads: int) -> Tensor:
    """x [..., T, K] · w [K, H*D], written head-major as [..., H, T, D]; one `matmul` op."""
    x_shape, w_data, rows = x.data.shape, w.data, x.data.reshape(-1, w.data.shape[0])
    out = np.ascontiguousarray(rows.dot(w_data).reshape(x_shape[:-1] + (n_heads, -1)).swapaxes(-2, -3))

    def backward(g):
        g_rows = np.ascontiguousarray(g.swapaxes(-2, -3)).reshape(rows.shape[0], -1)  # read token-major
        return np.matmul(g_rows, w_data.T).reshape(x_shape), np.matmul(rows.T, g_rows)

    return record_op("matmul", out, (x, w), backward)


def _merge_project(x: Tensor, a: Tensor, w: Tensor) -> Tensor:
    """x + a·w as one `matmul` op, passing x its gradient. The GEMM's rows are
    a [..., T, K] (the MLP's hidden rows) or a head-major [..., H, T, D] read
    token-major (the attention output, K = H*D); a's gradient keeps its layout."""
    w_data, heads = w.data, a.data.ndim > x.data.ndim
    token_major = np.ascontiguousarray(a.data.swapaxes(-2, -3)) if heads else a.data  # [..., T, H, D]
    rows, mid_shape = token_major.reshape(-1, w_data.shape[0]), token_major.shape

    def backward(g):
        g_rows = g.reshape(rows.shape[0], -1)
        da = np.matmul(g_rows, w_data.T).reshape(mid_shape)
        return g, np.ascontiguousarray(da.swapaxes(-2, -3)) if heads else da, np.matmul(rows.T, g_rows)

    return record_op("matmul", x.data + rows.dot(w_data).reshape(x.data.shape), (x, a, w), backward)


class DecoderModel:
    """Parameter container plus forward/decode paths for one sharing plan."""

    def __init__(self, cfg: ModelConfig, plan: SharingPlan, params: dict):
        self.cfg = cfg
        self.plan = plan
        self.params = params  # every parameter, fusion weights (`sharing.init_normal`) included
        self.sched = RopeSchedule(cfg.head_dim, cfg.rope_base)
        parts = ("attn_norm", "w_q", "w_k", "w_v", "w_o", "mlp_norm", "w_in", "w_out")
        self._names = [{n: f"layer{i}.{n}" for n in parts} for i in range(cfg.n_layers + 1)]  # by layer, by part

    # -- parameter plumbing ------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def state_dict(self) -> dict:
        return {name: t.numpy() for name, t in self.parameters()}

    def load_state_dict(self, arrays: dict) -> None:
        """Replace every parameter. The arrays must name exactly this model's
        parameters, each in its shape and finite; nothing is replaced otherwise."""
        missing = [name for name in self.params if name not in arrays]
        extra = [name for name in arrays if name not in self.params]
        if missing or extra:
            raise KeyError(
                f"checkpoint does not match the {self.cfg.strategy} model: missing {missing}, extra {extra}"
            )
        loaded = {}
        for name, current in self.params.items():
            arr = np.asarray(arrays[name], dtype=self.cfg.dtype)
            if arr.shape == (1,) and current.ndim == 0:
                # older v1 writers stored 0-d arrays, such as scalar weights, as shape (1,)
                arr = arr.reshape(())
            if arr.shape != current.shape:
                raise ValueError(f"parameter {name!r}: checkpoint shape {arr.shape}, model shape {current.shape}")
            try:
                loaded[name] = Tensor(arr)
            except EvaluationError:
                raise ValueError(f"parameter {name!r}: checkpoint holds non-finite values") from None
        self.params = loaded  # one assignment: a pass that read the old set keeps it whole

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

    def _block(self, i: int, x: Tensor, positions: np.ndarray, caches: dict, weights: dict) -> Tensor:
        """Decoder layer i over the rows of `x` at `positions`, reading the
        pass's `weights` (`_weights`). A storage layer appends its new keys
        and values to caches[i] in place (a buffer of `max_seq_len` rows), or
        starts that entry, buffered when tape-free; the append is tape-free,
        so a taped pass starts from an empty dict. A reconstruction layer hands
        `attend` the stored caches as weighted terms, folded for one tape-free
        row and summed else. Both residual adds sit in `_merge_project`."""
        name = self._names[i]
        xn = rmsnorm(x, weights[name["attn_norm"]])
        q = _project_heads(xn, weights[name["w_q"]], self.cfg.n_query_heads)
        q = apply_rope(q, positions, self.sched)
        if i in self.plan.rules:
            cache = folded_cache(self.plan, weights, caches, i, expand=False)
        else:
            k = _project_heads(xn, weights[name["w_k"]], self.cfg.n_kv_heads)
            k = apply_rope(k, positions, self.sched)
            v = _project_heads(xn, weights[name["w_v"]], self.cfg.n_kv_heads)
            cap = self.cfg.max_seq_len
            caches[i] = cache = caches[i].append(k, v, cap) if i in caches else LayerCache.stored(k, v, i).buffered(cap)
        x = _merge_project(x, attend(q, cache), weights[name["w_o"]])
        xn = rmsnorm(x, weights[name["mlp_norm"]])
        return _merge_project(x, swiglu(matmul(xn, weights[name["w_in"]])), weights[name["w_out"]])

    def _weights(self) -> dict:
        """One pass's parameter set: `params` read once, fusion weights as applied (`applied_weights`)."""
        return (params := self.params) | applied_weights(self.plan, params)

    def _forward(self, tokens: np.ndarray, positions: np.ndarray, caches: dict, weights: dict | None = None) -> Tensor:
        """Logits [B, t, vocab] for `tokens` [B, t] at `positions`, through every layer's
        `_block` with the storage caches in `caches`, reading `weights` (default `_weights()`)."""
        weights = self._weights() if weights is None else weights
        return self._layers(embed(weights["embed"], tokens), positions, caches, weights)

    def _layers(self, x: Tensor, positions: np.ndarray, caches: dict, weights: dict) -> Tensor:
        """`_forward` after the embedding: logits for the rows of `x`, taped
        or not. Every `_block` runs in one unchecked context, and each block's
        output is checked once. On a non-finite output, or an error from a
        check the ops still make, caches[i] goes back to what it was and block
        i runs again outside the context, checking every op, to name the op.
        The head runs outside the context, so every op of the logits checks."""
        with _unchecked_ops(), np.errstate(all="ignore"):
            for i in range(1, self.cfg.n_layers + 1):
                before, inputs = caches.get(i), x
                try:
                    x = self._block(i, x, positions, caches, weights)
                    _check_finite(x.data, "block output")
                except EvaluationError:
                    break
            else:
                i = 0  # every block's output is finite
        if i:
            if before is None:
                caches.pop(i, None)
            else:
                caches[i] = before
            self._block(i, inputs, positions, caches, weights)
            raise EvaluationError(f"layer {i}: block output contains non-finite entries")
        h = rmsnorm(x, weights["final_norm"])
        return matmul(h, weights["unembed"])

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
        mask = np.ones((B, T - 1), dtype=bool) if loss_mask is None else np.asarray(loss_mask, dtype=bool)
        if mask.shape != (B, T - 1):
            raise DimensionError(f"loss mask {mask.shape} does not match transitions {(B, T - 1)}")
        sel = np.zeros((B, T), dtype=bool)
        sel[:, :-1] = mask
        return cross_entropy(logits, targets, mask=sel)

    # -- incremental decoding ----------------------------------------------

    def decode(self, prompt, new_tokens: int) -> DecodeResult:
        """Greedy decoding with incremental caches for storage layers only.

        Logits row t is the distribution over token t+1; generated token
        t+1 is its argmax. The prefill embeds the prompt in one call, then
        runs it tape-free through the layers in chunks of `PREFILL_CHUNK`
        rows; a prompt of one chunk gives `forward_logits`' rows bit for
        bit. Reconstruction layers read the stored caches through their
        fusion weights at every step and keep nothing, so only |storage
        layers| caches ever persist.
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
        weights = self._weights()
        x = embed(weights["embed"], prompt[None, :]).numpy()
        logits_rows = []
        for start in range(0, prompt.size, PREFILL_CHUNK):
            rows = slice(start, start + PREFILL_CHUNK)
            logits_rows.extend(self._layers(Tensor(x[:, rows]), np.arange(prompt.size)[rows], caches, weights).numpy()[0])

        tokens = list(prompt)
        for _ in range(new_tokens):
            nxt = int(logits_rows[-1].argmax())
            tokens.append(nxt)
            if len(tokens) == total:
                break
            step = self._forward(np.array([[nxt]], dtype=prompt.dtype), np.array([len(tokens) - 1]), caches, weights)
            logits_rows.append(step.numpy()[0, 0])

        elements = sum(c.keys.size + c.values.size for c in caches.values())
        length = next(iter(caches.values())).length
        return DecodeResult(np.asarray(tokens), np.asarray(logits_rows), len(caches), elements, length)


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

    if cfg.init_scheme == "equivalent" and plan.has_fusion_weights:
        fusion = init_equivalent(plan, sample_iterative_weights(plan, cfg.head_dim, rng))
    else:
        fusion = init_normal(plan, cfg.head_dim, rng)  # empty for a plan without fusion weights
    params.update((name, Tensor(w.numpy(), dtype=dt)) for name, w in fusion.items())
    return DecoderModel(cfg, plan, params)


def fusion_weight_rows(model: DecoderModel) -> list[dict]:
    """One (kind, target, source, weight) row per reconstruction layer and
    fusion source, each target's key rows before its value rows. A scalar
    weight is reported as-is, a vector weight as mean |w|, and a source the
    target does not read as 0. Raises for pure direct-reuse plans."""
    plan = model.plan
    if not plan.has_fusion_weights:
        raise ValueError(f"strategy {model.cfg.strategy!r} has no fusion weights")
    targets = plan.reconstruction_layers
    rules = {cache: {i: getattr(plan.rules[i], cache) for i in targets} for cache in ("key", "value")}
    sources = {
        cache: sorted({j for rule in by_target.values() if rule.kind != DIRECT for j in rule.sources})
        for cache, by_target in rules.items()
    }
    rows = []
    for i in targets:
        for cache in ("key", "value"):
            rule = rules[cache][i]
            for j in sources[cache]:
                weight = 0.0
                if rule.kind != DIRECT and j in rule.sources:
                    arr = fusion_weight(model.params, rule, cache, i, j).numpy()
                    weight = float(arr) if arr.ndim == 0 else float(np.abs(arr).mean())
                rows.append({"kind": cache, "target": i, "source": j, "weight": repr(weight)})
    return rows
