"""Cross-layer KV-cache sharing: layer partitioning and reconstruction.

A `SharingPlan` splits the L decoder layers (1-based) into storage layers,
whose caches persist during generation, and reconstruction layers, whose
caches are rebuilt on demand from a set of storage-layer sources. Per
reconstruction layer the key cache and the value cache each carry their
own rule, because the useful source layers differ between the two.

Strategy catalog (middle defaults to L/2):

    Vanilla / GQA            every layer stores its own cache
    CLA                      odd layers store; even layer i reuses i-1
    YOCO                     bottom half stores; top half reuses layer middle
    FusedKV                  top half fuses sources {1, middle} with
                             learnable per-channel vectors (keys
                             pair-symmetric, values unconstrained)
    FusedKV-Lite             top half: keys from middle, values from 1
    FusedKV-Lite-Rev         reversed: keys from 1, values from middle
    FusedKV-Lite-Learnable   Lite sources with learnable vector weights
    DenseFusion              top half fuses all bottom layers with
                             learnable scalars
    value<X>key<Y>           top half: values from layer X, keys from Y

Reconstruction runs on post-rotation keys; pair symmetry of the key
weights is what keeps that legal (see `crosskv.rope`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .rope import PairSymmetricWeight, expand_pairs
from .tensor import DimensionError, Tensor, _check_finite

__all__ = [
    "DIRECT",
    "FUSION_SCALAR",
    "FUSION_VECTOR",
    "STRATEGY_NAMES",
    "CacheRule",
    "ReconstructionSpec",
    "SharingPlan",
    "LayerCache",
    "FoldedCache",
    "FusionWeights",
    "IterativeWeights",
    "plan_for_strategy",
    "canonical_strategy",
    "reconstruct",
    "folded_cache",
    "init_normal",
    "init_equivalent",
    "sample_iterative_weights",
    "iterative_reconstruct",
]

DIRECT = "direct"
FUSION_SCALAR = "fusion_scalar"
FUSION_VECTOR = "fusion_vector"

STRATEGY_NAMES = (
    "Vanilla",
    "GQA",
    "CLA",
    "YOCO",
    "FusedKV",
    "FusedKV-Lite",
    "FusedKV-Lite-Rev",
    "FusedKV-Lite-Learnable",
    "DenseFusion",
)

_ALIASES = {
    "vanilla": "Vanilla",
    "mha": "Vanilla",
    "gqa": "GQA",
    "cla": "CLA",
    "yoco": "YOCO",
    "fusedkv": "FusedKV",
    "fusedkv-lite": "FusedKV-Lite",
    "lite": "FusedKV-Lite",
    "fusedkv-lite-rev": "FusedKV-Lite-Rev",
    "lite-rev": "FusedKV-Lite-Rev",
    "fusedkv-lite-learnable": "FusedKV-Lite-Learnable",
    "lite-learnable": "FusedKV-Lite-Learnable",
    "densefusion": "DenseFusion",
}

_ABLATION_RE = re.compile(r"^value(\d+)key(\d+)$", re.IGNORECASE)


def canonical_strategy(name: str) -> str:
    """Resolve aliases and case; ablation names pass through normalized."""
    m = _ABLATION_RE.match(name.strip())
    if m:
        return f"value{int(m.group(1))}key{int(m.group(2))}"
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown strategy {name!r}; known: {', '.join(STRATEGY_NAMES)}, value<X>key<Y>")
    return _ALIASES[key]


@dataclass(frozen=True)
class CacheRule:
    """How one cache kind (keys or values) of one layer is rebuilt."""

    sources: tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in (DIRECT, FUSION_SCALAR, FUSION_VECTOR):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if not self.sources:
            raise ValueError("a cache rule needs at least one source")
        if self.kind == DIRECT and len(self.sources) != 1:
            raise ValueError(f"direct reuse takes one source, got {self.sources}")
        if len(set(self.sources)) != len(self.sources):
            raise ValueError(f"duplicate sources {self.sources}")


@dataclass(frozen=True)
class ReconstructionSpec:
    key: CacheRule
    value: CacheRule

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.key.sources) | set(self.value.sources)))


@dataclass(frozen=True)
class SharingPlan:
    """Layer partition plus per-layer reconstruction rules (layers 1-based)."""

    n_layers: int
    storage_layers: tuple[int, ...]
    rules: dict  # reconstruction layer -> ReconstructionSpec

    def __post_init__(self):
        storage = set(self.storage_layers)
        recon = set(self.rules)
        if storage & recon:
            raise ValueError(f"layers {sorted(storage & recon)} are both storage and reconstruction")
        if storage | recon != set(range(1, self.n_layers + 1)):
            raise ValueError("storage and reconstruction layers must partition 1..L")
        for i, spec in self.rules.items():
            for j in spec.sources:
                if j not in storage:
                    # also rules out cycles: no reconstruction layer can feed another
                    raise ValueError(f"layer {i} sources non-storage layer {j}")

    @property
    def reconstruction_layers(self) -> tuple[int, ...]:
        return tuple(sorted(self.rules))

    def sources(self, i: int) -> tuple[int, ...]:
        return self.rules[i].sources

    @property
    def has_fusion_weights(self) -> bool:
        return any(
            spec.key.kind != DIRECT or spec.value.kind != DIRECT for spec in self.rules.values()
        )


def plan_for_strategy(strategy: str, n_layers: int, middle: int | None = None) -> SharingPlan:
    """Build the sharing plan for a named strategy.

    `middle` is the last storage layer for the half-stack strategies and
    defaults to L/2 (requiring even L in that case).
    """
    name = canonical_strategy(strategy)
    if n_layers < 1:
        raise ValueError(f"n_layers must be positive, got {n_layers}")

    if name in ("Vanilla", "GQA"):
        return SharingPlan(n_layers, tuple(range(1, n_layers + 1)), {})

    if name == "CLA":
        if n_layers < 2:
            raise ValueError("CLA needs at least 2 layers")
        storage = tuple(range(1, n_layers + 1, 2))
        rules = {
            i: ReconstructionSpec(
                CacheRule((i - 1,), DIRECT), CacheRule((i - 1,), DIRECT)
            )
            for i in range(2, n_layers + 1, 2)
        }
        return SharingPlan(n_layers, storage, rules)

    # Half-stack strategies: storage 1..middle, reconstruction middle+1..L.
    if middle is None:
        if n_layers % 2 != 0:
            raise ValueError(f"{name} with default middle needs an even layer count, got {n_layers}")
        middle = n_layers // 2
    if not 1 <= middle < n_layers:
        raise ValueError(f"middle {middle} out of range [1, {n_layers - 1}]")
    storage = tuple(range(1, middle + 1))
    top = range(middle + 1, n_layers + 1)

    def half_plan(key_rule: CacheRule, value_rule: CacheRule) -> SharingPlan:
        rules = {i: ReconstructionSpec(key_rule, value_rule) for i in top}
        return SharingPlan(n_layers, storage, rules)

    if name == "YOCO":
        rule = CacheRule((middle,), DIRECT)
        return half_plan(rule, rule)
    if name == "FusedKV":
        srcs = (1, middle) if middle > 1 else (1,)
        rule = CacheRule(srcs, FUSION_VECTOR)
        return half_plan(rule, rule)
    if name == "FusedKV-Lite":
        return half_plan(CacheRule((middle,), DIRECT), CacheRule((1,), DIRECT))
    if name == "FusedKV-Lite-Rev":
        return half_plan(CacheRule((1,), DIRECT), CacheRule((middle,), DIRECT))
    if name == "FusedKV-Lite-Learnable":
        return half_plan(
            CacheRule((middle,), FUSION_VECTOR), CacheRule((1,), FUSION_VECTOR)
        )
    if name == "DenseFusion":
        rule = CacheRule(storage, FUSION_SCALAR)
        return half_plan(rule, rule)

    m = _ABLATION_RE.match(name)
    assert m is not None
    value_src, key_src = int(m.group(1)), int(m.group(2))
    for label, src in (("value", value_src), ("key", key_src)):
        if not 1 <= src <= middle:
            raise ValueError(f"{label} source {src} outside storage range 1..{middle}")
    return half_plan(CacheRule((key_src,), DIRECT), CacheRule((value_src,), DIRECT))


class _CacheBuffer:
    """Writable K and V storage of one layer at a fixed row capacity, and
    how many rows are written. Rows below `rows` never change again."""

    __slots__ = ("keys", "values", "rows")

    def __init__(self, like: Tensor, capacity: int):
        shape = like.shape[:-2] + (capacity, like.shape[-1])
        self.keys = np.empty(shape, dtype=like.dtype)
        self.values = np.empty(shape, dtype=like.dtype)
        self.rows = 0

    def write(self, keys: np.ndarray, values: np.ndarray, layer: int) -> None:
        added = np.s_[..., self.rows : self.rows + keys.shape[-2], :]
        for buf, rows in ((self.keys, keys), (self.values, values)):
            buf[added] = rows
            _check_finite(buf[added], f"layer {layer} cache append")
        self.rows += keys.shape[-2]


@dataclass
class LayerCache:
    """Post-rotation keys and values of one layer, shape [..., H_kv, s, D].

    Only storage layers ever persist one of these across decode steps,
    growing by `append`; reconstruction layers see transient instances. A
    cache that came from `append` holds read-only row-prefix views of a
    buffer preallocated at the decode capacity; its values never change.
    """

    keys: Tensor
    values: Tensor
    layer: int
    _buffer: _CacheBuffer | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.keys.shape != self.values.shape:
            raise DimensionError(
                f"layer {self.layer}: key shape {self.keys.shape} != value shape {self.values.shape}"
            )
        if self.keys.ndim < 3:
            raise DimensionError(f"cache tensors need [..., H_kv, s, D], got {self.keys.shape}")

    @property
    def length(self) -> int:
        return self.keys.shape[-2]

    @property
    def key_terms(self) -> tuple:
        return ((self.keys, None),)

    @property
    def value_terms(self) -> tuple:
        return ((self.values, None),)

    def append(self, new: "LayerCache", capacity: int) -> "LayerCache":
        """This cache's rows followed by `new`'s, in a buffer of `capacity` rows.

        The first append copies this cache's rows into a fresh buffer; an
        append to the buffer's newest cache writes only the new rows. Rows
        are checked finite as they are written. Appending to an older cache
        copies into a fresh buffer, so the newer cache's rows stay as they
        are. Tape-free: the result records no gradient.
        """
        n, m = self.length, new.length
        if new.keys.shape[:-2] != self.keys.shape[:-2] or new.keys.shape[-1] != self.keys.shape[-1]:
            raise DimensionError(f"layer {self.layer}: cannot append {new.keys.shape} to {self.keys.shape}")
        if new.keys.dtype != self.keys.dtype:
            raise TypeError(f"layer {self.layer}: cannot append {new.keys.dtype} rows to a {self.keys.dtype} cache")
        if n + m > capacity:
            raise ValueError(f"layer {self.layer}: {n} + {m} cache rows exceed capacity {capacity}")
        buf = self._buffer
        if buf is None or buf.rows != n or buf.keys.shape[-2] < n + m:
            buf = _CacheBuffer(self.keys, capacity)
            buf.write(self.keys.data, self.values.data, self.layer)
        buf.write(new.keys.data, new.values.data, self.layer)
        return LayerCache(
            Tensor._adopt_rows(buf.keys[..., : n + m, :]),
            Tensor._adopt_rows(buf.values[..., : n + m, :]),
            self.layer,
            buf,
        )


@dataclass(frozen=True)
class FoldedCache:
    """A reconstruction layer's keys and values left unsummed: each is a
    tuple of (stored tensor, weight or None) terms, and the cache they
    stand for is the sum of weight * tensor. `crosskv.attention.attend`
    folds the weights into queries and outputs, so reading one of these
    never materializes the reconstructed cache.
    """

    key_terms: tuple
    value_terms: tuple
    layer: int

    @property
    def length(self) -> int:
        return self.key_terms[0][0].shape[-2]


@dataclass
class FusionWeights:
    """Learnable reconstruction weights keyed by (target layer, source layer).

    Key weights are pair-symmetric vectors (or scalars); value weights are
    unconstrained vectors (or scalars). Values are never rotated, so they
    carry no symmetry constraint.
    """

    key: dict
    value: dict

    def named_parameters(self):
        for (i, j), w in sorted(self.key.items()):
            yield f"fusion.key.{i}.{j}", w.free if isinstance(w, PairSymmetricWeight) else w
        for (i, j), w in sorted(self.value.items()):
            yield f"fusion.value.{i}.{j}", w

    def set_parameter(self, name: str, tensor: Tensor) -> None:
        _, kind, i, j = name.split(".")
        slot = (int(i), int(j))
        if kind == "key":
            current = self.key[slot]
            if isinstance(current, PairSymmetricWeight):
                current.free = tensor
            else:
                self.key[slot] = tensor
        else:
            self.value[slot] = tensor

    def key_expanded(self, i: int, j: int) -> Tensor:
        w = self.key[(i, j)]
        return w.expanded() if isinstance(w, PairSymmetricWeight) else w


def folded_cache(
    plan: SharingPlan,
    weights: FusionWeights | None,
    stored: dict,
    i: int,
) -> FoldedCache:
    """The terms that rebuild reconstruction layer `i` from stored caches:
    a direct rule is its source tensor unweighted; a fusion rule is one
    weighted term per source. The tensors are the stored ones (aliased)."""
    if i not in plan.rules:
        raise KeyError(f"layer {i} is not a reconstruction layer")
    spec = plan.rules[i]
    length = None
    for j in spec.sources:
        if j not in stored:
            raise KeyError(f"layer {i} needs the cache of layer {j}, which is not stored")
        if length is None:
            length = stored[j].length
        elif stored[j].length != length:
            raise DimensionError(
                f"source caches for layer {i} have different lengths "
                f"({stored[j].length} vs {length})"
            )
    if (spec.key.kind != DIRECT or spec.value.kind != DIRECT) and weights is None:
        raise ValueError(f"layer {i} uses weighted fusion but no weights were given")

    def terms(rule: CacheRule, tensor_of, weight_of) -> tuple:
        if rule.kind == DIRECT:
            return ((tensor_of(rule.sources[0]), None),)
        return tuple((tensor_of(j), weight_of(j)) for j in rule.sources)

    return FoldedCache(
        terms(spec.key, lambda j: stored[j].keys, lambda j: weights.key_expanded(i, j)),
        terms(spec.value, lambda j: stored[j].values, lambda j: weights.value[(i, j)]),
        i,
    )


def _sum_terms(terms: tuple) -> Tensor:
    total = None
    for tensor, weight in terms:
        term = tensor if weight is None else weight * tensor
        total = term if total is None else total + term
    return total


def reconstruct(
    plan: SharingPlan,
    weights: FusionWeights | None,
    stored: dict,
    i: int,
) -> tuple[Tensor, Tensor]:
    """Rebuild (K, V) for reconstruction layer `i` from stored caches.

    Direct rules return the source tensors themselves (aliasing is fine;
    value equality is the contract). Fusion rules compute the weighted sum
    of the sources and are differentiable with respect to both the weights
    and the source caches. This is the materialized form of `folded_cache`.
    """
    folded = folded_cache(plan, weights, stored, i)
    return _sum_terms(folded.key_terms), _sum_terms(folded.value_terms)


def init_normal(plan: SharingPlan, head_dim: int, seed) -> FusionWeights:
    """Standard-normal fusion weights.

    Vector key weights draw D/2 values per (target, source) pair and are
    duplicated on expansion; value weights draw D values; scalar rules draw
    one value each. Deterministic for a fixed seed.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    key, value = {}, {}
    for i in sorted(plan.rules):
        spec = plan.rules[i]
        if spec.key.kind == FUSION_VECTOR:
            for j in spec.key.sources:
                key[(i, j)] = PairSymmetricWeight(Tensor(rng.standard_normal(head_dim // 2)))
        elif spec.key.kind == FUSION_SCALAR:
            for j in spec.key.sources:
                key[(i, j)] = Tensor(np.asarray(rng.standard_normal()))
        if spec.value.kind == FUSION_VECTOR:
            for j in spec.value.sources:
                value[(i, j)] = Tensor(rng.standard_normal(head_dim))
        elif spec.value.kind == FUSION_SCALAR:
            for j in spec.value.sources:
                value[(i, j)] = Tensor(np.asarray(rng.standard_normal()))
    return FusionWeights(key, value)


@dataclass(frozen=True)
class IterativeWeights:
    """Auxiliary weights of the chain-form reconstruction.

    Both dicts are keyed by (target layer, source layer). For the first
    reconstruction layer n+1 the sources are {1, n}; above that, keys fuse
    (i-1, n) and values fuse (i-1, 1). Entries are raw arrays (length D,
    key entries pair-symmetric) or plain floats for scalar toys.
    """

    key: dict
    value: dict


def _fusedkv_shape(plan: SharingPlan) -> int:
    """Validate the two-anchor fusion shape and return the middle layer n."""
    if not plan.rules:
        raise ValueError("plan has no reconstruction layers")
    n = max(plan.storage_layers)
    if tuple(plan.storage_layers) != tuple(range(1, n + 1)) or n < 2:
        raise ValueError("plan is not two-anchor shaped: storage must be 1..n with n >= 2")
    expected = tuple(sorted((1, n)))
    for i, spec in plan.rules.items():
        if spec.key.kind == DIRECT or spec.value.kind == DIRECT:
            raise ValueError(f"layer {i} uses direct reuse; equivalent init needs fusion rules")
        if tuple(sorted(spec.key.sources)) != expected or tuple(sorted(spec.value.sources)) != expected:
            raise ValueError(f"layer {i} does not fuse sources {{1, {n}}}")
    if tuple(sorted(plan.rules)) != tuple(range(n + 1, plan.n_layers + 1)):
        raise ValueError("reconstruction layers must be n+1..L")
    return n


def sample_iterative_weights(plan: SharingPlan, head_dim: int, seed) -> IterativeWeights:
    """Draw standard-normal auxiliary weights for the chain form (key
    entries pair-symmetric, value entries unconstrained)."""
    n = _fusedkv_shape(plan)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    key, value = {}, {}
    for i in range(n + 1, plan.n_layers + 1):
        key_srcs = (1, n) if i == n + 1 else (i - 1, n)
        val_srcs = (1, n) if i == n + 1 else (i - 1, 1)
        for j in key_srcs:
            key[(i, j)] = np.repeat(rng.standard_normal(head_dim // 2), 2)
        for j in val_srcs:
            value[(i, j)] = rng.standard_normal(head_dim)
    return IterativeWeights(key, value)


def init_equivalent(plan: SharingPlan, auxiliary: IterativeWeights) -> FusionWeights:
    """Collapse chain-form auxiliary weights into standard two-anchor weights.

    The recursion (elementwise products and sums):

        keys    a[n+1,1] = a'[n+1,1]          a[n+1,n] = a'[n+1,n]
                a[i,1]   = a'[i,i-1] * a[i-1,1]
                a[i,n]   = a'[i,i-1] * a[i-1,n] + a'[i,n]
        values  b[n+1,1] = b'[n+1,1]          b[n+1,n] = b'[n+1,n]
                b[i,1]   = b'[i,i-1] * b[i-1,1] + b'[i,1]
                b[i,n]   = b'[i,i-1] * b[i-1,n]

    so standard-form reconstruction with the returned weights matches
    `iterative_reconstruct` exactly.
    """
    n = _fusedkv_shape(plan)
    a: dict = {}
    b: dict = {}
    for i in range(n + 1, plan.n_layers + 1):
        if i == n + 1:
            a[(i, 1)] = np.asarray(auxiliary.key[(i, 1)], dtype=np.float64)
            a[(i, n)] = np.asarray(auxiliary.key[(i, n)], dtype=np.float64)
            b[(i, 1)] = np.asarray(auxiliary.value[(i, 1)], dtype=np.float64)
            b[(i, n)] = np.asarray(auxiliary.value[(i, n)], dtype=np.float64)
        else:
            ak_prev = np.asarray(auxiliary.key[(i, i - 1)], dtype=np.float64)
            a[(i, 1)] = ak_prev * a[(i - 1, 1)]
            a[(i, n)] = ak_prev * a[(i - 1, n)] + np.asarray(auxiliary.key[(i, n)], dtype=np.float64)
            bv_prev = np.asarray(auxiliary.value[(i, i - 1)], dtype=np.float64)
            b[(i, 1)] = bv_prev * b[(i - 1, 1)] + np.asarray(auxiliary.value[(i, 1)], dtype=np.float64)
            b[(i, n)] = bv_prev * b[(i - 1, n)]

    scalar = plan.rules[n + 1].key.kind == FUSION_SCALAR
    key, value = {}, {}
    for slot, arr in a.items():
        if scalar or arr.ndim == 0:
            key[slot] = Tensor(arr)
        else:
            even, odd = arr[0::2], arr[1::2]
            if not np.array_equal(even, odd):
                raise ValueError(f"auxiliary key weight for {slot} is not pair-symmetric")
            key[slot] = PairSymmetricWeight(Tensor(even))
    for slot, arr in b.items():
        value[slot] = Tensor(arr)
    return FusionWeights(key, value)


def iterative_reconstruct(
    plan: SharingPlan, auxiliary: IterativeWeights, stored: dict
) -> dict:
    """Chain-form reconstruction: every layer fuses the previous rebuilt
    cache with the recurring anchor (layer n for keys, layer 1 for values).
    Returns {layer: (K, V)} for all reconstruction layers."""
    n = _fusedkv_shape(plan)
    for j in (1, n):
        if j not in stored:
            raise KeyError(f"anchor cache for layer {j} is not stored")
    if stored[1].length != stored[n].length:
        raise DimensionError("anchor caches have different lengths")
    out: dict = {}
    k_prev: Tensor | None = None
    v_prev: Tensor | None = None
    for i in range(n + 1, plan.n_layers + 1):
        if i == n + 1:
            k = auxiliary.key[(i, 1)] * stored[1].keys + auxiliary.key[(i, n)] * stored[n].keys
            v = (
                auxiliary.value[(i, 1)] * stored[1].values
                + auxiliary.value[(i, n)] * stored[n].values
            )
        else:
            k = auxiliary.key[(i, i - 1)] * k_prev + auxiliary.key[(i, n)] * stored[n].keys
            v = auxiliary.value[(i, i - 1)] * v_prev + auxiliary.value[(i, 1)] * stored[1].values
        out[i] = (k, v)
        k_prev, v_prev = k, v
    return out
