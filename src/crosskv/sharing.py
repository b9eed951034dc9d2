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

Fusion weights are named as the model's parameters: `fusion.key.<i>.<j>`
weighs source j's keys in layer i (a vector key weight stores only its D/2
free entries, so it is pair-symmetric by construction), and likewise
`fusion.value.<i>.<j>`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rope import expand_pairs
from .tensor import DimensionError, Tensor, _active_tape, _check_finite

__all__ = [
    "DIRECT",
    "FUSION_SCALAR",
    "FUSION_VECTOR",
    "STRATEGY_NAMES",
    "CacheRule",
    "ReconstructionSpec",
    "SharingPlan",
    "LayerCache",
    "fusion_weight",
    "IterativeWeights",
    "plan_for_strategy",
    "canonical_strategy",
    "reconstruct",
    "folded_cache",
    "applied_weights",
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

_ALIASES = {name.lower(): name for name in STRATEGY_NAMES} | {
    "mha": "Vanilla",
    "lite": "FusedKV-Lite",
    "lite-rev": "FusedKV-Lite-Rev",
    "lite-learnable": "FusedKV-Lite-Learnable",
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

    @cached_property
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

    if name == "FusedKV":
        srcs = (1, middle) if middle > 1 else (1,)
        rule = CacheRule(srcs, FUSION_VECTOR)
        return half_plan(rule, rule)
    if name == "FusedKV-Lite-Learnable":
        return half_plan(
            CacheRule((middle,), FUSION_VECTOR), CacheRule((1,), FUSION_VECTOR)
        )
    if name == "DenseFusion":
        rule = CacheRule(storage, FUSION_SCALAR)
        return half_plan(rule, rule)

    # Direct reuse, as (value source, key source): the named ones, else value<X>key<Y>.
    direct = {"YOCO": (middle, middle), "FusedKV-Lite": (1, middle), "FusedKV-Lite-Rev": (middle, 1)}
    value_src, key_src = direct[name] if name in direct else map(int, _ABLATION_RE.match(name).groups())
    for label, src in (("value", value_src), ("key", key_src)):
        if not 1 <= src <= middle:
            raise ValueError(f"{label} source {src} outside storage range 1..{middle}")
    return half_plan(CacheRule((key_src,), DIRECT), CacheRule((value_src,), DIRECT))


class _CacheBuffer:
    """Writable K and V storage of one layer at a fixed row capacity, each
    in the dtype of the cache it holds, written first with the rows it is
    made from. Rows below `rows`, the count written, never change again."""

    __slots__ = ("keys", "values", "rows")

    def __init__(self, keys: np.ndarray, values: np.ndarray, capacity: int, layer: int):
        shape = keys.shape[:-2] + (capacity, keys.shape[-1])
        self.keys = np.empty(shape, dtype=keys.dtype)
        self.values = np.empty(shape, dtype=values.dtype)
        self.rows = 0
        self.write(keys, values, layer)

    def write(self, keys: np.ndarray, values: np.ndarray, layer: int) -> None:
        n, m, capacity = self.rows, keys.shape[-2], self.keys.shape[-2]
        if n + m > capacity:
            raise ValueError(f"layer {layer}: {n} + {m} cache rows exceed capacity {capacity}")
        for buf, rows in ((self.keys, keys), (self.values, values)):
            _check_finite(rows, f"layer {layer} cache append")
            buf[..., n : n + m, :] = rows
        self.rows = n + m

    def cache(self, layer: int) -> "LayerCache":
        """The written rows, as read-only row-prefix views."""
        n, op = self.rows, f"layer {layer} cache"
        keys, values = Tensor._wrap(self.keys[..., :n, :], op), Tensor._wrap(self.values[..., :n, :], op)
        return LayerCache(((keys, None),), ((values, None),), layer, self)


@dataclass(frozen=True)
class LayerCache:
    """One layer's post-rotation keys and values as weighted terms: each
    side is a tuple of (tensor [..., H_kv, s, D], weight or None) pairs,
    and stands for the sum of weight * tensor.

    A storage layer's cache (`stored`) is one unweighted term of its own
    rows, which `keys` and `values` read; a model pass grows it by `append`
    across decode steps. A reconstruction layer keeps none: its cache
    (`folded_cache`) is terms of its sources' stored tensors. A cache from
    `append` or `buffered` holds read-only row-prefix views of a buffer
    preallocated at the decode capacity; its values never change.
    """

    key_terms: tuple
    value_terms: tuple
    layer: int
    _buffer: _CacheBuffer | None = field(default=None, repr=False, compare=False)

    @classmethod
    def stored(cls, keys: Tensor, values: Tensor, layer: int) -> "LayerCache":
        """A storage layer's cache: its keys and values, one unweighted term each."""
        if keys.shape != values.shape:
            raise DimensionError(f"layer {layer}: key shape {keys.shape} != value shape {values.shape}")
        if keys.ndim < 3:
            raise DimensionError(f"cache tensors need [..., H_kv, s, D], got {keys.shape}")
        return cls(((keys, None),), ((values, None),), layer)

    @property
    def keys(self) -> Tensor:
        return self.key_terms[0][0]

    @property
    def values(self) -> Tensor:
        return self.value_terms[0][0]

    @property
    def length(self) -> int:
        return self.keys.shape[-2]

    def buffered(self, capacity: int) -> "LayerCache":
        """This cache's rows written into a fresh buffer of `capacity` rows,
        so that appending to the result writes only the new rows. While a
        tape records on this thread, the cache is returned as it is."""
        if _active_tape() is not None:
            return self
        return _CacheBuffer(self.keys.data, self.values.data, capacity, self.layer).cache(self.layer)

    def append(self, keys: Tensor, values: Tensor, capacity: int) -> "LayerCache":
        """This cache's rows followed by the rows of `keys` and `values`, in a buffer of `capacity` rows.

        An append to the buffer's newest cache writes only the new rows; any
        other cache is first copied into a fresh buffer, so a newer cache's
        rows stay as they are. Rows are checked finite and within capacity
        as they are written. Tape-free: the result records no gradient.
        """
        old_keys, old_values = self.key_terms[0][0].data, self.value_terms[0][0].data
        new_keys, new_values = keys.data, values.data
        shape, new_shape, layer = old_keys.shape, new_keys.shape, self.layer
        if new_values.shape != new_shape:
            raise DimensionError(f"layer {layer}: key shape {new_shape} != value shape {new_values.shape}")
        if new_shape[:-2] != shape[:-2] or new_shape[-1] != shape[-1]:
            raise DimensionError(f"layer {layer}: cannot append {new_shape} to {shape}")
        for side, rows, cache in (("key", new_keys, old_keys), ("value", new_values, old_values)):
            if rows.dtype != cache.dtype:
                raise TypeError(f"layer {layer}: cannot append {rows.dtype} {side} rows to a {cache.dtype} cache")
        n, m, buf = shape[-2], new_shape[-2], self._buffer
        if buf is None or buf.rows != n or buf.keys.shape[-2] < n + m:
            buf = _CacheBuffer(old_keys, old_values, capacity, layer)
        buf.write(new_keys, new_values, layer)
        return buf.cache(layer)


def fusion_weight(weights: dict, rule: CacheRule, cache: str, i: int, j: int) -> Tensor:
    """The weight on source j of layer i's `cache` ("key" or "value")
    fusion rule, as applied: a vector key weight expanded to length D."""
    w = weights[f"fusion.{cache}.{i}.{j}"]
    return expand_pairs(w) if cache == "key" and rule.kind == FUSION_VECTOR else w


def applied_weights(plan: SharingPlan, weights: dict) -> dict:
    """Every fusion weight of `plan` by parameter name, as applied (`fusion_weight`)."""
    rules = [(i, c, r) for i, s in plan.rules.items() for c, r in (("key", s.key), ("value", s.value)) if r.kind != DIRECT]
    return {f"fusion.{c}.{i}.{j}": fusion_weight(weights, r, c, i, j) for i, c, r in rules for j in r.sources}


def folded_cache(plan: SharingPlan, weights: dict | None, stored: dict, i: int, expand: bool = True) -> LayerCache:
    """The cache of reconstruction layer `i` as terms of stored caches: a
    direct rule is its source tensor unweighted; a fusion rule is one
    weighted term per source, in rule order. The tensors are the stored
    ones (aliased). `weights` holds the fusion parameters, or with
    `expand=False` the weights as applied (`applied_weights`)."""
    if i not in plan.rules:
        raise KeyError(f"layer {i} is not a reconstruction layer")
    spec = plan.rules[i]
    for j in spec.sources:
        if j not in stored:
            raise KeyError(f"layer {i} needs the cache of layer {j}, which is not stored")
    lengths = [stored[j].length for j in spec.sources]
    if lengths.count(lengths[0]) != len(lengths):
        other = next(n for n in lengths if n != lengths[0])
        raise DimensionError(f"source caches for layer {i} have different lengths ({other} vs {lengths[0]})")
    if (spec.key.kind != DIRECT or spec.value.kind != DIRECT) and weights is None:
        raise ValueError(f"layer {i} uses weighted fusion but no weights were given")

    def terms(rule: CacheRule, cache: str, tensor_of) -> tuple:
        if rule.kind == DIRECT:
            return ((tensor_of(rule.sources[0]), None),)
        if expand:
            return tuple((tensor_of(j), fusion_weight(weights, rule, cache, i, j)) for j in rule.sources)
        return tuple((tensor_of(j), weights[f"fusion.{cache}.{i}.{j}"]) for j in rule.sources)

    return LayerCache(
        terms(spec.key, "key", lambda j: stored[j].keys),
        terms(spec.value, "value", lambda j: stored[j].values),
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
    weights: dict | None,
    stored: dict,
    i: int,
) -> tuple[Tensor, Tensor]:
    """Rebuild (K, V) for reconstruction layer `i` from stored caches.

    Direct rules return the source tensors themselves (aliasing is fine;
    value equality is the contract). Fusion rules compute the weighted sum
    of the sources and are differentiable with respect to both the weights
    and the source caches. This is the materialized form of `folded_cache`,
    the oracle the kernel's fold is checked against: the model never calls
    it, and `attend` sums a multi-row query's terms with the same ops.
    """
    folded = folded_cache(plan, weights, stored, i)
    return _sum_terms(folded.key_terms), _sum_terms(folded.value_terms)


def _named(key: dict, value: dict) -> dict:
    """(i, j)-keyed weights as tensors by parameter name: keys, then values, each in numeric (i, j) order."""
    named = {f"fusion.key.{i}.{j}": Tensor(w) for (i, j), w in sorted(key.items())}
    return named | {f"fusion.value.{i}.{j}": Tensor(w) for (i, j), w in sorted(value.items())}


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _draw(rng: np.random.Generator, rule: CacheRule, cache: str, head_dim: int):
    """One standard-normal fusion weight in its parameter form: the D/2
    free values of a vector key weight, D values of a vector value
    weight, one number for a scalar rule."""
    if rule.kind == FUSION_SCALAR:
        return rng.standard_normal()
    return rng.standard_normal(head_dim // 2 if cache == "key" else head_dim)


def init_normal(plan: SharingPlan, head_dim: int, seed) -> dict:
    """Standard-normal fusion weights (`_draw`), by parameter name: per
    (target, source) pair, each layer draws its key rule's then its value
    rule's. Deterministic for a fixed seed.
    """
    rng = _rng(seed)
    key, value = {}, {}
    for i in sorted(plan.rules):
        spec = plan.rules[i]
        for out, rule, cache in ((key, spec.key, "key"), (value, spec.value, "value")):
            if rule.kind != DIRECT:
                for j in rule.sources:
                    out[(i, j)] = _draw(rng, rule, cache, head_dim)
    return _named(key, value)


@dataclass(frozen=True)
class IterativeWeights:
    """Auxiliary weights of the chain-form reconstruction.

    Both dicts are keyed by (target layer, source layer). For the first
    reconstruction layer n+1 the sources are {1, n}; above that, keys fuse
    (i-1, n) and values fuse (i-1, 1). Entries are in the parameters' form
    (`_draw`): a vector key weight holds its D/2 free values, a vector
    value weight D values, a scalar rule one number.
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
    """Draw standard-normal auxiliary weights for the chain form (`_draw`):
    per layer, its key entries then its value entries."""
    n = _fusedkv_shape(plan)
    rng = _rng(seed)
    key, value = {}, {}
    for i in range(n + 1, plan.n_layers + 1):
        spec = plan.rules[i]
        for j in (1, n) if i == n + 1 else (i - 1, n):
            key[(i, j)] = _draw(rng, spec.key, "key", head_dim)
        for j in (1, n) if i == n + 1 else (i - 1, 1):
            value[(i, j)] = _draw(rng, spec.value, "value", head_dim)
    return IterativeWeights(key, value)


def init_equivalent(plan: SharingPlan, auxiliary: IterativeWeights) -> dict:
    """Collapse chain-form auxiliary weights into standard two-anchor
    weights, by parameter name.

    The recursion (elementwise products and sums):

        keys    a[n+1,1] = a'[n+1,1]          a[n+1,n] = a'[n+1,n]
                a[i,1]   = a'[i,i-1] * a[i-1,1]
                a[i,n]   = a'[i,i-1] * a[i-1,n] + a'[i,n]
        values  b[n+1,1] = b'[n+1,1]          b[n+1,n] = b'[n+1,n]
                b[i,1]   = b'[i,i-1] * b[i-1,1] + b'[i,1]
                b[i,n]   = b'[i,i-1] * b[i-1,n]

    so standard-form reconstruction with the returned weights matches
    `iterative_reconstruct` exactly. It runs on the entries as they are: a
    product of free key values is the free values of the product.
    """
    n = _fusedkv_shape(plan)
    aux_a = {slot: np.asarray(w, dtype=np.float64) for slot, w in auxiliary.key.items()}
    aux_b = {slot: np.asarray(w, dtype=np.float64) for slot, w in auxiliary.value.items()}
    a = {(n + 1, j): aux_a[(n + 1, j)] for j in (1, n)}
    b = {(n + 1, j): aux_b[(n + 1, j)] for j in (1, n)}
    for i in range(n + 2, plan.n_layers + 1):
        a[(i, 1)] = aux_a[(i, i - 1)] * a[(i - 1, 1)]
        a[(i, n)] = aux_a[(i, i - 1)] * a[(i - 1, n)] + aux_a[(i, n)]
        b[(i, 1)] = aux_b[(i, i - 1)] * b[(i - 1, 1)] + aux_b[(i, 1)]
        b[(i, n)] = aux_b[(i, i - 1)] * b[(i - 1, n)]
    return _named(a, b)


def iterative_reconstruct(
    plan: SharingPlan, auxiliary: IterativeWeights, stored: dict
) -> dict:
    """Chain-form reconstruction: every layer fuses the previous rebuilt
    cache with the recurring anchor (layer n for keys, layer 1 for values),
    each weight applied as `fusion_weight` applies it.
    Returns {layer: (K, V)} for all reconstruction layers."""
    n = _fusedkv_shape(plan)
    for j in (1, n):
        if j not in stored:
            raise KeyError(f"anchor cache for layer {j} is not stored")
    if stored[1].length != stored[n].length:
        raise DimensionError("anchor caches have different lengths")
    named = _named(auxiliary.key, auxiliary.value)

    def a(i: int, j: int) -> Tensor:
        return fusion_weight(named, plan.rules[i].key, "key", i, j)

    def b(i: int, j: int) -> Tensor:
        return fusion_weight(named, plan.rules[i].value, "value", i, j)

    out: dict = {}
    k = a(n + 1, 1) * stored[1].keys + a(n + 1, n) * stored[n].keys
    v = b(n + 1, 1) * stored[1].values + b(n + 1, n) * stored[n].values
    out[n + 1] = (k, v)
    for i in range(n + 2, plan.n_layers + 1):
        k = a(i, i - 1) * k + a(i, n) * stored[n].keys
        v = b(i, i - 1) * v + b(i, 1) * stored[1].values
        out[i] = (k, v)
    return out
