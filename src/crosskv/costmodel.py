"""Analytic attention-cost accounting and a roofline latency estimator.

Costs are transcribed symbol-for-symbol from the complexity analysis of
the four cache layouts, counted in FLOPs and cache elements (conversion
to bytes happens only inside the roofline). The half-stack methods share
the same structure: halved per-layer projection work plus a small
constant, with the fused variant adding 3*H_kv/H_q of score-side work and
an extra key read per decode step.

The roofline is deliberately minimal: latency = max(compute time, memory
time) with no overlap modeling, which is exactly the claim that fusion
I/O hides under compute in compute-bound decoding. Ratios between
methods, not absolute times, are the meaningful output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "COST_METHODS",
    "WorkloadSpec",
    "DeviceProfile",
    "CostBreakdown",
    "LatencyEstimate",
    "DEVICE_PRESETS",
    "canonical_method",
    "table1_costs",
    "fusion_decode_overhead_fraction",
    "roofline_latency",
    "sweep",
    "load_device_profile",
    "read_key_values",
]

COST_METHODS = ("MHA", "YOCO", "FusedKV-Lite", "FusedKV")

_METHOD_ALIASES = {
    "mha": "MHA",
    "gqa": "MHA",  # same row; head counts live in the workload
    "vanilla": "MHA",
    "yoco": "YOCO",
    "fusedkv-lite": "FusedKV-Lite",
    "lite": "FusedKV-Lite",
    "fusedkv": "FusedKV",
}


def canonical_method(name: str) -> str:
    key = name.strip().lower()
    if key not in _METHOD_ALIASES:
        raise ValueError(f"unknown method {name!r}; known: {', '.join(COST_METHODS)}")
    return _METHOD_ALIASES[key]


@dataclass(frozen=True)
class WorkloadSpec:
    """Attention workload shape. `decode_len` is the context length at the
    measured decode step; it defaults to the prefill length."""

    n_layers: int
    prefill_len: int
    head_dim: int
    n_query_heads: int
    n_kv_heads: int
    bytes_per_element: int = 2
    decode_len: int | None = None

    def __post_init__(self):
        for label, v in (
            ("n_layers", self.n_layers),
            ("prefill_len", self.prefill_len),
            ("head_dim", self.head_dim),
            ("n_query_heads", self.n_query_heads),
            ("n_kv_heads", self.n_kv_heads),
            ("bytes_per_element", self.bytes_per_element),
        ):
            if v <= 0:
                raise ValueError(f"{label} must be positive, got {v}")
        if self.n_query_heads < self.n_kv_heads:
            raise ValueError("query heads must be >= kv heads")
        if self.decode_len is not None and self.decode_len <= 0:
            raise ValueError("decode_len must be positive")

    @property
    def decode_context(self) -> int:
        return self.decode_len if self.decode_len is not None else self.prefill_len


@dataclass(frozen=True)
class DeviceProfile:
    label: str
    peak_flops: float  # FLOP/s
    bandwidth: float  # bytes/s

    def __post_init__(self):
        if self.peak_flops <= 0 or self.bandwidth <= 0:
            raise ValueError("device rates must be positive")


DEVICE_PRESETS = {
    # Generic high-bandwidth accelerator: decode is memory-bound.
    "hbm-accelerator": DeviceProfile("hbm-accelerator", 1.0e15, 3.3e12),
    # Bandwidth-starved part: attention math dominates everywhere.
    "compute-heavy": DeviceProfile("compute-heavy", 1.0e12, 1.0e13),
}


@dataclass(frozen=True)
class CostBreakdown:
    method: str
    prefill_flops: float
    decode_flops: float  # per generated token
    cache_mem_elements: float
    cache_io_elements: float  # per decode step
    bytes_per_element: int


def table1_costs(method: str, w: WorkloadSpec) -> CostBreakdown:
    """Prefill/decode FLOPs, cache memory, and per-step cache I/O for one
    method, evaluated literally from the per-row formulas."""
    method = canonical_method(method)
    L, S, D = w.n_layers, w.prefill_len, w.head_dim
    hq, hkv = w.n_query_heads, w.n_kv_heads
    s = w.decode_context
    ratio = hkv / hq

    if method == "MHA":
        prefill = L * S * hq * D * (4 * S + 4 * hq * D + 4 * hkv * D)
        decode = L * hq * D * (4 * s + 4 * hq * D + 4 * hkv * D)
        mem = 2 * L * S * hkv * D
        io = 2 * L * s * hkv * D
    elif method in ("YOCO", "FusedKV-Lite"):  # one row each in Table 1, with equal entries
        prefill = L * S * hq * D * (2 * S + 2 * hq * D + 2 * hkv * D + 2) + 2 * L * (hq * D) ** 2
        decode = L * hq * D * (4 * s + 4 * hq * D + 2 * hkv * D)
        mem = L * S * hkv * D
        io = 2 * L * s * hkv * D
    else:  # FusedKV: fusion adds score-side work and a third cache read
        prefill = (
            L * S * hq * D * (2 * S + 2 * hq * D + 2 * hkv * D + 2 + 3 * ratio)
            + 2 * L * (hq * D) ** 2
        )
        decode = L * hq * D * (4 * s + 4 * hq * D + 2 * hkv * D + 3 * s * ratio)
        mem = L * S * hkv * D
        io = 3 * L * s * hkv * D
    return CostBreakdown(method, float(prefill), float(decode), float(mem), float(io), w.bytes_per_element)


def fusion_decode_overhead_fraction(w: WorkloadSpec) -> float:
    """Fusion FLOPs as a fraction of the score/value work per decode step:
    3*H_kv / (4*H_q). 3/256 at 128 query heads and 2 kv heads."""
    return 3.0 * w.n_kv_heads / (4.0 * w.n_query_heads)


@dataclass(frozen=True)
class LatencyEstimate:
    ttft_s: float
    tpot_s: float
    ttft_bound: str  # "compute" | "memory"
    tpot_bound: str


def roofline_latency(costs: CostBreakdown, dev: DeviceProfile, weight_bytes: float = 0.0) -> LatencyEstimate:
    """max(compute, memory) latency for prefill (TTFT) and one decode step
    (TPOT). Prefill memory traffic is the cache volume written plus one
    weight read; decode traffic is the per-step cache I/O plus weights."""
    if weight_bytes < 0:
        raise ValueError("weight_bytes must be nonnegative")
    bpe = costs.bytes_per_element
    ttft_compute = costs.prefill_flops / dev.peak_flops
    ttft_memory = (costs.cache_mem_elements * bpe + weight_bytes) / dev.bandwidth
    tpot_compute = costs.decode_flops / dev.peak_flops
    tpot_memory = (costs.cache_io_elements * bpe + weight_bytes) / dev.bandwidth
    return LatencyEstimate(
        ttft_s=max(ttft_compute, ttft_memory),
        tpot_s=max(tpot_compute, tpot_memory),
        ttft_bound="compute" if ttft_compute >= ttft_memory else "memory",
        tpot_bound="compute" if tpot_compute >= tpot_memory else "memory",
    )


def sweep(
    methods: Sequence[str],
    specs: Iterable[WorkloadSpec],
    devices: Sequence[DeviceProfile],
    weight_bytes: float = 0.0,
) -> list[dict]:
    """Cross-product cost/latency table with columns normalized to the
    full-cache baseline at the same workload and device."""
    methods = [canonical_method(m) for m in methods]
    if not methods or not devices:
        raise ValueError("sweep needs at least one method and one device")
    rows = []
    for spec in specs:
        base_costs = table1_costs("MHA", spec)
        for dev in devices:
            base_lat = roofline_latency(base_costs, dev, weight_bytes)
            for method in methods:
                costs = table1_costs(method, spec)
                lat = roofline_latency(costs, dev, weight_bytes)
                rows.append(
                    {
                        "method": method,
                        "device": dev.label,
                        "n_layers": spec.n_layers,
                        "prefill_len": spec.prefill_len,
                        "decode_context": spec.decode_context,
                        "head_dim": spec.head_dim,
                        "n_query_heads": spec.n_query_heads,
                        "n_kv_heads": spec.n_kv_heads,
                        "prefill_flops": costs.prefill_flops,
                        "decode_flops": costs.decode_flops,
                        "cache_mem_elements": costs.cache_mem_elements,
                        "cache_io_elements": costs.cache_io_elements,
                        "ttft_s": lat.ttft_s,
                        "tpot_s": lat.tpot_s,
                        "ttft_vs_vanilla": lat.ttft_s / base_lat.ttft_s,
                        "tpot_vs_vanilla": lat.tpot_s / base_lat.tpot_s,
                        "cache_mem_vs_vanilla": costs.cache_mem_elements / base_costs.cache_mem_elements,
                        "cache_io_vs_vanilla": costs.cache_io_elements / base_costs.cache_io_elements,
                    }
                )
    return rows


def read_key_values(path) -> dict[str, str]:
    """Parse a plain `key = value` file; blank lines and `#` comments are
    skipped, and a later key overrides an earlier one. A line without `=`
    raises ValueError naming the file and the line."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def load_device_profile(path) -> DeviceProfile:
    """Read a key=value file with label, peak_flops, bandwidth."""
    fields = read_key_values(path)
    missing = {"label", "peak_flops", "bandwidth"} - set(fields)
    if missing:
        raise ValueError(f"device profile missing keys: {sorted(missing)}")
    return DeviceProfile(fields["label"], float(fields["peak_flops"]), float(fields["bandwidth"]))
