import numpy as np
import pytest

from crosskv.costmodel import (
    DEVICE_PRESETS,
    DeviceProfile,
    WorkloadSpec,
    canonical_method,
    fusion_decode_overhead_fraction,
    load_device_profile,
    roofline_latency,
    sweep,
    table1_costs,
)

# The reference workload every cell is pinned at.
W = WorkloadSpec(n_layers=24, prefill_len=8192, head_dim=128, n_query_heads=16, n_kv_heads=16)


class TestCostTable:
    def test_hand_expansion_all_cells(self):
        # Independent expansion, written out term by term, plus frozen values.
        L, S, D, Hq, Hkv = 24, 8192, 128, 16, 16
        HqD, HkvD = Hq * D, Hkv * D

        mha_prefill = L * S * Hq * D * (4 * S + 4 * HqD + 4 * HkvD)
        mha_decode = L * Hq * D * (4 * S + 4 * HqD + 4 * HkvD)
        half_prefill = L * S * Hq * D * (2 * S + 2 * HqD + 2 * HkvD + 2) + 2 * L * HqD * HqD
        half_decode = L * Hq * D * (4 * S + 4 * HqD + 2 * HkvD)
        fused_prefill = L * S * Hq * D * (2 * S + 2 * HqD + 2 * HkvD + 2 + 3 * Hkv // Hq) + 2 * L * HqD * HqD
        fused_decode = L * Hq * D * (4 * S + 4 * HqD + 2 * HkvD + 3 * S * Hkv // Hq)

        expected = {
            "MHA": (mha_prefill, mha_decode, 2 * L * S * HkvD, 2 * L * S * HkvD),
            "YOCO": (half_prefill, half_decode, L * S * HkvD, 2 * L * S * HkvD),
            "FusedKV-Lite": (half_prefill, half_decode, L * S * HkvD, 2 * L * S * HkvD),
            "FusedKV": (fused_prefill, fused_decode, L * S * HkvD, 3 * L * S * HkvD),
        }
        frozen = {
            "MHA": (19791209299968, 2415919104, 805306368, 805306368),
            "YOCO": (9896611282944, 2214592512, 402653184, 805306368),
            "FusedKV-Lite": (9896611282944, 2214592512, 402653184, 805306368),
            "FusedKV": (9897819242496, 3422552064, 402653184, 1207959552),
        }
        for method, cells in expected.items():
            got = table1_costs(method, W)
            values = (got.prefill_flops, got.decode_flops, got.cache_mem_elements, got.cache_io_elements)
            for name, a, b, c in zip(("prefill", "decode", "mem", "io"), values, cells, frozen[method]):
                assert a == b == c, f"{method} {name}: {a} vs {b} vs {c}"

    def test_fusedkv_mem_half_and_io_threehalves_for_any_spec(self):
        for spec in (W, WorkloadSpec(3, 17, 64, 8, 2), WorkloadSpec(1, 1, 2, 1, 1)):
            base = table1_costs("MHA", spec)
            fused = table1_costs("FusedKV", spec)
            assert fused.cache_mem_elements / base.cache_mem_elements == 0.5
            assert fused.cache_io_elements / base.cache_io_elements == 1.5

    def test_vanilla_cache_memory_formula(self):
        spec = WorkloadSpec(5, 7, 16, 4, 2)
        assert table1_costs("MHA", spec).cache_mem_elements == 2 * 5 * 7 * 2 * 16

    def test_fusion_overhead_fraction(self):
        assert fusion_decode_overhead_fraction(WorkloadSpec(1, 1, 128, 128, 2)) == 3 / 256

    def test_gqa_alias_maps_to_shared_row(self):
        spec = WorkloadSpec(4, 64, 32, 8, 2)
        assert table1_costs("GQA", spec) == table1_costs("MHA", spec)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            table1_costs("MLA", W)

    def test_decode_context_overrides_prefill_length(self):
        spec = WorkloadSpec(2, 100, 8, 2, 2, decode_len=10)
        ten = table1_costs("MHA", spec)
        assert ten.cache_io_elements == 2 * 2 * 10 * 2 * 8
        assert ten.cache_mem_elements == 2 * 2 * 100 * 2 * 8  # prefill-denominated


class TestRoofline:
    def test_weight_bytes_shift_the_memory_term(self):
        spec = WorkloadSpec(2, 16, 8, 2, 2)
        dev = DeviceProfile("d", 1e12, 1e9)
        lo = roofline_latency(table1_costs("MHA", spec), dev, weight_bytes=0.0)
        hi = roofline_latency(table1_costs("MHA", spec), dev, weight_bytes=1e9)
        assert hi.tpot_s > lo.tpot_s

    def test_zero_device_rates_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", 0.0, 1.0)


    @pytest.mark.parametrize("rates", [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, -1.0)])
    def test_non_finite_or_nonpositive_device_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="must be finite and positive"):
            DeviceProfile("bad", *rates)

    @pytest.mark.parametrize("weight_bytes", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_weight_bytes_rejected(self, weight_bytes):
        costs = table1_costs("MHA", WorkloadSpec(2, 16, 8, 2, 2))
        with pytest.raises(ValueError, match="weight_bytes must be finite and nonnegative"):
            roofline_latency(costs, DEVICE_PRESETS["hbm-accelerator"], weight_bytes)

    def test_zero_weight_bytes_accepted(self):
        costs = table1_costs("MHA", WorkloadSpec(2, 16, 8, 2, 2))
        assert roofline_latency(costs, DEVICE_PRESETS["hbm-accelerator"], 0).tpot_s > 0


class TestWorkloadSpec:
    @pytest.mark.parametrize("index", range(6))
    @pytest.mark.parametrize("value", [0, -3, float("nan"), 8.0, 2.5, "8", None])
    def test_sizes_are_integers_of_at_least_one(self, index, value):
        sizes = [8, 1024, 64, 16, 8, 2]
        sizes[index] = value
        with pytest.raises(ValueError, match="must be a positive integer"):
            WorkloadSpec(*sizes)

    @pytest.mark.parametrize("value", [0, float("nan"), 3.0])
    def test_decode_len_is_an_integer_of_at_least_one(self, value):
        with pytest.raises(ValueError, match="decode_len must be a positive integer"):
            WorkloadSpec(8, 1024, 64, 16, 8, decode_len=value)

    def test_numpy_integers_accepted(self):
        spec = WorkloadSpec(*(np.int64(v) for v in (8, 1024, 64, 16, 8)), decode_len=np.int32(9))
        assert table1_costs("MHA", spec) == table1_costs("MHA", WorkloadSpec(8, 1024, 64, 16, 8, decode_len=9))


class TestSweep:
    def test_vanilla_normalization_identically_one(self):
        rows = sweep(["MHA"], [W], [DEVICE_PRESETS["hbm-accelerator"]])
        for row in rows:
            assert row["ttft_vs_vanilla"] == 1.0
            assert row["tpot_vs_vanilla"] == 1.0
            assert row["cache_mem_vs_vanilla"] == 1.0

    def test_lite_cache_io_ratio_identically_one(self):
        specs = [WorkloadSpec(8, s, 64, 16, 16) for s in (128, 1024, 4096)]
        rows = sweep(["FusedKV-Lite"], specs, list(DEVICE_PRESETS.values()))
        assert all(row["cache_io_vs_vanilla"] == 1.0 for row in rows)

    def test_grid_shape(self):
        specs = [WorkloadSpec(8, s, 64, 16, 16) for s in (64, 128, 256, 512)]
        rows = sweep(["MHA", "YOCO", "FusedKV"], specs, [DEVICE_PRESETS["hbm-accelerator"]])
        assert len(rows) == 12

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [W], [DEVICE_PRESETS["hbm-accelerator"]])


class TestMonotonicity:
    def test_costs_nondecreasing_in_each_dimension(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            base_vals = dict(
                n_layers=int(rng.integers(1, 12)),
                prefill_len=int(rng.integers(1, 2048)),
                head_dim=int(rng.integers(1, 128)),
                n_kv_heads=int(rng.integers(1, 8)),
            )
            base_vals["n_query_heads"] = base_vals["n_kv_heads"] * int(rng.integers(1, 6))
            for dim in base_vals:
                bump = dict(base_vals)
                bump[dim] += int(rng.integers(1, 5))
                if dim == "n_kv_heads" and bump[dim] > bump["n_query_heads"]:
                    bump["n_query_heads"] = bump[dim] * 2
                lo, hi = WorkloadSpec(**base_vals), WorkloadSpec(**bump)
                for method in ("MHA", "YOCO", "FusedKV-Lite", "FusedKV"):
                    a, b = table1_costs(method, lo), table1_costs(method, hi)
                    assert b.prefill_flops >= a.prefill_flops
                    assert b.decode_flops >= a.decode_flops
                    assert b.cache_mem_elements >= a.cache_mem_elements
                    assert b.cache_io_elements >= a.cache_io_elements


class TestDeviceProfiles:
    def test_load_from_key_value_file(self, tmp_path):
        path = tmp_path / "dev.profile"
        path.write_text("# my accelerator\nlabel = bench-gpu\npeak_flops = 9.9e14\nbandwidth = 2.0e12\n")
        dev = load_device_profile(path)
        assert dev.label == "bench-gpu"
        assert dev.peak_flops == 9.9e14
        assert dev.bandwidth == 2.0e12

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("label = x\n")
        with pytest.raises(ValueError, match="missing keys"):
            load_device_profile(path)

    def test_canonical_method_aliases(self):
        assert canonical_method("lite") == "FusedKV-Lite"
        assert canonical_method("vanilla") == "MHA"

    @pytest.mark.parametrize("name", ["CLA", "value1key2"])
    def test_catalog_strategy_without_table1_row_rejected(self, name):
        with pytest.raises(ValueError, match=f"unknown method '{name}'"):
            canonical_method(name)
