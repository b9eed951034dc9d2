"""The benchmark's own tests, at tiny shapes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import crosskv.model  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from crosskv.model import ModelConfig  # noqa: E402

TINY_DECODE = w.DecodeShape(
    n_layers=4, d_model=32, n_query_heads=4, vocab_size=32,
    prompt_len=24, new_tokens=24, checked_steps=4, warmup_prompt=8, warmup_tokens=2,
)
TINY_TRAIN = w.TrainShape(
    model=ModelConfig(n_layers=4, d_model=32, n_query_heads=4, n_kv_heads=4, vocab_size=16, max_seq_len=48, d_ff=16),
    batch_size=2,
    steps_per_request=4,
)

TINY_WORKLOAD = w.Workload(TINY_DECODE, TINY_TRAIN)


def run_tiny(name: str, trace: bool) -> w.Outcome:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(w, "SLICE_STEPS", 4)  # several hand-overs within a tiny request
        return w.run_workload(name, TINY_WORKLOAD, 7, 0.0, trace)


S5 = ("Vanilla", "GQA", "YOCO", "FusedKV", "DenseFusion")
END_TO_END = {
    "setup_s", "peak_rss_mib", "ttft_p50_ms", "prompt_tok_s", "tpot_p50_ms", "tpot_p95_ms", "output_tok_s",
    *(f"tpot_p50_ms.{s}" for s in S5),
    "train_step_p50_ms", "train_step_p90_ms", "train_tok_s",
}
PER_LAYER = {
    "rope.apply_rope.ms_per_token", "trace_overhead_frac",
    "tensor.repeat.ms_per_token.GQA", "tensor.repeat.bytes_per_token.GQA",
    *(f"{m}.{s}" for s in S5 for m in (
        "attention.attend.self_ms_per_token", "tensor.masked_softmax.ms_per_token",
        "model.self_ms_per_token", "model.cache_append_bytes_per_token",
        "model.peak_cache_bytes", "tensor.record_op.calls_per_token",
    )),
    *(f"sharing.reconstruct.{m}.{s}" for s in ("YOCO", "FusedKV", "DenseFusion")
      for m in ("ms_per_token", "share_of_token")),
    *(f"sharing.reconstruct.bytes_per_token.{s}" for s in ("FusedKV", "DenseFusion")),
    "attention.attend.self_ms_per_prompt", "tensor.matmul_t.ms_per_prompt",
    "tensor.masked_softmax.ms_per_prompt", "tensor.matmul.ms_per_prompt",
    "model.self_ms_per_prompt", "tensor.masked_softmax.max_out_bytes",
    "model.forward_loss.ms_per_step", "tensor.Tape.backward.ms_per_step",
    "training.self_ms_per_step", "tensor.record_op.calls_per_step",
}
# every workload emits every metric: the end-to-end ones untraced, the per-layer ones traced
EXPECTED = {(name, trace): PER_LAYER if trace else END_TO_END for name in w.WORKLOADS for trace in (False, True)}


@pytest.fixture(scope="module")
def outcomes():
    return {(name, trace): run_tiny(name, trace) for name in w.WORKLOADS for trace in (False, True)}


def test_decode_and_training_requests_are_served_in_turn(outcomes):
    out = outcomes[("decode_long", False)]
    assert out.report["decode_steps"] == len(w.DECODE_STRATEGIES) * (TINY_DECODE.new_tokens - 1)
    assert out.report["ttft_samples"] == 2 * len(w.DECODE_STRATEGIES)  # decode requests + prefill-only requests
    # one training request after every round of decode slices but the last
    handovers = (TINY_DECODE.new_tokens - 1) // 4
    assert out.report["train_requests"] == handovers
    assert out.report["train_steps"] == handovers * TINY_TRAIN.steps_per_request


def test_benchmark_json_declares_every_emitted_metric_once():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_every_metric_is_emitted_with_its_unit(outcomes, key):
    name, trace = key
    out = outcomes[key]
    assert out.failed == 0 and out.attempted > 0
    units = run.declared_metrics()
    line = run.result_line(run.with_process_metrics(out, 0.0, trace), units, out.attempted, out.failed)
    assert set(line["metrics"]) == EXPECTED[key]
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == units[metric]
        assert np.isfinite(entry["value"])
    assert line["correct"] is True


def test_decode_long_shows_reconstruct_on_fusion_only(outcomes):
    m = outcomes[("decode_long", True)].metrics
    assert m["sharing.reconstruct.bytes_per_token.FusedKV"] > 0
    assert m["tensor.repeat.bytes_per_token.GQA"] > 0
    assert m["sharing.reconstruct.share_of_token.YOCO"] < m["sharing.reconstruct.share_of_token.FusedKV"]


def test_perturbed_reference_logits_count_as_failures(monkeypatch):
    original = crosskv.model.DecoderModel.forward_logits

    def perturbed(self, tokens, caches_out=None):
        out = original(self, tokens, caches_out)
        if np.ndim(tokens) == 2:  # a training batch: leave the taped loss alone
            return out
        return crosskv.model.Tensor(out.numpy() + 1e-9)

    monkeypatch.setattr(crosskv.model.DecoderModel, "forward_logits", perturbed)
    out = run_tiny("decode_long", False)
    assert out.failed == len(w.DECODE_STRATEGIES)  # one recompute check per strategy
    assert run.result_line(out.metrics, run.declared_metrics(), out.attempted, out.failed)["correct"] is False


def test_failing_strategy_is_counted_and_withholds_metrics(monkeypatch):
    original = crosskv.model.DecoderModel.decode

    def decode(self, prompt, new_tokens):
        if self.cfg.strategy == "GQA" and len(prompt) == TINY_DECODE.prompt_len:  # not the warm-up
            raise RuntimeError("injected")
        return original(self, prompt, new_tokens)

    monkeypatch.setattr(crosskv.model.DecoderModel, "decode", decode)
    out = run_tiny("decode_long", False)
    assert out.failed == 3  # the decode request, the prefill-only request, the missing recompute check
    assert out.metrics == {}


def test_logits_match_tolerance():
    x = np.zeros((3, 4))
    assert w.logits_match(x, x + 5e-11)
    assert not w.logits_match(x, x + 2e-10)
    assert not w.logits_match(x, x[:2])


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_self_times_plus_glue_add_up_to_traced_wall(outcomes, name):
    out = outcomes[(name, True)]
    acc = out.report["trace_accounting"]
    wall, summed = acc["traced_wall_s"], acc["self_plus_glue_s"]
    assert wall > 0
    assert abs(summed - wall) <= abs(out.metrics["trace_overhead_frac"]) * wall + 1e-9


def test_costmodel_cross_check_names_the_missing_row(outcomes):
    rows = outcomes[("decode_long", False)].report["costmodel"]["strategies"]
    assert rows["DenseFusion"]["predicted"] == "costmodel has no DenseFusion row"
    assert rows["Vanilla"]["measured_tpot_vs_vanilla"] == 1.0
    assert rows["FusedKV"]["predicted_decode_flops_vs_vanilla"] > rows["YOCO"]["predicted_decode_flops_vs_vanilla"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_toy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
