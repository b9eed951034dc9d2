"""Op counts of the toy model: what one decode step and one taped loss record.

    PYTHONPATH=src python3 tools/counts.py

For the five strategies the benchmark decodes, at the toy shape
(`ModelConfig()`: 8 layers, d = 64, 8 query and 8 kv heads), prints as JSON:

  decode_step   ops by name of one tape-free decode step after a 64-token
                prompt: those of `decode(prompt, 2)` less those of
                `decode(prompt, 1)`, the prefill alone
  forward_loss  nodes by name, leaves excepted, that a tape records for one
                `forward_loss` of an [8, 17] batch

each with its total. Ops are counted at `record_op`, in every crosskv module
that binds it, as `tests/test_model.py::TestOpCounts` counts them. The
counts are exact integers: unlike timings, they do not drift between runs or
hosts, so two checkouts compare directly.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import numpy as np

import crosskv.tensor
from crosskv.model import ModelConfig, build_model
from crosskv.tensor import Tape

STRATEGIES = ("Vanilla", "GQA", "YOCO", "FusedKV", "DenseFusion")


@contextmanager
def counting():
    """Count every op recorded while open, by name, into the dict it yields."""
    counts: dict[str, int] = {}
    inner = crosskv.tensor.record_op

    def counted(op, out, parents, backward):
        counts[op] = counts.get(op, 0) + 1
        return inner(op, out, parents, backward)

    modules = [m for name, m in sys.modules.items() if name.startswith("crosskv") and getattr(m, "record_op", None) is inner]
    for module in modules:
        module.record_op = counted
    try:
        yield counts
    finally:
        for module in modules:
            module.record_op = inner


def decode_step_ops(strategy: str) -> dict[str, int]:
    model = build_model(ModelConfig(strategy=strategy), seed=0)
    prompt = np.arange(64)
    with counting() as prefill:
        model.decode(prompt, 1)
    with counting() as both:
        model.decode(prompt, 2)
    return {op: n - prefill.get(op, 0) for op, n in sorted(both.items()) if n != prefill.get(op, 0)}


def forward_loss_nodes(strategy: str) -> dict[str, int]:
    model = build_model(ModelConfig(strategy=strategy), seed=0)
    tokens = np.random.default_rng(1).integers(0, 64, size=(8, 17))
    with Tape() as tape:
        for _, p in model.parameters():
            tape.watch(p)
        model.forward_loss(tokens)
    nodes: dict[str, int] = {}
    for node in tape.nodes:
        if node.op != "leaf":
            nodes[node.op] = nodes.get(node.op, 0) + 1
    return dict(sorted(nodes.items()))


def counts(strategies=STRATEGIES) -> dict:
    out = {}
    for strategy in strategies:
        step, loss = decode_step_ops(strategy), forward_loss_nodes(strategy)
        out[strategy] = {
            "decode_step": step,
            "decode_step_total": sum(step.values()),
            "forward_loss": loss,
            "forward_loss_total": sum(loss.values()),
        }
    return out


if __name__ == "__main__":
    print(json.dumps(counts(), indent=1))
