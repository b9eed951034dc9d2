"""The benchmark's clock hooks and span tracer (perfbench/hooks.py) patch
crosskv names by attribute; installing them fails with AttributeError once
a name they wrap is no longer bound. This loads hooks.py as it is and
checks that every patch installs, runs and restores."""

import importlib
from pathlib import Path

import numpy as np

import crosskv.model
from crosskv.model import ModelConfig, build_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_and_boundary_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    hooks = importlib.import_module("hooks")
    assert Path(hooks.__file__).resolve().parent == PERFBENCH
    tracer, bounds = hooks.Tracer(), hooks.Boundaries()
    targets = [(owner, attr) for owner, attr, _ in tracer.patches() + bounds.patches()]
    before = [getattr(owner, attr) for owner, attr in targets]
    model = build_model(ModelConfig(n_layers=4, d_model=16, n_query_heads=2, n_kv_heads=2, strategy="FusedKV"), seed=0)
    with hooks.installed(bounds, tracer):
        assert all(getattr(owner, attr) is not orig for (owner, attr), orig in zip(targets, before))
        model.decode(np.arange(5), 3)
    assert len(bounds.tokens) == 3  # the prefill and two decode steps each embed once
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(targets, before))


def test_chunked_prefill_embeds_once_per_forward_step(monkeypatch):
    # the benchmark stamps a token boundary at each embed call: a prompt of
    # several prefill chunks must still count as one forward step
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(crosskv.model, "PREFILL_CHUNK", 2)
    hooks = importlib.import_module("hooks")
    bounds = hooks.Boundaries()
    model = build_model(ModelConfig(n_layers=4, d_model=16, n_query_heads=2, n_kv_heads=2, strategy="YOCO"), seed=0)
    with hooks.patched(bounds.patches()):
        model.decode(np.arange(7), 3)
    assert len(bounds.tokens) == 3  # a 7-row prefill in 4 chunks and two decode steps


def test_tracer_inspect_hooks_see_cache_appends_and_ops(monkeypatch):
    # the traced run's per-token metrics come from inspect hooks that read
    # attend's arguments (the cache is args[1]); they run only inside a unit
    monkeypatch.syspath_prepend(str(PERFBENCH))
    hooks = importlib.import_module("hooks")
    tracer = hooks.Tracer()
    with hooks.patched(tracer.patches()):
        for strategy, n_kv_heads in (("FusedKV", 2), ("GQA", 1)):
            cfg = ModelConfig(n_layers=4, d_model=16, n_query_heads=2, n_kv_heads=n_kv_heads, strategy=strategy)
            model = build_model(cfg, seed=0)
            bucket = (strategy, "decode")
            tracer.new_request(strategy, model)
            tracer.begin(bucket, hooks.clock())
            model.decode(np.arange(5), 3)  # the prefill, then two decode steps
            tracer.end(hooks.clock())
            # the prefill writes the 5 prompt rows into the cache buffer;
            # each decode step then writes its one row in place
            row_bytes = 2 * n_kv_heads * cfg.head_dim * np.dtype(cfg.dtype).itemsize  # keys and values
            want = (1 + 1) * len(model.plan.storage_layers) * row_bytes
            assert tracer.bytes[(bucket, "model.cache_append")] == want > 0
            assert tracer.counts[(bucket, "tensor.record_op")] > 0
