"""The benchmark's clock hooks and span tracer (perfbench/hooks.py) patch
crosskv names by attribute; installing them fails with AttributeError once
a name they wrap is no longer bound. This loads hooks.py as it is and
checks that every patch installs, runs and restores."""

import importlib
from pathlib import Path

import numpy as np

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
