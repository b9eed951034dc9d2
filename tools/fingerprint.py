"""Numerics fingerprint: one SHA-256 per group of model outputs.

    PYTHONPATH=src python3 tools/fingerprint.py

Builds every configuration of the set below and hashes what it computes, in
four groups, so a change that should leave every output bit-identical can
show it, and a mismatch names the group:

  forward    `forward_logits` of a [2, 24] batch
  gradients  the taped loss of that batch and every parameter's gradient
  decode     tokens and logits of 20 greedy tokens after a 30- and a
             140-token prompt (the second spans two prefill chunks)
  train      the losses and final parameters of a 3-step copy-task run

The set is the 9 catalog strategies plus `value1key2`, each with 4 and 2 kv
heads, in double and single precision: 40 configurations at L = 4, d = 32,
4 query heads, vocab 32, max_seq_len 160. It prints one line per group and
one over all groups. The hashes depend on the BLAS kernels of the host, so
compare them between two checkouts on one machine; they are not a gate.
"""

from __future__ import annotations

import hashlib

import numpy as np

from crosskv.model import ModelConfig, build_model
from crosskv.sharing import STRATEGY_NAMES
from crosskv.tensor import Tape
from crosskv.training import train

STRATEGIES = STRATEGY_NAMES + ("value1key2",)
KV_HEADS = (4, 2)
PRECISIONS = ("double", "single")
GROUPS = ("forward", "gradients", "decode", "train")


def _update(h, arr) -> None:
    """Feed one array to `h` by value: dtype, shape, then its entries. An
    extended-precision entry goes in as two float64 parts whose sum is the
    entry, because its padding bytes are not part of its value."""
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    if arr.dtype == np.longdouble and np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        hi = arr.astype(np.float64)
        arr = np.stack([hi, (arr - hi).astype(np.float64)])
    h.update(arr.tobytes())


def fingerprint(strategies=STRATEGIES, kv_heads=KV_HEADS, precisions=PRECISIONS) -> dict[str, str]:
    """SHA-256 hex digest of each group over every configuration, plus "all" over the groups."""
    hashes = {group: hashlib.sha256() for group in GROUPS}
    for strategy in strategies:
        for n_kv in kv_heads:
            for precision in precisions:
                cfg = ModelConfig(
                    n_layers=4, d_model=32, n_query_heads=4, n_kv_heads=n_kv, vocab_size=32,
                    max_seq_len=160, strategy=strategy, precision=precision,
                )
                model = build_model(cfg, seed=5)
                batch = np.random.default_rng(1).integers(0, cfg.vocab_size, size=(2, 24))
                _update(hashes["forward"], model.forward_logits(batch).numpy())
                with Tape() as tape:
                    for _, p in model.parameters():
                        tape.watch(p)
                    loss = model.forward_loss(batch)
                    tape.backward(loss)
                    _update(hashes["gradients"], loss.numpy())
                    for _, p in model.parameters():
                        _update(hashes["gradients"], tape.grad(p))
                for prompt_len in (30, 140):
                    prompt = np.random.default_rng(prompt_len).integers(0, cfg.vocab_size, size=prompt_len)
                    result = model.decode(prompt, 20)
                    _update(hashes["decode"], result.tokens)
                    _update(hashes["decode"], result.logits)
                trained = build_model(cfg, seed=6)
                report = train(trained, "copy", 3, seed=3, batch_size=4)
                _update(hashes["train"], np.asarray(report.losses))
                for _, p in trained.parameters():
                    _update(hashes["train"], p.numpy())
    digests = {group: h.hexdigest() for group, h in hashes.items()}
    digests["all"] = hashlib.sha256("".join(digests[g] for g in GROUPS).encode()).hexdigest()
    return digests


if __name__ == "__main__":
    for group, digest in fingerprint().items():
        print(f"{group} {digest}")
