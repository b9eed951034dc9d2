"""Clock hooks and the span tracer that the benchmark installs into crosskv.

Every hook replaces a name in the namespace of the module that *calls* it
(`crosskv.model.embed`, `crosskv.attention.matmul_t`, ...), because
`from .x import f` binds names at import time. Methods are patched on
their class. `patched` restores every name on exit.

The untraced run installs only `Boundaries`: crosskv.model calls `embed`
once per forward step and crosskv.training calls `make_batch` once per
optimizer step, so stamping the clock there observes token and step
boundaries without touching private methods.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import crosskv.attention
import crosskv.model
import crosskv.rope
import crosskv.tensor
import crosskv.training

# Every duration the benchmark reports is CPU time of the process. The
# program runs BLAS on one thread and does no I/O while it serves, and only
# one request thread runs at a time, so on a dedicated host this equals the
# wall time; on a shared host it leaves out the time other tenants hold the
# vCPU, which otherwise dominated the tails (train_toy's tpot_p95_ms spread
# 0.30 of its median over runs on wall time against 0.06 on CPU time, in
# alternating runs). Tasks waiting for the turn use no CPU.
clock = time.process_time


@contextmanager
def patched(patches):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def installed(bounds: "Boundaries", tracer: "Tracer | None"):
    """Install the tracer's spans (if any), then the boundary hooks around
    them, so a boundary stamp precedes the span of the call it marks."""
    with patched(tracer.patches() if tracer is not None else []):
        with patched(bounds.patches()):
            yield


class Boundaries:
    """Clock stamps at the start of each forward step and training step.

    `on_token` / `on_step`, when set, are called with each stamp before
    the hooked function runs; the workloads use them to switch spans on and
    off per step and to hand over the turn between decode requests.
    """

    def __init__(self):
        self.tokens: list[float] = []  # one stamp per forward step (prefill or decode step)
        self.steps: list[float] = []  # one stamp per optimizer step
        self.batches: list = []  # the (tokens, mask) batch of each optimizer step
        self.on_token = None
        self.on_step = None

    def reset(self) -> None:
        # new lists: a decode request in flight may own the old `tokens`
        self.tokens, self.steps, self.batches = [], [], []

    def patches(self):
        embed = crosskv.model.embed
        make_batch = crosskv.training.make_batch

        def hooked_embed(*args, **kwargs):
            t = clock()
            self.tokens.append(t)
            if self.on_token is not None:
                self.on_token(t)
            return embed(*args, **kwargs)

        def hooked_make_batch(*args, **kwargs):
            t = clock()
            self.steps.append(t)
            if self.on_step is not None:
                self.on_step(t)
            batch = make_batch(*args, **kwargs)
            self.batches.append(batch)
            return batch

        return [
            (crosskv.model, "embed", hooked_embed),
            (crosskv.training, "make_batch", hooked_make_batch),
        ]


class Tracer:
    """Spans around calls into each crosskv layer, aggregated per bucket.

    A unit (one decode step, one prompt, one training step) is traced
    between `begin` and `end`; outside a unit every wrapper passes straight
    through. A span's self time is its duration minus the time covered by
    its wrapped children. Time inside a unit that no top-level span covers
    is the unit's glue (`glue[bucket]`).
    """

    def __init__(self):
        self.on = False
        self.bucket = None
        self.stack: list[float] = []  # child time accumulated by each open span
        self.unit_start = 0.0
        self.top = 0.0  # duration of the unit's top-level spans
        self.spans = defaultdict(lambda: [0.0, 0.0])  # (bucket, name) -> [self_s, total_s]
        self.counts = defaultdict(int)  # (bucket, name) -> calls
        self.bytes = defaultdict(int)  # (bucket, name) -> bytes
        self.max_bytes = defaultdict(int)  # (bucket, name) -> largest single output
        self.walls = defaultdict(list)  # bucket -> wall time of each traced unit
        self.glue = defaultdict(float)  # bucket -> unit time outside top-level spans
        self.storage_layers: dict = {}  # strategy -> its storage layers
        self.last_cache: dict = {}  # (strategy, storage layer) -> keys seen at the previous traced call

    def begin(self, bucket, t: float) -> None:
        self.bucket = bucket
        self.stack.clear()
        self.top = 0.0
        self.unit_start = t
        self.on = True

    def end(self, t: float) -> None:
        if not self.on:
            return
        self.on = False
        wall = t - self.unit_start
        self.walls[self.bucket].append(wall)
        self.glue[self.bucket] += wall - self.top

    def accounting(self) -> dict:
        """Wall time of all traced units beside the sum of every span's self
        time plus the glue; they agree when the self-time bookkeeping is sound."""
        return {
            "traced_wall_s": sum(sum(w) for w in self.walls.values()),
            "self_plus_glue_s": sum(acc[0] for acc in self.spans.values()) + sum(self.glue.values()),
        }

    def new_request(self, strategy: str, model) -> None:
        """Buckets are (strategy, phase); requests of different strategies may interleave."""
        self.storage_layers[strategy] = frozenset(model.plan.storage_layers)
        for layer in self.storage_layers[strategy]:
            self.last_cache.pop((strategy, layer), None)

    def timed(self, name: str, fn, inspect=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            out = fn(*args, **kwargs)
            dur = clock() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dur
            else:
                self.top += dur
            acc = spans[(self.bucket, name)]
            acc[0] += dur - child
            acc[1] += dur
            if inspect is not None:
                inspect(self, args, out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[(self.bucket, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patches(self):
        m, a, t = crosskv.model, crosskv.attention, crosskv.tensor
        timed = [
            (m, "embed", "tensor.embed", None),
            (m, "matmul", "tensor.matmul", None),
            (m, "rmsnorm", "tensor.rmsnorm", None),
            (m, "swiglu", "tensor.swiglu", None),
            (m, "apply_rope", "rope.apply_rope", None),
            (m, "attend", "attention.attend", _cache_append_bytes),
            (m, "reconstruct", "sharing.reconstruct", _reconstruct_bytes),
            (a, "matmul", "tensor.matmul", None),
            (a, "matmul_t", "tensor.matmul_t", None),
            (a, "masked_softmax", "tensor.masked_softmax", _largest_output),
            (a, "repeat", "tensor.repeat", _repeat_bytes),
            (m.DecoderModel, "forward_loss", "model.forward_loss", None),
            (t.Tape, "backward", "tensor.Tape.backward", None),
        ]
        out = [(owner, attr, self.timed(name, getattr(owner, attr), inspect)) for owner, attr, name, inspect in timed]
        for owner in (t, m, crosskv.rope):
            out.append((owner, "record_op", self.counted("tensor.record_op", owner.record_op)))
        return out


def _repeat_bytes(tr: Tracer, args, out) -> None:
    tr.bytes[(tr.bucket, "tensor.repeat")] += out.data.nbytes


def _largest_output(tr: Tracer, args, out) -> None:
    key = (tr.bucket, "tensor.masked_softmax")
    tr.max_bytes[key] = max(tr.max_bytes[key], out.data.nbytes)


def _reconstruct_bytes(tr: Tracer, args, out) -> None:
    """Bytes of reconstructed K/V that do not alias a stored source cache."""
    stored = args[2]
    sources = [arr for c in stored.values() for arr in (c.keys.data, c.values.data)]
    fresh = sum(
        t.data.nbytes for t in out if not any(np.may_share_memory(t.data, s) for s in sources)
    )
    tr.bytes[(tr.bucket, "sharing.reconstruct")] += fresh


def _cache_append_bytes(tr: Tracer, args, out) -> None:
    """Bytes a storage layer's cache materializes per token.

    A cache that shares memory with the one the same layer showed at the
    previous traced call grew in place: one row of keys and values per
    token. Otherwise the whole cache was copied into a new array.
    """
    strategy, phase = tr.bucket
    if phase == "train":  # a training pass builds its caches whole; nothing is appended
        return
    cache = args[1]
    if cache.layer not in tr.storage_layers[strategy]:
        return
    keys, values = cache.keys.data, cache.values.data
    prev = tr.last_cache.get((strategy, cache.layer))
    tr.last_cache[(strategy, cache.layer)] = keys
    if prev is None:
        return  # the prefill builds the cache; nothing is appended yet
    if np.may_share_memory(keys, prev):
        added = (keys.nbytes + values.nbytes) // cache.length
    else:
        added = keys.nbytes + values.nbytes
    tr.bytes[(tr.bucket, "model.cache_append")] += added
