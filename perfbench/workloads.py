"""The crosskv workloads, their output checks and their metrics.

One process, one closed-loop client. Every workload sends both kinds of
crosskv request, each at the workload's own shape: decode requests
(`DecoderModel.decode`, a prompt and then greedy tokens) and training
requests (`training.train` on the copy task). A cycle sends one decode
request per strategy and keeps the training client busy while they run;
it closes with one prefill-only request per strategy, and the next cycle
starts when all of them returned. Whole cycles repeat until the run's
seconds are spent. `crosskv` has no request queue or batching layer, so
no workload has an arrival rate. Since both kinds run on every workload,
every metric of BENCHMARK.json is measured on every workload: decode_long
is the serving shape and spends ~7/8 of its request time decoding;
train_toy is the toy shape of `crosskv train` and spends about half of it
training, its decode requests running at d=64, where Python overhead
dominates.

The requests of a cycle are in flight together and served in turn, one
thread each and only one running: a decode request hands on the turn
after every `SLICE_STEPS` forward steps, the training client after every
training request. Every step is timed from when it starts running, so
waiting for the turn is excluded. Served one after another, each
strategy's steps would fall in one ~5 s stretch of the run, and on a
shared host a burst of contention there moves that strategy's median by
15-45% from run to run; in turn, every strategy's steps span the whole run.

Each turn runs on the next CPU of the process's affinity set
(`CpuRotation`). On a shared host every vCPU is slowed by other tenants in
phases of seconds to minutes (measured: ~1.45x, independently per vCPU),
so a run pinned by chance to one vCPU reads that vCPU's luck; rotating
averages them.

Set-up (build every strategy's models and run one short warm-up request
of each kind on them) is repeated `SETUP_ROUNDS` times; `setup_s` is the
import time plus the median round. Output checks run after the timed
window and count in `attempted`/`failed` like the requests themselves.
"""

from __future__ import annotations

import math
import os
import queue
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from crosskv import costmodel
from crosskv.model import ModelConfig, build_model
from crosskv.training import train

from hooks import Boundaries, Tracer, clock, installed

SETUP_ROUNDS = 5
SLICE_STEPS = 16  # forward steps a decode request runs before handing on the turn
DECODE_TOLERANCE = 1e-10  # incremental decode vs full recompute, float64
LOSS_TOLERANCE = 1e-12  # taped vs tape-free loss on the same batch


@dataclass(frozen=True)
class DecodeShape:
    n_layers: int = 8
    d_model: int = 256
    n_query_heads: int = 8
    vocab_size: int = 256
    prompt_len: int = 768
    new_tokens: int = 256
    checked_steps: int = 32  # decode steps compared with the full recompute
    warmup_prompt: int = 64
    warmup_tokens: int = 8

    def config(self, strategy: str, n_kv_heads: int) -> ModelConfig:
        return ModelConfig(
            n_layers=self.n_layers,
            d_model=self.d_model,
            n_query_heads=self.n_query_heads,
            n_kv_heads=n_kv_heads,
            vocab_size=self.vocab_size,
            max_seq_len=self.prompt_len + self.new_tokens,
            strategy=strategy,
        )


TOY = ModelConfig()  # the toy shape of `crosskv train`, `compare` and the FD oracle


@dataclass(frozen=True)
class TrainShape:
    model: ModelConfig = TOY
    batch_size: int = 8
    steps_per_request: int = 10


@dataclass(frozen=True)
class Workload:
    decode: DecodeShape
    train: TrainShape


DECODE_LONG = Workload(DecodeShape(), TrainShape(steps_per_request=8))
TRAIN_TOY = Workload(
    DecodeShape(
        n_layers=TOY.n_layers, d_model=TOY.d_model, n_query_heads=TOY.n_query_heads, vocab_size=TOY.vocab_size,
        prompt_len=64, new_tokens=64, checked_steps=16, warmup_prompt=16, warmup_tokens=4,
    ),
    TrainShape(),
)

# (strategy, H_q / H_kv)
DECODE_STRATEGIES = (("Vanilla", 1), ("GQA", 4), ("YOCO", 1), ("FusedKV", 1), ("DenseFusion", 1))
TRAIN_STRATEGIES = ("Vanilla", "FusedKV", "DenseFusion")
RECONSTRUCTING = ("YOCO", "FusedKV", "DenseFusion")
FUSING = ("FusedKV", "DenseFusion")


class Tally:
    """Requests and checks attempted, and how many of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, fn, what: str):
        """Run one request; a raised error counts as a failure, not a crash."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # one failing request must not end the run
            self.failed += 1
            print(f"request failed: {what}\n{traceback.format_exc()}", file=sys.stderr)
            return None


def logits_match(got: np.ndarray, want: np.ndarray, tol: float = DECODE_TOLERANCE) -> bool:
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def greedy_consistent(result, prompt_len: int) -> bool:
    """Finite logits, and every generated token is the argmax of the row before it."""
    logits = result.logits
    if not np.isfinite(logits).all():
        return False
    picked = np.argmax(logits[prompt_len - 1 :], axis=-1)
    return bool(np.array_equal(result.tokens[prompt_len:], picked[: result.tokens.size - prompt_len]))


def _model_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def set_up(clients, seed: int) -> float:
    """Build and warm every client's models `SETUP_ROUNDS` times; the clients
    keep the last round's models. Returns the median round time."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = clock()
        for c in clients:
            c.models = {
                s: build_model(cfg, _model_rng(seed, c.RNG_BASE + i)) for i, (s, cfg) in enumerate(c.configs.items())
            }
            for s, model in c.models.items():
                c.warm(s, model)
        rounds.append(clock() - t0)
    return statistics.median(rounds)


def closed_loop(seconds: float, cycle) -> None:
    """Whole cycles until `seconds` of wall time have passed (at least one)."""
    t_end = time.perf_counter() + seconds
    while True:
        cycle()
        if time.perf_counter() >= t_end:
            return


class CpuRotation:
    """Moves the calling thread to the next CPU of the process's affinity
    set; `restore` gives the thread back the whole set."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self) -> None:
        self.turn += 1
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})

    def restore(self) -> None:
        os.sched_setaffinity(0, self.cpus)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


@dataclass
class Outcome:
    metrics: dict  # name -> value; units come from BENCHMARK.json
    attempted: int
    failed: int
    setup_s: float  # median set-up round, without the import
    report: dict  # informational, printed before the result line


# -- serving in turn ---------------------------------------------------------


@dataclass(eq=False)
class Request:
    strategy: str
    prompt: np.ndarray
    stamps: list = field(default_factory=list)  # clock at each forward step's call into embed
    resumed: dict = field(default_factory=dict)  # step index -> clock when it got the turn back
    start: float = 0.0
    end: float = 0.0
    result: object = None

    def step_times(self) -> list[float]:
        """Running time of each decode step: from when it started (or got the
        turn back) until the next forward step's stamp or `decode`'s return."""
        ends = self.stamps[2:] + [self.end]
        return [e - self.resumed.get(k, self.stamps[k]) for k, e in enumerate(ends, start=1)]

    def ttft(self) -> float:
        # the prefill is step 0 and never waits; its token is known at stamp 1
        return self.stamps[1] - self.start

    def active(self) -> float:
        return self.end - self.start - sum(t - self.stamps[k] for k, t in self.resumed.items())


class Turns:
    """Requests in flight, each on a thread of its own; only the holder of
    the turn runs.

    The boundary hook calls `at_step` at every forward step of a decode
    request, which hands on the turn after every `slice_steps` steps. The
    training client holds the last place in the rotation and hands on the
    turn after each training request, for as long as decode requests remain.

    Each place in the rotation has one thread for the whole run (a lane),
    so it keeps its malloc arena from cycle to cycle. With new threads every
    cycle, the arenas changed roles and train_toy's peak RSS stepped by
    64 MiB with the number of cycles that fit in a run (1232 vs 1296 MiB).
    """

    def __init__(self, bounds: Boundaries, tracer: Tracer | None, slice_steps: int, places: int):
        self.bounds, self.tracer, self.slice_steps = bounds, tracer, slice_steps
        self.cpus = CpuRotation()
        self.cond = threading.Condition()
        self.queue: list = []  # Requests, then the training client's place
        self.turn = None
        self.current = None
        self.ended = threading.Semaphore(0)
        self.lanes = [queue.SimpleQueue() for _ in range(places)]
        self.threads = [threading.Thread(target=self._lane, args=(jobs,), daemon=True) for jobs in self.lanes]
        for t in self.threads:
            t.start()

    def close(self) -> None:
        for jobs in self.lanes:
            jobs.put(None)
        for t in self.threads:
            t.join()

    def _lane(self, jobs) -> None:
        while (job := jobs.get()) is not None:
            try:
                self._body(*job)
            except Exception:  # a defect in the benchmark: report it, keep the lane
                traceback.print_exc()
            finally:
                self.ended.release()

    def serve(self, requests: list[Request], run, train_request) -> None:
        """Run `run(request)` for every request and `train_request()` in
        between, in turn; returns when all ended."""
        trainer = object()  # the training client's place in the rotation

        def training(_):
            while len(self.queue) > 1:
                train_request()
                self.pass_turn(trainer)

        self.queue = list(requests) + [trainer]
        self.turn = self.queue[0]
        places = len(self.queue)
        for jobs, holder in zip(self.lanes, self.queue, strict=True):
            jobs.put((holder, run if holder is not trainer else training))
        for _ in range(places):
            self.ended.acquire()
        self.bounds.on_token = None
        self.bounds.tokens = []

    def _body(self, holder, run) -> None:
        self._take_turn(holder)
        try:
            run(holder)
        finally:
            if self.tracer is not None and isinstance(holder, Request):
                self.tracer.end(holder.end)
            with self.cond:
                i = self.queue.index(holder)
                self.queue.remove(holder)
                self.turn = self.queue[i % len(self.queue)] if self.queue else None
                self.cond.notify_all()

    def _take_turn(self, holder) -> None:
        with self.cond:
            self.cond.wait_for(lambda: self.turn is holder)
        self.cpus.next()
        self.current = holder
        decoding = isinstance(holder, Request)
        self.bounds.tokens = holder.stamps if decoding else []
        self.bounds.on_token = self.at_step if decoding else None

    def pass_turn(self, holder) -> None:
        """Hand the turn to the next in the rotation and wait to get it back."""
        with self.cond:
            i = self.queue.index(holder)
            self.turn = self.queue[(i + 1) % len(self.queue)]
            self.cond.notify_all()
        self._take_turn(holder)

    def at_step(self, t: float) -> None:
        req = self.current
        k = len(req.stamps) - 1
        tracer = self.tracer
        if tracer is not None:
            tracer.end(t)
        if k > 0 and k % self.slice_steps == 0 and len(self.queue) > 1:
            self.pass_turn(req)
            t = req.resumed[k] = clock()
        if tracer is not None:
            # trace the prefill and every other decode step; the untraced
            # steps in between give the tracing overhead
            if k == 0:
                tracer.begin((req.strategy, "prefill"), t)
            elif k % 2 == 1:
                tracer.begin((req.strategy, "step"), t)


# -- decode requests -----------------------------------------------------------


def _kv_heads(shape: DecodeShape, ratio: int) -> int:
    return shape.n_query_heads // ratio


class DecodeClient:
    """A prompt, then `new_tokens` greedy tokens, one request per strategy
    per cycle; then one prefill-only request (`decode(prompt, 1)`) per strategy."""

    RNG_BASE = 0  # model weights come from _model_rng(seed, RNG_BASE + strategy index)

    def __init__(self, name: str, shape: DecodeShape, strategies, seed: int, tally: Tally, tracer: Tracer | None):
        self.name, self.shape, self.strategies, self.tally, self.tracer = name, shape, strategies, tally, tracer
        self.configs = {s: shape.config(s, _kv_heads(shape, r)) for s, r in strategies}
        self.order = list(self.configs)
        self.prompts = np.random.default_rng([seed, 1000])
        self.warm_prompts = np.random.default_rng([seed, 2000])
        self.models: dict = {}
        self.done: list[Request] = []
        self.prefills: list[tuple[np.ndarray, object, float]] = []  # (prompt, result, TTFT) of prefill-only requests

    def warm(self, s, model) -> None:
        model.decode(self.warm_prompts.integers(0, self.shape.vocab_size, self.shape.warmup_prompt), self.shape.warmup_tokens)

    def _prompt(self) -> np.ndarray:
        return self.prompts.integers(0, self.shape.vocab_size, self.shape.prompt_len)

    def new_requests(self) -> list[Request]:
        return [Request(s, self._prompt()) for s in self.order]

    def run(self, req: Request) -> None:
        model = self.models[req.strategy]
        if self.tracer is not None:
            self.tracer.new_request(req.strategy, model)
        req.start = clock()
        req.result = self.tally.call(lambda: model.decode(req.prompt, self.shape.new_tokens), f"{self.name} {req.strategy}")
        req.end = clock()

    def finished(self, requests: list[Request]) -> None:
        self.done.extend(r for r in requests if r.result is not None)

    def prefill_only(self, cpus: CpuRotation) -> None:
        """One prefill-only request per strategy closes the cycle, so TTFT is
        sampled at the end of each cycle as well as at its start."""
        for s in self.order:
            prompt = self._prompt()
            cpus.next()
            t_start = clock()
            result = self.tally.call(lambda: self.models[s].decode(prompt, 1), f"{self.name} {s} prefill")
            if result is not None:
                self.prefills.append((prompt, result, clock() - t_start))

    def check(self) -> bool:
        """Every request's tokens are its greedy choices, and the first request
        per strategy matches a full recompute. True when every strategy completed."""
        name, checked = self.name, set()
        for req in self.done:
            s, result = req.strategy, req.result
            self.tally.check(greedy_consistent(result, req.prompt.size), f"{name} {s}: greedy tokens and finite logits")
            if s in checked:
                continue
            checked.add(s)
            rows = req.prompt.size + self.shape.checked_steps
            ref = self.tally.call(
                lambda: self.models[s].forward_logits(result.tokens[:rows]).numpy()[0], f"{name} {s} recompute"
            )
            if ref is not None:
                self.tally.check(logits_match(result.logits[:rows], ref), f"{name} {s}: decode vs recompute logits")
        for s in set(self.order) - checked:
            self.tally.check(False, f"{name} {s}: no request succeeded")
        for prompt, result, _ in self.prefills:
            self.tally.check(greedy_consistent(result, prompt.size), f"{name}: prefill-only greedy token and finite logits")
        return checked == set(self.order)

    def ttfts(self) -> list[float]:
        return [r.ttft() for r in self.done] + [t for _, _, t in self.prefills]

    def metrics(self) -> dict:
        done, shape = self.done, self.shape
        tpot = {s: [x for r in done if r.strategy == s for x in r.step_times()] for s in self.order}
        steps = [x for s in self.order for x in tpot[s]]
        ttft = self.ttfts()
        out = {
            "ttft_p50_ms": _pct(ttft, 50) * 1e3,
            "prompt_tok_s": shape.prompt_len * len(ttft) / sum(ttft),
            "tpot_p50_ms": _pct(steps, 50) * 1e3,
            "tpot_p95_ms": _pct(steps, 95) * 1e3,
            "output_tok_s": sum(r.result.tokens.size - r.prompt.size for r in done) / sum(r.active() for r in done),
        }
        for s in self.order:
            out[f"tpot_p50_ms.{s}"] = _pct(tpot[s], 50) * 1e3
        return out

    def overhead_samples(self) -> tuple[list[float], list[float]]:
        """Decode steps 1, 3, 5, ... are traced and 2, 4, 6, ... are not."""
        traced = [x for r in self.done for x in r.step_times()[0::2]]
        untraced = [x for r in self.done for x in r.step_times()[1::2]]
        return traced, untraced

    def layer_metrics(self) -> dict:
        tracer, order = self.tracer, self.order
        out = {}
        n_total, rope_total = 0, 0.0
        for s in order:
            b = (s, "step")
            n = len(tracer.walls[b])
            n_total += n
            rope_total += tracer.spans[(b, "rope.apply_rope")][1]
            out[f"attention.attend.self_ms_per_token.{s}"] = tracer.spans[(b, "attention.attend")][0] / n * 1e3
            out[f"tensor.masked_softmax.ms_per_token.{s}"] = tracer.spans[(b, "tensor.masked_softmax")][1] / n * 1e3
            out[f"model.self_ms_per_token.{s}"] = tracer.glue[b] / n * 1e3
            out[f"model.cache_append_bytes_per_token.{s}"] = tracer.bytes[(b, "model.cache_append")] / n
            out[f"tensor.record_op.calls_per_token.{s}"] = tracer.counts[(b, "tensor.record_op")] / n
            itemsize = np.dtype(self.configs[s].dtype).itemsize
            out[f"model.peak_cache_bytes.{s}"] = max(
                r.result.peak_cache_elements * itemsize for r in self.done if r.strategy == s
            )
            if s in RECONSTRUCTING:
                spent = tracer.spans[(b, "sharing.reconstruct")][1]
                out[f"sharing.reconstruct.ms_per_token.{s}"] = spent / n * 1e3
                out[f"sharing.reconstruct.share_of_token.{s}"] = spent / sum(tracer.walls[b])
            if s in FUSING:  # direct reuse (YOCO) aliases its source: exactly 0 bytes
                out[f"sharing.reconstruct.bytes_per_token.{s}"] = tracer.bytes[(b, "sharing.reconstruct")] / n
            if s == "GQA":
                out["tensor.repeat.ms_per_token.GQA"] = tracer.spans[(b, "tensor.repeat")][1] / n * 1e3
                out["tensor.repeat.bytes_per_token.GQA"] = tracer.bytes[(b, "tensor.repeat")] / n
        out["rope.apply_rope.ms_per_token"] = rope_total / n_total * 1e3

        prefills = [(s, "prefill") for s in order]
        n_prompts = sum(len(tracer.walls[b]) for b in prefills)

        def ms_per_prompt(span, which):  # which: 0 self time, 1 total time
            return sum(tracer.spans[(b, span)][which] for b in prefills) / n_prompts * 1e3

        out["attention.attend.self_ms_per_prompt"] = ms_per_prompt("attention.attend", 0)
        out["tensor.matmul_t.ms_per_prompt"] = ms_per_prompt("tensor.matmul_t", 1)
        out["tensor.masked_softmax.ms_per_prompt"] = ms_per_prompt("tensor.masked_softmax", 1)
        out["tensor.matmul.ms_per_prompt"] = ms_per_prompt("tensor.matmul", 1)
        out["model.self_ms_per_prompt"] = sum(tracer.glue[b] for b in prefills) / n_prompts * 1e3
        out["tensor.masked_softmax.max_out_bytes"] = max(
            tracer.max_bytes[(b, "tensor.masked_softmax")] for b in prefills
        )
        return out


_COST_METHOD = {"Vanilla": "MHA", "GQA": "MHA", "YOCO": "YOCO", "FusedKV": "FusedKV"}


def costmodel_cross_check(shape: DecodeShape, strategies, metrics: dict) -> dict:
    """Measured TPOT ratio to Vanilla beside the cost model's prediction for
    the same shape (mean decode context). Informational; not gated."""

    def spec(ratio):
        return costmodel.WorkloadSpec(
            n_layers=shape.n_layers,
            prefill_len=shape.prompt_len,
            head_dim=shape.d_model // shape.n_query_heads,
            n_query_heads=shape.n_query_heads,
            n_kv_heads=_kv_heads(shape, ratio),
            bytes_per_element=8,
            decode_len=shape.prompt_len + shape.new_tokens // 2,
        )

    base_spec = spec(1)
    base = costmodel.table1_costs("MHA", base_spec)
    rows = {}
    for s, ratio in strategies:
        row = {"measured_tpot_vs_vanilla": metrics[f"tpot_p50_ms.{s}"] / metrics["tpot_p50_ms.Vanilla"]}
        if s not in _COST_METHOD:
            row["predicted"] = f"costmodel has no {s} row"
        else:
            costs = costmodel.table1_costs(_COST_METHOD[s], spec(ratio))
            row["predicted_decode_flops_vs_vanilla"] = costs.decode_flops / base.decode_flops
            row["predicted_cache_io_vs_vanilla"] = costs.cache_io_elements / base.cache_io_elements
            for label, dev in costmodel.DEVICE_PRESETS.items():
                tpot = costmodel.roofline_latency(costs, dev).tpot_s
                row[f"predicted_tpot_vs_vanilla.{label}"] = tpot / costmodel.roofline_latency(base, dev).tpot_s
        rows[s] = row
    return {
        "strategies": rows,
        "fusion_decode_overhead_fraction": costmodel.fusion_decode_overhead_fraction(base_spec),
    }


# -- training requests ---------------------------------------------------------


class TrainClient:
    """`training.train` on the copy task, `steps_per_request` steps per
    request, one request per turn, strategies in rotation."""

    RNG_BASE = 100  # model weights come from _model_rng(seed, RNG_BASE + strategy index)

    def __init__(self, name: str, shape: TrainShape, strategies, seed: int, tally: Tally, bounds: Boundaries,
                 tracer: Tracer | None):
        self.name, self.shape, self.seed, self.tally, self.bounds, self.tracer = name, shape, seed, tally, bounds, tracer
        self.configs = {s: replace(shape.model, strategy=s) for s in strategies}
        self.order = list(self.configs)
        self.request_seeds = np.random.default_rng([seed, 3000])
        self.models: dict = {}
        self.turn = 0
        self.strategy = None  # of the request in progress
        self.steps: list[float] = []  # every optimizer step's time
        self.walls: list[float] = []  # every request's time
        self.tokens = 0
        self.first: dict = {}  # strategy -> (parameters before its first request, first batch, first loss)
        self.overhead = {True: [], False: []}  # traced and untraced step times

    def warm(self, s, model) -> None:
        train(model, "copy", 1, seed=self.seed, batch_size=self.shape.batch_size)

    def _listener(self, t: float) -> None:  # trace steps 0, 2, 4, ... of each request
        self.tracer.end(t)
        if (len(self.bounds.steps) - 1) % 2 == 0:
            self.tracer.begin((self.strategy, "train"), t)

    def request(self) -> None:
        s = self.strategy = self.order[self.turn % len(self.order)]
        self.turn += 1
        model, bounds, tracer, shape = self.models[s], self.bounds, self.tracer, self.shape
        before = model.state_dict() if s not in self.first else None  # immutable arrays, no copy
        bounds.reset()
        if tracer is not None:
            bounds.on_step = self._listener
        request_seed = int(self.request_seeds.integers(1 << 31))
        t_start = clock()
        rep = self.tally.call(
            lambda: train(model, "copy", shape.steps_per_request, seed=request_seed, batch_size=shape.batch_size),
            f"{self.name} {s} train",
        )
        t_end = clock()
        if tracer is not None:
            tracer.end(t_end)
            bounds.on_step = None
        if rep is None:
            return
        intervals = np.diff(bounds.steps + [t_end])
        self.steps.extend(intervals.tolist())
        # the first and last steps also record grad norms: compare interior steps only
        self.overhead[True].extend(intervals[2:-1:2].tolist())
        self.overhead[False].extend(intervals[1:-1:2].tolist())
        self.walls.append(t_end - t_start)
        self.tokens += sum(batch[0].size for batch in bounds.batches)
        self.tally.check(all(math.isfinite(x) for x in rep.losses), f"{self.name} {s}: finite losses")
        if before is not None:
            self.first[s] = (before, bounds.batches[0], rep.losses[0])

    def check(self) -> bool:
        """The first taped loss of each strategy against a tape-free
        forward_loss with the same parameters on the same batch. True when
        every strategy completed."""
        for i, s in enumerate(self.order):
            if s not in self.first:
                self.tally.check(False, f"{self.name} {s}: no training request succeeded")
                continue
            before, (batch, mask), loss = self.first[s]
            checker = build_model(self.configs[s], _model_rng(self.seed, self.RNG_BASE + i))
            checker.load_state_dict(before)
            ref = self.tally.call(lambda: checker.forward_loss(batch, mask).item(), f"{self.name} {s} tape-free loss")
            if ref is not None:
                ok = abs(ref - loss) <= LOSS_TOLERANCE * max(1.0, abs(ref))
                self.tally.check(ok, f"{self.name} {s}: first-step loss")
        return set(self.first) == set(self.order)

    def metrics(self) -> dict:
        return {
            "train_step_p50_ms": _pct(self.steps, 50) * 1e3,
            "train_step_p90_ms": _pct(self.steps, 90) * 1e3,
            "train_tok_s": self.tokens / sum(self.walls),
        }

    def overhead_samples(self) -> tuple[list[float], list[float]]:
        return self.overhead[True], self.overhead[False]

    def layer_metrics(self) -> dict:
        tracer = self.tracer
        buckets = [(s, "train") for s in self.order]
        n = sum(len(tracer.walls[b]) for b in buckets)

        def ms_per_step(span):
            return sum(tracer.spans[(b, span)][1] for b in buckets) / n * 1e3

        return {
            "model.forward_loss.ms_per_step": ms_per_step("model.forward_loss"),
            "tensor.Tape.backward.ms_per_step": ms_per_step("tensor.Tape.backward"),
            "training.self_ms_per_step": sum(tracer.glue[b] for b in buckets) / n * 1e3,
            "tensor.record_op.calls_per_step": sum(tracer.counts[(b, "tensor.record_op")] for b in buckets) / n,
        }


def trace_overhead(clients) -> float:
    """Traced ÷ untraced time of the traced units of every client, − 1
    (each client's untraced units priced at their own mean)."""
    traced, expected = 0.0, 0.0
    for c in clients:
        on, off = c.overhead_samples()
        traced += sum(on)
        expected += len(on) * statistics.fmean(off)
    return traced / expected - 1.0


# -- the workloads -------------------------------------------------------------


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    tally, bounds = Tally(), Boundaries()
    tracer = Tracer() if trace else None
    turns = Turns(bounds, tracer, SLICE_STEPS, places=len(DECODE_STRATEGIES) + 1)
    decode = DecodeClient(name, wl.decode, DECODE_STRATEGIES, seed, tally, tracer)
    training = TrainClient(name, wl.train, TRAIN_STRATEGIES, seed, tally, bounds, tracer)

    def cycle():
        requests = decode.new_requests()
        turns.serve(requests, decode.run, training.request)
        decode.finished(requests)
        decode.prefill_only(turns.cpus)
        turns.cpus.restore()

    try:
        with installed(bounds, tracer):
            setup_s = set_up((decode, training), seed)
            closed_loop(seconds, cycle)
    finally:
        turns.close()

    # Outside the timed window.
    complete = [decode.check(), training.check()]
    report = {
        "decode_requests": len(decode.done),
        "decode_steps": sum(len(r.step_times()) for r in decode.done),
        "ttft_samples": len(decode.ttfts()),
        "train_requests": len(training.walls),
        "train_steps": len(training.steps),
        # running time of each kind of request, waits for the turn excluded
        "decode_s": sum(r.active() for r in decode.done) + sum(t for _, _, t in decode.prefills),
        "train_s": sum(training.walls),
    }
    if not all(complete):  # a strategy never completed: its metrics do not exist
        return Outcome({}, tally.attempted, tally.failed, setup_s, report)
    if trace:
        metrics = {
            **decode.layer_metrics(),
            **training.layer_metrics(),
            "trace_overhead_frac": trace_overhead((decode, training)),
        }
        report["trace_accounting"] = tracer.accounting()
    else:
        metrics = {**decode.metrics(), **training.metrics()}
        report["costmodel"] = costmodel_cross_check(wl.decode, DECODE_STRATEGIES, metrics)
    return Outcome(metrics, tally.attempted, tally.failed, setup_s, report)


WORKLOADS = {
    "decode_long": lambda seed, seconds, trace: run_workload("decode_long", DECODE_LONG, seed, seconds, trace),
    "train_toy": lambda seed, seconds, trace: run_workload("train_toy", TRAIN_TOY, seed, seconds, trace),
}
