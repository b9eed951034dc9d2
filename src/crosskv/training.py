"""Training loop, synthetic tasks, and gradient-norm instrumentation.

Tasks produce (tokens, transition mask) batches; the mask keeps the loss
on positions the task actually makes predictable (e.g. the echoed half of
a copy sequence). Updates are decoupled-weight-decay Adam with global-norm
gradient clipping; everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field

import numpy as np

from .model import DecoderModel, HeatmapResult, fusion_weight_heatmap
from .tensor import EvaluationError, Tape, Tensor

__all__ = [
    "OptimizerParams",
    "GradNormRecord",
    "TrainReport",
    "TrainingDivergedError",
    "TASK_NAMES",
    "make_batch",
    "corpus_vocab_size",
    "train",
]

TASK_NAMES = ("copy", "induction-heads", "char-corpus")


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite; carries the failing step."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}")
        self.step = step


@dataclass(frozen=True)
class OptimizerParams:
    learning_rate: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-8
    weight_decay: float = 0.01  # decoupled; applied to matrices only
    grad_clip: float = 1.0  # global norm; <= 0 disables


@dataclass
class GradNormRecord:
    step: int
    # layer -> (|grad w_q|, |grad w_k| or None, |grad w_v| or None);
    # reconstruction layers have no K/V projections, hence None.
    norms: dict


@dataclass
class TrainReport:
    losses: list
    grad_norms: list
    heatmap: HeatmapResult | None
    final_loss: float = field(init=False)

    def __post_init__(self):
        self.final_loss = self.losses[-1] if self.losses else float("nan")


# -- synthetic tasks -------------------------------------------------------


def _copy_batch(rng, vocab: int, batch: int, prompt_len: int):
    """prompt | separator | prompt; loss on the echoed half only."""
    if vocab < 3:
        raise ValueError("copy task needs vocab >= 3")
    sep = vocab - 1
    prompt = rng.integers(0, vocab - 1, size=(batch, prompt_len))
    tokens = np.concatenate(
        [prompt, np.full((batch, 1), sep, dtype=prompt.dtype), prompt], axis=1
    )
    t = tokens.shape[1]
    mask = np.zeros((batch, t - 1), dtype=bool)
    mask[:, prompt_len:] = True  # transitions predicting the echo
    return tokens, mask


def _induction_batch(rng, vocab: int, batch: int, n_pairs: int):
    """[a1 b1 ... ak bk aq] -> bq; loss on the final prediction only."""
    if vocab < n_pairs + 1:
        raise ValueError(f"induction task needs vocab >= {n_pairs + 1}")
    seqs = np.empty((batch, 2 * n_pairs + 2), dtype=np.int64)
    for row in range(batch):
        heads = rng.permutation(vocab)[:n_pairs]  # distinct triggers
        tails = rng.integers(0, vocab, size=n_pairs)
        q = int(rng.integers(0, n_pairs))
        seqs[row, 0 : 2 * n_pairs : 2] = heads
        seqs[row, 1 : 2 * n_pairs : 2] = tails
        seqs[row, 2 * n_pairs] = heads[q]
        seqs[row, 2 * n_pairs + 1] = tails[q]
    mask = np.zeros((batch, seqs.shape[1] - 1), dtype=bool)
    mask[:, -1] = True
    return seqs, mask


def _load_corpus_ids() -> tuple[np.ndarray, int]:
    text = (
        importlib.resources.files("crosskv").joinpath("data/tiny_corpus.txt").read_text()
    )
    charset = sorted(set(text))
    lookup = {c: i for i, c in enumerate(charset)}
    ids = np.array([lookup[c] for c in text], dtype=np.int64)
    return ids, len(charset)


_CORPUS_CACHE: tuple[np.ndarray, int] | None = None


def corpus_vocab_size() -> int:
    """Distinct characters in the bundled corpus (minimum model vocab)."""
    global _CORPUS_CACHE
    if _CORPUS_CACHE is None:
        _CORPUS_CACHE = _load_corpus_ids()
    return _CORPUS_CACHE[1]


def _corpus_batch(rng, vocab: int, batch: int, seq_len: int):
    global _CORPUS_CACHE
    if _CORPUS_CACHE is None:
        _CORPUS_CACHE = _load_corpus_ids()
    ids, charset = _CORPUS_CACHE
    if vocab < charset:
        raise ValueError(f"char corpus needs vocab >= {charset}")
    if seq_len >= ids.size:
        raise ValueError(f"corpus has only {ids.size} characters")
    starts = rng.integers(0, ids.size - seq_len, size=batch)
    tokens = np.stack([ids[s : s + seq_len] for s in starts])
    mask = np.ones((batch, seq_len - 1), dtype=bool)
    return tokens, mask


def make_batch(task: str, rng, vocab: int, batch_size: int, options: dict | None = None):
    """One (tokens, transition-mask) batch for a named task."""
    opts = options or {}
    if task == "copy":
        return _copy_batch(rng, vocab, batch_size, opts.get("prompt_len", 8))
    if task == "induction-heads":
        return _induction_batch(rng, vocab, batch_size, opts.get("n_pairs", 8))
    if task == "char-corpus":
        return _corpus_batch(rng, vocab, batch_size, opts.get("seq_len", 48))
    raise ValueError(f"unknown task {task!r}; known: {', '.join(TASK_NAMES)}")


# -- optimizer and loop ----------------------------------------------------


def _grad_norm_record(model: DecoderModel, grads: dict, step: int) -> GradNormRecord:
    norms = {}
    for i in range(1, model.cfg.n_layers + 1):
        q = float(np.linalg.norm(grads[f"layer{i}.w_q"]))
        if i in model.plan.rules:
            norms[i] = (q, None, None)
        else:
            norms[i] = (
                q,
                float(np.linalg.norm(grads[f"layer{i}.w_k"])),
                float(np.linalg.norm(grads[f"layer{i}.w_v"])),
            )
    return GradNormRecord(step, norms)


def train(
    model: DecoderModel,
    task: str,
    steps: int,
    opt: OptimizerParams | None = None,
    seed: int = 0,
    batch_size: int = 8,
    eval_interval: int = 25,
    task_options: dict | None = None,
) -> TrainReport:
    """Run `steps` optimizer updates on a synthetic task.

    Records the loss each step and Q/K/V projection gradient norms every
    `eval_interval` steps (and on the last step). A non-finite loss aborts
    with `TrainingDivergedError` naming the step.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if task not in TASK_NAMES:
        raise ValueError(f"unknown task {task!r}; known: {', '.join(TASK_NAMES)}")
    opt = opt or OptimizerParams()
    rng = np.random.default_rng(seed)

    m_state: dict[str, np.ndarray] = {}
    v_state: dict[str, np.ndarray] = {}
    losses: list[float] = []
    records: list[GradNormRecord] = []

    for step in range(steps):
        try:
            grads = _train_step(model, task, rng, batch_size, task_options, opt, step, m_state, v_state, losses)
        except EvaluationError:
            raise TrainingDivergedError(step) from None
        if step % eval_interval == 0 or step == steps - 1:
            records.append(_grad_norm_record(model, grads, step))

    heatmap = fusion_weight_heatmap(model) if model.plan.has_fusion_weights else None
    return TrainReport(losses, records, heatmap)


def _train_step(model, task, rng, batch_size, task_options, opt, step, m_state, v_state, losses) -> dict:
    """One batch, one backward pass, one optimizer update; returns the
    (possibly clipped) gradients for instrumentation."""
    tokens, mask = make_batch(task, rng, model.cfg.vocab_size, batch_size, task_options)
    with Tape() as tape:
        names = []
        for name, p in model.parameters():
            tape.watch(p)
            names.append((name, p))
        loss = model.forward_loss(tokens, mask)
        loss_val = loss.item()
        if not math.isfinite(loss_val):
            raise TrainingDivergedError(step)
        tape.backward(loss)
        grads = {name: tape.grad(p) for name, p in names}
    losses.append(loss_val)

    if opt.grad_clip > 0:
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > opt.grad_clip:
            ratio = opt.grad_clip / total
            grads = {k: g * ratio for k, g in grads.items()}

    lr = opt.learning_rate
    t = step + 1
    dt = model.cfg.dtype
    for name, p in names:
        g = grads[name].astype(np.float64)
        m = opt.beta1 * m_state.get(name, 0.0) + (1 - opt.beta1) * g
        v = opt.beta2 * v_state.get(name, 0.0) + (1 - opt.beta2) * (g * g)
        m_state[name], v_state[name] = m, v
        m_hat = m / (1 - opt.beta1**t)
        v_hat = v / (1 - opt.beta2**t)
        new = p.numpy().astype(np.float64) - lr * m_hat / (np.sqrt(v_hat) + opt.eps)
        if opt.weight_decay > 0 and p.ndim >= 2:
            new -= lr * opt.weight_decay * p.numpy().astype(np.float64)
        model.set_parameter(name, Tensor(new.astype(dt)))
    return grads
