"""Training loop, synthetic tasks, and gradient-norm instrumentation.

Tasks produce (tokens, transition mask) batches; the mask keeps the loss
on positions the task actually makes predictable (e.g. the echoed half of
a copy sequence). Updates are decoupled-weight-decay Adam with global-norm
gradient clipping; everything is deterministic under a fixed seed.
"""

from __future__ import annotations

import functools
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
    "check_task",
    "make_batch",
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

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate!r}")


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


@functools.cache
def _load_corpus_ids() -> tuple[np.ndarray, int]:
    """The bundled corpus as ids into its sorted charset, and the charset size; read once."""
    text = (
        importlib.resources.files("crosskv").joinpath("data/tiny_corpus.txt").read_text()
    )
    charset = sorted(set(text))
    lookup = {c: i for i, c in enumerate(charset)}
    ids = np.array([lookup[c] for c in text], dtype=np.int64)
    ids.setflags(write=False)  # one array serves every caller
    return ids, len(charset)


def _corpus_batch(rng, batch: int, seq_len: int):
    ids, _ = _load_corpus_ids()
    starts = rng.integers(0, ids.size - seq_len, size=batch)
    tokens = np.stack([ids[s : s + seq_len] for s in starts])
    mask = np.ones((batch, seq_len - 1), dtype=bool)
    return tokens, mask


def check_task(task: str, vocab: int, options: dict | None = None, max_seq_len: int | None = None) -> None:
    """Raise ValueError unless `task` can draw batches for a `vocab`-token model with these options,
    and, given `max_seq_len`, batches of sequences no longer than that. Draws nothing."""
    opts = options or {}
    if task == "char-corpus":
        ids, need = _load_corpus_ids()
        length = opts.get("seq_len", 48)
        if length >= ids.size:
            raise ValueError(f"corpus has only {ids.size} characters")
    elif task == "copy":
        need, length = 3, 2 * opts.get("prompt_len", 8) + 1
    elif task == "induction-heads":
        n_pairs = opts.get("n_pairs", 8)
        need, length = n_pairs + 1, 2 * n_pairs + 2
    else:
        raise ValueError(f"unknown task {task!r}; known: {', '.join(TASK_NAMES)}")
    if vocab < need:
        raise ValueError(f"{task} task needs vocab >= {need}, got {vocab}")
    if max_seq_len is not None and length > max_seq_len:
        raise ValueError(f"{task} task needs max sequence >= {length}, got {max_seq_len}")


def make_batch(task: str, rng, vocab: int, batch_size: int, options: dict | None = None):
    """One (tokens, transition-mask) batch for a named task."""
    check_task(task, vocab, options)
    opts = options or {}
    if task == "copy":
        return _copy_batch(rng, vocab, batch_size, opts.get("prompt_len", 8))
    if task == "induction-heads":
        return _induction_batch(rng, vocab, batch_size, opts.get("n_pairs", 8))
    return _corpus_batch(rng, batch_size, opts.get("seq_len", 48))


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
    `eval_interval` steps (and on the last step). A non-finite forward or
    update raises `TrainingDivergedError` naming the step. The task is checked
    against the model's vocab and max sequence length before step 0.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if eval_interval < 1:
        raise ValueError(f"eval_interval must be >= 1, got {eval_interval}")
    check_task(task, model.cfg.vocab_size, task_options, model.cfg.max_seq_len)
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
        names = model.parameters()
        for _, p in names:
            tape.watch(p)
        loss = model.forward_loss(tokens, mask)
        loss_val = loss.item()
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
        model.params[name] = Tensor(new.astype(dt))
    return grads
