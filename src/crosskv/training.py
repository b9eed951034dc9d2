"""Training loop, synthetic tasks, and gradient-norm instrumentation.

Tasks produce (tokens, transition mask) batches; the mask keeps the loss
on positions the task actually makes predictable (e.g. the echoed half of
a copy sequence). Updates are decoupled-weight-decay Adam with global-norm
gradient clipping; everything is deterministic under a fixed seed. A step
copies nothing it does not compute: the tape's gradients are used as they
are, the clip ratio is applied inside Adam's pass, Adam updates its
float64 moments in place, and each new parameter array is adopted as it
is (`_adam_update`). The learning rate and the
copy task's prompt length are the only settings; the rest are the
constants below. Reports hold the rows the CSV writers write.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .model import DecoderModel, fusion_weight_rows
from .tensor import EvaluationError, Tape, Tensor

__all__ = [
    "TrainReport",
    "TrainingDivergedError",
    "TASK_NAMES",
    "check_training",
    "make_batch",
    "train",
]

TASK_NAMES = ("copy", "induction-heads", "char-corpus")

DEFAULT_LEARNING_RATE = 3e-3
DEFAULT_PROMPT_LEN = 8  # copy task
BETA1, BETA2, EPS = 0.9, 0.95, 1e-8  # Adam
WEIGHT_DECAY = 0.01  # decoupled; applied to matrices only
GRAD_CLIP = 1.0  # global gradient norm
N_PAIRS = 8  # induction-heads pairs per sequence
SEQ_LEN = 48  # char-corpus window


class TrainingDivergedError(RuntimeError):
    """Raised when the loss or the gradients stop being finite; carries the failing step."""

    def __init__(self, step: int):
        super().__init__(f"training diverged at step {step}")
        self.step = step


@dataclass
class TrainReport:
    losses: list  # one per step
    grad_norms: list  # rows: step, layer, q_norm, k_norm, v_norm
    fusion_weights: list | None  # `fusion_weight_rows` after the last step; None without fusion weights

    @property
    def final_loss(self) -> float:
        return self.losses[-1]


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


def _induction_batch(rng, vocab: int, batch: int):
    """[a1 b1 ... ak bk aq] -> bq; loss on the final prediction only."""
    seqs = np.empty((batch, 2 * N_PAIRS + 2), dtype=np.int64)
    for row in range(batch):
        heads = rng.permutation(vocab)[:N_PAIRS]  # distinct triggers
        tails = rng.integers(0, vocab, size=N_PAIRS)
        q = int(rng.integers(0, N_PAIRS))
        seqs[row, 0 : 2 * N_PAIRS : 2] = heads
        seqs[row, 1 : 2 * N_PAIRS : 2] = tails
        seqs[row, 2 * N_PAIRS] = heads[q]
        seqs[row, 2 * N_PAIRS + 1] = tails[q]
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


def _corpus_batch(rng, batch: int):
    ids, _ = _load_corpus_ids()
    starts = rng.integers(0, ids.size - SEQ_LEN, size=batch)
    tokens = np.stack([ids[s : s + SEQ_LEN] for s in starts])
    mask = np.ones((batch, SEQ_LEN - 1), dtype=bool)
    return tokens, mask


def check_training(
    task: str,
    vocab: int,
    max_seq_len: int | None = None,
    prompt_len: int = DEFAULT_PROMPT_LEN,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> None:
    """Raise ValueError unless `task` can draw batches for a `vocab`-token model, of sequences
    no longer than `max_seq_len` when given, and the learning rate is finite and positive.
    Draws nothing."""
    if task == "char-corpus":
        need, length = _load_corpus_ids()[1], SEQ_LEN
    elif task == "copy":
        need, length = 3, 2 * prompt_len + 1
    elif task == "induction-heads":
        need, length = N_PAIRS + 1, 2 * N_PAIRS + 2
    else:
        raise ValueError(f"unknown task {task!r}; known: {', '.join(TASK_NAMES)}")
    if vocab < need:
        raise ValueError(f"{task} task needs vocab >= {need}, got {vocab}")
    if max_seq_len is not None and length > max_seq_len:
        raise ValueError(f"{task} task needs max sequence >= {length}, got {max_seq_len}")
    if not (math.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"learning rate must be finite and positive, got {learning_rate!r}")


def make_batch(task: str, rng, vocab: int, batch_size: int, prompt_len: int = DEFAULT_PROMPT_LEN):
    """One (tokens, transition-mask) batch for a named task."""
    check_training(task, vocab, prompt_len=prompt_len)
    if task == "copy":
        return _copy_batch(rng, vocab, batch_size, prompt_len)
    if task == "induction-heads":
        return _induction_batch(rng, vocab, batch_size)
    return _corpus_batch(rng, batch_size)


# -- optimizer and loop ----------------------------------------------------


def train(
    model: DecoderModel,
    task: str,
    steps: int,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    seed: int = 0,
    batch_size: int = 8,
    eval_interval: int = 25,
    prompt_len: int = DEFAULT_PROMPT_LEN,
) -> TrainReport:
    """Run `steps` optimizer updates on a synthetic task.

    Records the loss each step and Q/K/V projection gradient norms every
    `eval_interval` steps (and on the last step). A non-finite forward,
    gradient norm or update raises `TrainingDivergedError` naming the step.
    Before step 0, every integer setting must be >= 1, and `check_training`
    checks the task against the model's vocab and max sequence length.
    """
    settings = {"steps": steps, "batch_size": batch_size, "eval_interval": eval_interval, "prompt_len": prompt_len}
    for name, value in settings.items():
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    check_training(task, model.cfg.vocab_size, model.cfg.max_seq_len, prompt_len, learning_rate)
    rng = np.random.default_rng(seed)
    moments: dict[str, tuple] = {}  # parameter name -> Adam's (m, v)
    losses: list[float] = []
    norm_rows: list[dict] = []

    for step in range(steps):
        tokens, mask = make_batch(task, rng, model.cfg.vocab_size, batch_size, prompt_len)
        try:
            loss, grads, ratio = _gradients(model, tokens, mask)
            losses.append(loss)
            _adam_update(model, grads, moments, step + 1, learning_rate, ratio)
        except EvaluationError:
            raise TrainingDivergedError(step) from None
        if step % eval_interval == 0 or step == steps - 1:
            norm_rows.extend(_grad_norm_rows(model, grads, ratio, step))

    fusion = fusion_weight_rows(model) if model.plan.has_fusion_weights else None
    return TrainReport(losses, norm_rows, fusion)


def _gradients(model: DecoderModel, tokens, mask) -> tuple[float, dict, float]:
    """The batch's loss, its gradients as the tape gives them, and the
    ratio that clips them to a global norm of at most GRAD_CLIP (1.0 when
    the norm is within it). numpy's overflow warnings are off: a
    non-finite op result or global norm raises EvaluationError instead."""
    with Tape() as tape, np.errstate(over="ignore", invalid="ignore"):
        names = model.parameters()
        for _, p in names:
            tape.watch(p)
        loss = model.forward_loss(tokens, mask)
        tape.backward(loss)
        grads = {name: tape.grad(p) for name, p in names}
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not math.isfinite(total):
        raise EvaluationError("gradients: global norm is not finite")
    return loss.item(), grads, GRAD_CLIP / total if total > GRAD_CLIP else 1.0


def _adam_update(model: DecoderModel, grads: dict, moments: dict, t: int, lr: float, ratio: float = 1.0) -> None:
    """Update every parameter with Adam step number `t` (from 1), from its
    gradient scaled by the clip `ratio`.

    Each gradient is multiplied by `ratio` in its own dtype, into the
    float64 scratch array that later holds the step, so the clip copies no
    gradient. The moments are float64 arrays updated in place. Each new
    parameter is a fresh array, computed in float64 in the closed form's
    order of operations and adopted without a copy; `Tensor._wrap` checks
    it finite, so an overflow raises EvaluationError naming the parameter
    (numpy's warnings are off). Old arrays are never written and the new set
    replaces `model.params` at once: state read before a step stays whole."""
    dt, updated = model.cfg.dtype, {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in model.parameters():
            p64 = np.asarray(p.numpy(), dtype=np.float64)
            if name not in moments:
                moments[name] = np.zeros_like(p64), np.zeros_like(p64)
            m, v = moments[name]
            step, den = np.empty_like(p64), np.empty_like(p64)
            g = np.multiply(grads[name], ratio, out=step)  # last read before the step overwrites it
            m *= BETA1
            m += (1 - BETA1) * g
            np.multiply(g, g, out=den)
            den *= 1 - BETA2
            v *= BETA2
            v += den
            np.divide(m, 1 - BETA1**t, out=step)
            step *= lr
            np.divide(v, 1 - BETA2**t, out=den)
            np.sqrt(den, out=den)
            den += EPS
            step /= den
            np.subtract(p64, step, out=step)
            if p.ndim >= 2:  # decoupled weight decay
                np.multiply(p64, lr * WEIGHT_DECAY, out=den)
                step -= den
            new = step if dt == np.float64 else step.astype(dt)
            updated[name] = Tensor._wrap(new, f"adam update of {name}")
    model.params = updated


def _grad_norm_rows(model: DecoderModel, grads: dict, ratio: float, step: int) -> list[dict]:
    """One row per layer of its clipped Q/K/V projection gradient norms; a
    reconstruction layer has no K/V projections, hence ''."""

    def norm(name: str) -> str:
        return repr(float(np.linalg.norm(grads[name] * ratio))) if name in grads else ""

    return [
        {"step": step, "layer": i, **{f"{x}_norm": norm(f"layer{i}.w_{x}") for x in "qkv"}}
        for i in range(1, model.cfg.n_layers + 1)
    ]
