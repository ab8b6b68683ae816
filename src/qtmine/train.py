"""Masked-language-model training.

Documents are encoded, wrapped in <bos>/<eos>, and chopped into fixed-size
windows. Each epoch re-masks every window with fresh randomness (dynamic
masking), so a window seen in ten epochs is seen under ten different masks.
Optimization is Adam with linear warmup followed by linear decay to zero.

Pretraining (`train`) and k-shot fine-tuning (`kshot_finetune`) differ only
in how they pick windows; every update is one `_step`, which is also the one
place a batch with nothing targeted is skipped.

Everything is driven by a single seeded generator, so a rerun with the same
seed reproduces the checkpoint bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as M
from .errors import DataFormatError, QtmineError
from .tokenizer import Vocab, encode
from .util import get_logger, kv

logger = get_logger()

MASK_RATE = 0.135
MASK_FRAC = 0.90
N_MASK_COPIES = 10
# Adam's moment decay rates and denominator epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-6
# Steps between `event=train` log lines.
LOG_EVERY = 50


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 3e-4
    batch_size: int = 16
    n_epochs: int = N_MASK_COPIES
    max_steps: int | None = None
    warmup_frac: float = 0.06
    mask_rate: float = MASK_RATE
    eval_every: int = 100

    def __post_init__(self):
        if not 0.0 < self.mask_rate < 1.0:
            raise DataFormatError(f"mask_rate must be in (0, 1), got {self.mask_rate}")
        if not 0.0 < self.lr < math.inf:
            raise DataFormatError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise DataFormatError(f"warmup_frac must be in [0, 1], got {self.warmup_frac}")
        if self.batch_size <= 0 or self.n_epochs <= 0:
            raise DataFormatError("batch_size and n_epochs must be positive")
        if self.max_steps is not None and self.max_steps < 1:
            raise DataFormatError(f"max_steps must be at least 1, got {self.max_steps}")


@dataclass
class MaskedBatch:
    """A corrupted batch: `labels` are original ids at `delta` positions, row-major."""

    ids: np.ndarray       # (B, S) int64, corrupted
    lengths: np.ndarray   # (B,) int64, valid prefix per row
    delta: np.ndarray     # (B, S) bool, targeted positions
    labels: np.ndarray    # (n_targeted,) int64


@dataclass
class TrainResult:
    params: M.Params
    steps: int
    curve: list[tuple[int, float, float | None]]
    final_eval_ce: float | None


def lr_schedule(step: int, total_steps: int, base_lr: float, warmup_frac: float) -> float:
    """Linear warmup to base_lr, then linear decay to zero. `step` is 1-based."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 1 <= step <= total_steps:
        raise ValueError(f"step {step} outside [1, {total_steps}]")
    warmup = max(1, int(round(warmup_frac * total_steps)))
    if step <= warmup:
        return base_lr * step / warmup
    if total_steps == warmup:
        return base_lr
    return base_lr * (total_steps - step) / (total_steps - warmup)


def build_windows(vocab: Vocab, texts: Sequence[str], max_seq: int) -> list[np.ndarray]:
    """Encode texts, wrap in <bos>/<eos>, slice into windows of at most max_seq.

    Windows that contain no maskable (non-special) token are dropped.
    """
    specials = vocab.special_ids
    windows: list[np.ndarray] = []
    for text in texts:
        ids = [vocab.bos_id] + encode(vocab, text) + [vocab.eos_id]
        for start in range(0, len(ids), max_seq):
            chunk = ids[start:start + max_seq]
            if any(t not in specials for t in chunk):
                windows.append(np.asarray(chunk, dtype=np.int64))
    return windows


def dynamic_mask(rng: np.random.Generator, row: np.ndarray, vocab: Vocab,
                 cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corrupt one window. Returns (corrupted, delta, labels).

    Each non-special position is targeted independently with probability
    mask_rate; a targeted token becomes <mask> with probability MASK_FRAC and
    otherwise is replaced by a random non-special token different from the
    original (a colliding draw is shifted to the next non-special id).
    """
    eligible = ~vocab.is_special[row]
    delta = eligible & (rng.random(row.shape[0]) < cfg.mask_rate)
    corrupted = row.copy()
    idx = np.flatnonzero(delta)
    labels = row[idx].copy()
    if idx.size:
        to_mask = rng.random(idx.size) < MASK_FRAC
        corrupted[idx[to_mask]] = vocab.mask_id
        rand_idx = idx[~to_mask]
        if rand_idx.size:
            non_special = vocab.non_special_ids
            draws = rng.integers(0, non_special.size, size=rand_idx.size)
            repl = non_special[draws]
            collide = repl == row[rand_idx]
            repl[collide] = non_special[(draws[collide] + 1) % non_special.size]
            corrupted[rand_idx] = repl
    return corrupted, delta, labels


def mask_batch(rng: np.random.Generator, rows: Sequence[np.ndarray], vocab: Vocab,
               cfg: TrainConfig) -> MaskedBatch:
    """Corrupt each row and pad the rows to a common length."""
    corrupted, deltas, labels = zip(*(dynamic_mask(rng, row, vocab, cfg) for row in rows))
    ids, lengths = M.pad_rows(corrupted, vocab.pad_id)
    delta, _ = M.pad_rows(deltas, False, bool)
    return MaskedBatch(ids=ids, lengths=lengths, delta=delta, labels=np.concatenate(labels))


class AdamState:
    def __init__(self, params: M.Params):
        self.t = 0
        self.m = {name: np.zeros_like(a) for name, a in params.named_tensors()}
        self.v = {name: np.zeros_like(a) for name, a in params.named_tensors()}

    def update(self, params: M.Params, grads: dict[str, np.ndarray], lr: float) -> None:
        """One in-place Adam step with bias correction."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, arr in params.named_tensors():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            arr -= (lr / bc1) * m / (np.sqrt(v / bc2) + ADAM_EPS)


def _eval_batches(rng: np.random.Generator, windows: list[np.ndarray], vocab: Vocab,
                  cfg: TrainConfig) -> list[MaskedBatch]:
    """Fixed masked batches so evaluation is comparable across steps."""
    batches = []
    for start in range(0, len(windows), cfg.batch_size):
        rows = windows[start:start + cfg.batch_size]
        batches.append(mask_batch(rng, rows, vocab, cfg))
    return batches


def _step(params: M.Params, adam: AdamState, batch: MaskedBatch, lr: float, step: int) -> float:
    """One Adam step on the batch's masked-LM loss, which it returns.

    A batch with nothing targeted has no loss to descend: the step logs
    `empty_mask_batch`, returns 0.0 and leaves `params` and `adam` untouched.
    A non-finite loss is fatal.
    """
    if batch.labels.size == 0:
        logger.warning(kv(event="empty_mask_batch", step=step))
        return 0.0
    loss, grads = M.loss_and_grads(params, batch.ids, batch.lengths, batch.delta, batch.labels)
    if not np.isfinite(loss):
        raise QtmineError(f"non-finite loss {loss} at step {step}")
    adam.update(params, grads, lr)
    return loss


def eval_ce(params: M.Params, batches: Sequence[MaskedBatch]) -> float | None:
    """Mean cross-entropy per targeted position over prepared batches."""
    total, count = 0.0, 0
    for batch in batches:
        ce, n = M.eval_loss(params, batch.ids, batch.lengths, batch.delta, batch.labels)
        total += ce
        count += n
    return total / count if count else None


def train(
    params: M.Params,
    vocab: Vocab,
    train_texts: Sequence[str],
    cfg: TrainConfig,
    seed: int | np.random.SeedSequence,
    eval_texts: Sequence[str] = (),
) -> TrainResult:
    """Run MLM training in place on `params` and return the result.

    The learning-rate schedule is computed from the full planned step count;
    `cfg.max_steps` truncates the run without changing the schedule shape.
    A non-finite loss aborts immediately.
    """
    max_seq = params.config.max_seq
    windows = build_windows(vocab, train_texts, max_seq)
    if not windows:
        raise QtmineError("no trainable windows: corpus is empty after encoding")
    rng = np.random.default_rng(seed)

    per_epoch = (len(windows) + cfg.batch_size - 1) // cfg.batch_size
    total_steps = per_epoch * cfg.n_epochs
    run_steps = total_steps if cfg.max_steps is None else min(total_steps, cfg.max_steps)

    eval_batches: list[MaskedBatch] = []
    if eval_texts:
        eval_windows = build_windows(vocab, eval_texts, max_seq)
        eval_batches = _eval_batches(np.random.default_rng(rng.integers(2**63)),
                                     eval_windows, vocab, cfg)

    logger.info(kv(event="train_start", windows=len(windows), steps=run_steps,
                   per_epoch=per_epoch, batch_size=cfg.batch_size, lr=cfg.lr))

    adam = AdamState(params)
    curve: list[tuple[int, float, float | None]] = []
    for step in range(1, run_steps + 1):
        start = (step - 1) % per_epoch * cfg.batch_size
        if start == 0:
            order = rng.permutation(len(windows))
        rows = [windows[i] for i in order[start:start + cfg.batch_size]]
        batch = mask_batch(rng, rows, vocab, cfg)
        lr = lr_schedule(step, total_steps, cfg.lr, cfg.warmup_frac)
        loss = _step(params, adam, batch, lr, step)

        ce = None
        if eval_batches and (step % cfg.eval_every == 0 or step == run_steps):
            ce = eval_ce(params, eval_batches)
            logger.info(kv(event="eval", step=step, eval_ce=ce))
        curve.append((step, loss, ce))
        if step % LOG_EVERY == 0 or step == run_steps:
            logger.info(kv(event="train", step=step, loss=loss, lr=lr))

    final_ce = next((ce for _, _, ce in reversed(curve) if ce is not None), None)
    return TrainResult(params=params, steps=run_steps, curve=curve, final_eval_ce=final_ce)


def perplexity(params: M.Params, vocab: Vocab, texts: Sequence[str], seed: int = 0) -> float:
    """exp(mean masked cross-entropy) under a deterministic seeded masking
    (the default `TrainConfig`'s batch size and mask rate)."""
    windows = build_windows(vocab, texts, params.config.max_seq)
    if not windows:
        raise QtmineError("perplexity needs at least one non-empty document")
    batches = _eval_batches(np.random.default_rng(seed), windows, vocab, TrainConfig())
    ce = eval_ce(params, batches)
    if ce is None:
        raise QtmineError("masking targeted no positions; corpus too small")
    return float(np.exp(ce))


def kshot_finetune(
    params: M.Params,
    vocab: Vocab,
    texts: Sequence[str],
    seed: int | np.random.SeedSequence,
    cfg: TrainConfig,
    n_steps: int = 50,
) -> M.Params:
    """Fine-tune a copy of `params` on a handful of texts; the copy is returned.

    Each of the `n_steps` steps is a `train` step on a batch of windows drawn
    with replacement, with `cfg.lr` warmed up and decayed over `n_steps`.
    """
    if n_steps < 1:
        raise DataFormatError(f"k-shot steps must be at least 1, got {n_steps}")
    tuned = params.copy()
    windows = build_windows(vocab, texts, tuned.config.max_seq)
    if not windows:
        raise QtmineError("no trainable windows in fine-tuning texts")
    rng = np.random.default_rng(seed)
    adam = AdamState(tuned)
    for step in range(1, n_steps + 1):
        pick = rng.integers(0, len(windows), size=min(cfg.batch_size, len(windows)))
        batch = mask_batch(rng, [windows[i] for i in pick], vocab, cfg)
        _step(tuned, adam, batch, lr_schedule(step, n_steps, cfg.lr, cfg.warmup_frac), step)
    return tuned
