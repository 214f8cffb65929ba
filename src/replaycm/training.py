"""AdamW and the training loop, with its plateau learning-rate schedule, and
the batch scoring loop of training's dev scoring and of ``score``.  Both
read their grams through a ``features.FeatureStore``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import objectives
from .autodiff import Tensor
from .errors import DataError, ParameterError, TrainingError, atomic_open
from .features import FeatureStore
from .metrics import eer, split_scores
from .model import ResNet, score_batch

ADAM_EPS = 1e-8
# utterances per forward pass when scoring
SCORE_BATCH = 32
# the loss runs in float32, so gamma must be a float32 number
MAX_GAMMA = float(np.finfo(np.float32).max)


@dataclass
class TrainConfig:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 5e-5
    plateau_patience: int = 3
    plateau_factor: float = 0.1
    batch_size: int = 16
    max_epochs: int = 10
    seed: int = 0
    gamma: float = 2.0  # 0 gives balanced cross-entropy
    alpha: str = "auto"  # "auto" or "spoof,bonafide", parsed to a pair of floats

    def __post_init__(self):
        if self.alpha != "auto":
            try:
                alpha = tuple(float(a) for a in self.alpha.split(","))
            except ValueError:
                alpha = ()
            if len(alpha) != 2 or not all(0 < a < np.inf for a in alpha):
                raise ParameterError(
                    f"alpha must be 'auto' or two positive numbers, got {self.alpha!r}")
            self.alpha = alpha
        if self.lr <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ParameterError("lr, batch_size and max_epochs must be positive")
        if not (0.0 < self.plateau_factor < 1.0):
            raise ParameterError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.plateau_patience < 1:
            raise ParameterError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        betas = (self.beta1, self.beta2)
        if not all(0.0 <= b < 1.0 for b in betas):  # AdamW divides by 1 - beta**t
            raise ParameterError(f"beta1 and beta2 must lie in [0, 1), got {betas}")
        if self.weight_decay < 0:
            raise ParameterError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.gamma <= MAX_GAMMA:  # false for nan too
            raise ParameterError(
                f"gamma must be a number in [0, {MAX_GAMMA:.6g}], got {self.gamma}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


class AdamW:
    """Decoupled-weight-decay Adam: p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)."""

    def __init__(self, params: dict, lr: float, betas: tuple, weight_decay: float):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data, dtype=np.float64) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data, dtype=np.float64) for name, p in params.items()}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            g = g.astype(np.float64)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**t)
            v_hat = self.v[name] / (1 - self.beta2**t)
            update = m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * p.data
            p.data = (p.data - self.lr * update).astype(p.data.dtype)


@dataclass
class TrainResult:
    history: list
    best_dev_eer: float
    best_epoch: int


def _score_entries(model: ResNet, entries, store: FeatureStore, map_fn=map) -> dict:
    """{utt_id: score} for ``entries``, in their order.  ``map_fn`` (the
    builtin ``map`` or a thread pool's) maps one job over the batches of
    SCORE_BATCH utterances: read the grams, run the eval-mode forward, return
    the scores.  An eval-mode forward writes no model state but the
    parameters' gradient flags, each to off, so pool threads give the serial
    scores."""
    def score(batch):
        return zip(batch, score_batch(model, store.load_batch(batch)).tolist())

    batches = [[e.utt_id for e in entries[start : start + SCORE_BATCH]]
               for start in range(0, len(entries), SCORE_BATCH)]
    return {utt_id: s for pairs in map_fn(score, batches) for utt_id, s in pairs}


def train(model: ResNet, train_entries, dev_entries, store: FeatureStore,
          cfg: TrainConfig, log_path) -> TrainResult:
    """Train in place; on return the model holds the best-dev-EER parameters.

    After ``plateau_patience`` epochs in a row without a lower dev EER the
    optimizer's lr is multiplied by ``plateau_factor``.  ``log_path`` gets
    one ``<epoch> <train loss> <dev EER> <lr>`` line per epoch."""
    # the training set last, so that its counts are left for the class weights
    for what, entries in (("the dev protocol", dev_entries), ("training", train_entries)):
        n_spoof = sum(1 for e in entries if e.label == "spoof")
        n_bona = len(entries) - n_spoof
        if n_spoof < 1 or n_bona < 1:
            raise DataError(f"{what} needs both classes, got {n_bona} bonafide and "
                            f"{n_spoof} spoof utterances")
    store.load(dev_entries[0].utt_id)  # a dev gram of another kind or shape stops here

    alpha = objectives.auto_alpha(n_spoof, n_bona) if cfg.alpha == "auto" else cfg.alpha

    optimizer = AdamW(model.parameters(), cfg.lr, (cfg.beta1, cfg.beta2), cfg.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x54524E]))

    order = np.arange(len(train_entries))
    history = []
    best = TrainResult(history, np.inf, -1)
    best_state = None
    stale = 0  # epochs since the dev EER last improved, or since the lr was cut

    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_entries[i] for i in order[start : start + cfg.batch_size]]
            grams = store.load_batch([e.utt_id for e in batch])
            targets = np.array([1 if e.label == "bonafide" else 0 for e in batch])
            x = Tensor(grams[:, None, :, :])
            log_probs = model.forward(x, train=True)
            loss, grad = objectives.bfl(log_probs.data, targets, alpha, cfg.gamma)
            ad.backward(log_probs, grad)
            optimizer.step()
            del x, log_probs  # not held through the next forward
            epoch_loss += loss
            n_batches += 1

        train_loss = epoch_loss / n_batches
        dev_eer = eer(*split_scores(dev_entries, _score_entries(model, dev_entries, store)))
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "dev_eer": dev_eer, "lr": optimizer.lr})
        if dev_eer < best.best_dev_eer:
            best.best_dev_eer = dev_eer
            best.best_epoch = epoch
            best_state = model.state()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.plateau_patience:
                optimizer.lr *= cfg.plateau_factor
                stale = 0

    if best_state is not None:
        model.load_state(best_state)

    lines = [f"{h['epoch']} {h['train_loss']:.6f} {h['dev_eer']:.6f} {h['lr']:.8f}"
             for h in history]
    with atomic_open(log_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return best
