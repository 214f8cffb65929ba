"""AdamW, plateau learning-rate scheduling and the training loop."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import objectives
from .autodiff import Tensor
from .errors import DataError, FormatError, ParameterError, ShapeError, TrainingError, ascii_lines
from .features import read_gram
from .metrics import eer
from .model import ResNet, score_batch
from .scoring import ScoreRecord

FEATURE_MANIFEST = "features.manifest"


@dataclass
class TrainConfig:
    lr: float = 3e-4
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 5e-5
    plateau_patience: int = 3
    plateau_factor: float = 0.1
    batch_size: int = 16
    max_epochs: int = 10
    seed: int = 0
    objective: str = "bfl"
    gamma: float = 2.0
    alpha: str | tuple = "auto"  # "auto", (alpha_spoof, alpha_bonafide) or "spoof,bonafide"

    def __post_init__(self):
        if self.alpha != "auto":
            parts = self.alpha.split(",") if isinstance(self.alpha, str) else self.alpha
            try:
                alpha = tuple(float(a) for a in parts)
            except (TypeError, ValueError):
                alpha = ()
            if len(alpha) != 2 or not all(0 < a < np.inf for a in alpha):
                raise ParameterError(
                    f"alpha must be 'auto' or two positive numbers, got {self.alpha!r}")
            self.alpha = alpha
        if self.lr <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ParameterError("lr, batch_size and max_epochs must be positive")
        if not (0.0 < self.plateau_factor < 1.0):
            raise ParameterError(f"plateau_factor must lie in (0, 1), got {self.plateau_factor}")
        if self.objective not in ("bce", "bfl"):
            raise ParameterError(f"objective must be 'bce' or 'bfl', got {self.objective!r}")
        if self.gamma < 0:
            raise ParameterError("gamma must be >= 0")


class AdamW:
    """Decoupled-weight-decay Adam: p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)."""

    def __init__(self, params: dict, lr: float, betas=TrainConfig.betas,
                 weight_decay: float = 0.0, eps: float = 1e-8):
        self.params = params
        for p in params.values():
            p.requires_grad = True  # the only code that turns gradients on for a model
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.weight_decay = weight_decay
        self.eps = eps
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
            update = m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data
            p.data = (p.data - self.lr * update).astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


class PlateauScheduler:
    """Multiply lr by ``factor`` after ``patience`` consecutive epochs without
    improvement of the (lower-is-better) metric; counter resets on improvement
    and after each reduction."""

    def __init__(self, lr: float, patience: int = TrainConfig.plateau_patience,
                 factor: float = TrainConfig.plateau_factor):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.best = np.inf
        self.stale = 0
        self.reductions = []

    def report(self, metric: float) -> float:
        if metric < self.best:
            self.best = metric
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr *= self.factor
                self.reductions.append(len(self.reductions) + 1)
                self.stale = 0
        return self.lr


class FeatureStore:
    """Loads feature grams by utt_id via the extraction manifest."""

    def __init__(self, feature_dir):
        self.feature_dir = Path(feature_dir)
        manifest = self.feature_dir / FEATURE_MANIFEST
        if not manifest.exists():
            raise DataError(f"feature manifest {manifest} not found")
        self.paths = {utt_id: self.feature_dir / rel
                      for utt_id, rel in _read_manifest(manifest).items()}

    def load(self, utt_id: str) -> np.ndarray:
        if utt_id not in self.paths:
            raise DataError(f"no feature file for utterance {utt_id!r}")
        return read_gram(self.paths[utt_id], utt_id).data

    def load_batch(self, utt_ids, map_fn=map) -> np.ndarray:
        """(N, bins, frames) stack of the grams of ``utt_ids``, read through
        ``map_fn`` (the builtin ``map`` or a thread pool's)."""
        grams = list(map_fn(self.load, utt_ids))
        for utt_id, gram in zip(utt_ids, grams):
            if gram.shape != grams[0].shape:
                raise ShapeError(f"gram of {utt_id!r} is {gram.shape}, but gram of "
                                 f"{utt_ids[0]!r} is {grams[0].shape}")
        return np.stack(grams)


def _read_manifest(path) -> dict:
    """utt_id -> gram file name, from ``<utt_id> <file name>`` lines."""
    entries = {}
    for lineno, line in ascii_lines(path):
        fields = line.split(maxsplit=1)
        if len(fields) != 2:
            raise FormatError(f"{path}:{lineno}: expected '<utt_id> <gram file>'")
        entries[fields[0]] = fields[1]
    return entries


def write_feature_manifest(feature_dir, mapping: dict) -> None:
    """Merge new utt_id -> filename entries into the directory manifest."""
    path = Path(feature_dir) / FEATURE_MANIFEST
    merged = _read_manifest(path) if path.exists() else {}
    merged.update(mapping)
    lines = [f"{utt_id} {rel}" for utt_id, rel in sorted(merged.items())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


@dataclass
class TrainResult:
    history: list
    best_dev_eer: float
    best_epoch: int
    log_lines: list = field(default_factory=list)


def _score_entries(model: ResNet, entries, store: FeatureStore,
                   batch_size: int = 32, jobs: int = 1) -> list:
    """ScoreRecords for ``entries``, scored batch_size at a time; with jobs > 1
    one pool of that many threads reads the grams of every batch."""
    records = []
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for start in range(0, len(entries), batch_size):
            chunk = entries[start : start + batch_size]
            grams = store.load_batch([e.utt_id for e in chunk], pool.map if pool else map)
            for e, s in zip(chunk, score_batch(model, grams)):
                records.append(ScoreRecord(e.utt_id, float(s), e.label, e.attack_code))
    return records


def train(model: ResNet, train_entries, dev_entries, store: FeatureStore,
          cfg: TrainConfig, log_path=None) -> TrainResult:
    """Train in place; on return the model holds the best-dev-EER parameters."""
    for e in train_entries + dev_entries:
        if e.utt_id not in store.paths:
            raise DataError(f"no feature file for utterance {e.utt_id!r}")

    n_spoof = sum(1 for e in train_entries if e.label == "spoof")
    n_bona = len(train_entries) - n_spoof
    if cfg.alpha == "auto":
        weights = objectives.ClassWeights.auto(max(n_spoof, 1), max(n_bona, 1))
    else:
        weights = objectives.ClassWeights(*cfg.alpha)

    params = model.parameters()
    optimizer = AdamW(params, cfg.lr, cfg.betas, cfg.weight_decay)
    scheduler = PlateauScheduler(cfg.lr, cfg.plateau_patience, cfg.plateau_factor)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x54524E]))

    order = np.arange(len(train_entries))
    history = []
    log_lines = []
    best = TrainResult(history, np.inf, -1, log_lines)
    best_params = None
    best_buffers = None

    for epoch in range(1, cfg.max_epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_entries[i] for i in order[start : start + cfg.batch_size]]
            grams = store.load_batch([e.utt_id for e in batch])
            targets = np.array([1 if e.label == "bonafide" else 0 for e in batch])
            x = Tensor(grams.astype(np.float32)[:, None, :, :])
            log_probs = model.forward(x, train=True)
            if cfg.objective == "bfl":
                loss = objectives.bfl(log_probs, targets, weights, cfg.gamma)
            else:
                loss = objectives.bce(log_probs, targets, weights)
            optimizer.zero_grad()
            ad.backward(loss)
            optimizer.step()
            epoch_loss += loss.item()
            n_batches += 1

        train_loss = epoch_loss / max(n_batches, 1)
        dev_records = _score_entries(model, dev_entries, store)
        dev_eer, _ = eer(dev_records)
        lr_now = optimizer.lr
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "dev_eer": dev_eer, "lr": lr_now})
        log_lines.append(f"{epoch} {train_loss:.6f} {dev_eer:.6f} {lr_now:.8f}")
        if dev_eer < best.best_dev_eer:
            best.best_dev_eer = dev_eer
            best.best_epoch = epoch
            best_params = {n: p.data.copy() for n, p in params.items()}
            best_buffers = {n: b.copy() for n, b in model.buffers().items()}
        optimizer.lr = scheduler.report(dev_eer)

    if best_params is not None:
        for n, p in params.items():
            p.data = best_params[n]
        model.load_buffers(best_buffers)

    if log_path is not None:
        Path(log_path).write_text("\n".join(log_lines) + "\n", encoding="ascii")
    return best
