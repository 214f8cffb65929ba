"""Score files and the two fusion schemes (mean, logistic regression)."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import AlignmentError, NumericError, ParameterError, ParseError, ascii_lines

LR_RIDGE = 1e-4
LR_GRAD_TOL = 1e-8
LR_MAX_ITER = 200


@dataclass
class ScoreRecord:
    utt_id: str
    score: float
    label: str | None = None  # "bonafide" | "spoof" | None
    attack_code: str | None = None


def _format_score(score: float) -> str:
    # decimal round-half-away-from-zero at 6 places, via the shortest decimal
    # representation of the float
    q = Decimal(repr(float(score))).quantize(Decimal("0.000001"), rounding=ROUND_HALF_UP)
    if q == 0:
        q = abs(q)  # avoid "-0.000000"
    return f"{q:f}"


def write_score_file(scores: dict, path) -> None:
    """One line per utterance: ``<utt_id> <score>`` with 6 decimal places,
    sorted by utt_id so identical score sets serialize byte-identically."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for utt_id in sorted(scores):
            fh.write(f"{utt_id} {_format_score(scores[utt_id])}\n")


def read_score_file(path) -> dict:
    scores = {}
    for lineno, line in ascii_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected '<utt_id> <score>'")
        try:
            score = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad score {parts[1]!r}") from exc
        if parts[0] in scores:
            raise ParseError(f"{path}:{lineno}: duplicate utt_id {parts[0]!r}")
        scores[parts[0]] = score
    return scores


@dataclass
class FusionModel:
    kind: str  # "mean" | "logistic"
    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.kind not in ("mean", "logistic"):
            raise ParameterError(f"unknown fusion kind {self.kind!r}")
        if self.kind == "mean":
            k = self.weights.size
            if self.bias != 0.0 or not np.allclose(self.weights, 1.0 / k):
                raise ParameterError("mean fusion must have uniform 1/K weights and zero bias")

    def fuse(self, score_sets) -> dict:
        mat, utt_ids = _aligned_matrix(score_sets)
        if self.kind == "mean":
            fused = mat.mean(axis=1)
        else:
            fused = mat @ self.weights + self.bias
        return dict(zip(utt_ids, fused.tolist()))


def _aligned_matrix(score_sets):
    """Stack K score dicts into (n_utts, K); utt_id sets must agree."""
    if len(score_sets) < 1:
        raise ParameterError("need at least one score set")
    base = set(score_sets[0])
    for i, s in enumerate(score_sets[1:], start=2):
        if set(s) != base:
            diff = sorted(set(s) ^ base)
            raise AlignmentError(
                f"score set {i} disagrees on {len(diff)} utterance(s): {diff[:10]}"
            )
    utt_ids = sorted(base)
    mat = np.array([[s[u] for s in score_sets] for u in utt_ids], dtype=np.float64)
    return mat, utt_ids


def mean_fuse(score_sets) -> dict:
    """Per-utterance arithmetic mean of K aligned score sets."""
    k = len(score_sets)
    model = FusionModel("mean", np.full(k, 1.0 / k), 0.0)
    return model.fuse(score_sets)


def lr_fuse_train(score_sets, labels: dict) -> FusionModel:
    """Fit logistic-regression fusion on development scores.

    Maximizes the ridge-penalized binomial log-likelihood of
    sigma(w . s + b) by Newton iteration until the gradient norm drops
    below 1e-8; the bias is not penalized, so an intercept-only fit recovers
    the logit of the class prior exactly.
    """
    if len(score_sets) < 2:
        raise ParameterError("logistic fusion needs at least 2 systems")
    mat, utt_ids = _aligned_matrix(score_sets)
    missing = [u for u in utt_ids if u not in labels]
    if missing:
        raise AlignmentError(f"missing dev labels for {missing[:10]}")
    y = np.array([1.0 if labels[u] == "bonafide" else 0.0 for u in utt_ids])
    n, k = mat.shape
    x = np.concatenate([mat, np.ones((n, 1))], axis=1)
    penalty = np.full(k + 1, LR_RIDGE)
    penalty[-1] = 0.0
    theta = np.zeros(k + 1)
    for _ in range(LR_MAX_ITER):
        z = x @ theta
        p = 1.0 / (1.0 + np.exp(-z))
        grad = x.T @ (p - y) / n + penalty * theta
        if np.linalg.norm(grad) < LR_GRAD_TOL:
            break
        w_diag = np.maximum(p * (1.0 - p), 1e-12)
        hess = (x.T * w_diag) @ x / n + np.diag(penalty)
        theta = theta - np.linalg.solve(hess, grad)
    else:
        raise NumericError(
            f"logistic fusion did not converge in {LR_MAX_ITER} Newton steps; "
            f"final gradient norm {np.linalg.norm(grad):.3e}"
        )
    return FusionModel("logistic", theta[:-1], float(theta[-1]))

