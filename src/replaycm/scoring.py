"""Score files and the two fusion schemes (mean, logistic regression)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from .errors import (AlignmentError, DataError, NumericError, ParameterError, ParseError,
                     ascii_lines, atomic_open)

LR_RIDGE = 1e-4
LR_GRAD_TOL = 1e-8
LR_MAX_ITER = 200


# 309 integer digits (the largest float is 1.8e308) and 6 decimals
_SCORE_CONTEXT = Context(prec=315)


def _format_score(utt_id: str, score: float) -> str:
    # decimal round-half-away-from-zero at 6 places, via the shortest decimal
    # representation of the float
    if not math.isfinite(score):
        raise NumericError(f"score of {utt_id!r} is {score}, not a finite number")
    q = Decimal(repr(float(score))).quantize(Decimal("0.000001"), rounding=ROUND_HALF_UP,
                                             context=_SCORE_CONTEXT)
    if q == 0:
        q = abs(q)  # avoid "-0.000000"
    return f"{q:f}"


def write_score_file(scores: dict, path) -> None:
    """One line per utterance: ``<utt_id> <score>`` with 6 decimal places,
    sorted by utt_id so identical score sets serialize byte-identically.
    The file is replaced whole (``atomic_open``), so a score that cannot be
    written leaves the previous file, or none, behind."""
    lines = [f"{utt_id} {_format_score(utt_id, scores[utt_id])}\n" for utt_id in sorted(scores)]
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)


def read_score_file(path) -> dict:
    scores = {}
    for lineno, line in ascii_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected '<utt_id> <score>'")
        try:
            score = float(parts[1])
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ParseError(f"{path}:{lineno}: score {parts[1]!r} is not a finite number")
        if parts[0] in scores:
            raise ParseError(f"{path}:{lineno}: duplicate utt_id {parts[0]!r}")
        scores[parts[0]] = score
    return scores


@dataclass
class FusionModel:
    """Logistic-regression fusion: fused score = weights . scores + bias."""

    weights: np.ndarray
    bias: float

    def fuse(self, score_sets) -> dict:
        mat, utt_ids = _aligned_matrix(score_sets)
        return dict(zip(utt_ids, (mat @ self.weights + self.bias).tolist()))


def _aligned_matrix(score_sets):
    """Stack K score dicts into (n_utts, K), (0, K) for empty sets; utt_id
    sets must agree."""
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
    return mat.reshape(len(utt_ids), len(score_sets)), utt_ids


def mean_fuse(score_sets) -> dict:
    """Per-utterance arithmetic mean of K aligned score sets.  Where the sum
    overflows (scores near 1.8e308), the mean is the sum of score / K."""
    mat, utt_ids = _aligned_matrix(score_sets)
    with np.errstate(over="ignore"):
        fused = mat.mean(axis=1)
    over = ~np.isfinite(fused)
    fused[over] = (mat[over] / mat.shape[1]).sum(axis=1)
    return dict(zip(utt_ids, fused.tolist()))


def lr_fuse_train(score_sets, labels: dict) -> FusionModel:
    """Fit logistic-regression fusion on development scores.

    Maximizes the ridge-penalized binomial log-likelihood of
    sigma(w . s + b) by Newton iteration until the gradient norm drops
    below 1e-8; the bias is not penalized, so an intercept-only fit recovers
    the logit of the class prior exactly.  The dev utterances must hold both
    classes: with one, the likelihood has no maximum.
    """
    if len(score_sets) < 2:
        raise ParameterError("logistic fusion needs at least 2 systems")
    mat, utt_ids = _aligned_matrix(score_sets)
    missing = [u for u in utt_ids if u not in labels]
    if missing:
        raise AlignmentError(f"missing dev labels for {missing[:10]}")
    y = np.array([1.0 if labels[u] == "bonafide" else 0.0 for u in utt_ids])
    n_bona = int(y.sum())
    if n_bona in (0, y.size):
        raise DataError(f"logistic fusion needs bonafide and spoof dev utterances, got "
                        f"{n_bona} bonafide and {y.size - n_bona} spoof")
    n, k = mat.shape
    x = np.concatenate([mat, np.ones((n, 1))], axis=1)
    penalty = np.full(k + 1, LR_RIDGE)
    penalty[-1] = 0.0
    theta = np.zeros(k + 1)
    # extreme finite scores overflow to inf/nan; that is caught below as one
    # NumericError, not left to print numpy warnings
    with np.errstate(all="ignore"):
        for step in range(LR_MAX_ITER):
            z = x @ theta
            p = 1.0 / (1.0 + np.exp(-z))
            grad = x.T @ (p - y) / n + penalty * theta
            norm = np.linalg.norm(grad)
            if not np.isfinite(norm):
                raise NumericError(f"logistic fusion gradient norm is {norm} at Newton step "
                                   f"{step + 1}; the dev scores are too extreme to fit")
            if norm < LR_GRAD_TOL:
                break
            w_diag = np.maximum(p * (1.0 - p), 1e-12)
            hess = (x.T * w_diag) @ x / n + np.diag(penalty)
            theta = theta - np.linalg.solve(hess, grad)
        else:
            raise NumericError(
                f"logistic fusion did not converge in {LR_MAX_ITER} Newton steps; "
                f"final gradient norm {norm:.3e}"
            )
    return FusionModel(theta[:-1], float(theta[-1]))

