"""Balanced focal loss, the training objective.

Each sample is weighted by its class's alpha, one of a (spoof, bonafide)
pair, and scaled by (1 - p_t)**gamma, so confidently-classified samples
contribute almost nothing and the hard minority keeps the gradient.  At
gamma = 0 the factor is 1 and the loss is balanced cross-entropy.  ``bfl``
returns the loss and its gradient with respect to the log-probabilities, in
closed form and differentiating the modulating factor too rather than
treating it as a constant; ``autodiff.backward`` takes the gradient from
there.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

NORMALIZATION_TOL = 1e-6


def auto_alpha(n_spoof: int, n_bonafide: int) -> tuple:
    """(spoof, bonafide) class weights by inverse class frequency, normalized
    so the per-sample weights average to 1 over the training set: alpha_c =
    total / (2 * n_c).  ``train`` checks both counts."""
    total = n_spoof + n_bonafide
    return total / (2.0 * n_spoof), total / (2.0 * n_bonafide)


def _check_normalized(log_probs: np.ndarray) -> None:
    sums = np.exp(log_probs.astype(np.float64)).sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ContractError(
            f"log_probs are not normalized: sum(exp) deviates from 1 by {worst:.3e}"
        )


def bfl(log_probs: np.ndarray, targets, alpha: tuple, gamma: float) -> tuple:
    """Balanced focal loss: mean of -alpha_t * (1 - p_t)**gamma * log p_t,
    alpha_t the weight in the (spoof, bonafide) pair ``alpha`` of the
    sample's class (0 or 1); balanced cross-entropy at gamma = 0.  Returns
    the loss, rounded to the dtype of ``log_probs``, and its gradient with
    respect to ``log_probs``.  The modulating factor is computed as
    (-expm1(log p_t))**gamma, which stays accurate as p_t -> 1."""
    _check_normalized(log_probs)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if log_probs.ndim != 2 or targets.shape != log_probs.shape[:1]:
        raise ShapeError(f"targets {targets.shape} do not match log_probs {log_probs.shape}")
    rows = np.arange(targets.size)
    lp_t = log_probs[rows, targets]
    alpha_t = np.where(targets == 1, alpha[1], alpha[0]).astype(lp_t.dtype)
    one_minus_p = -np.expm1(lp_t)
    modulation = np.power(one_minus_p, gamma)
    loss = np.asarray(np.mean(-(modulation * lp_t * alpha_t), dtype=np.float64), dtype=lp_t.dtype)

    # d loss / d log p_t, its products associated as written and the unit
    # in the loss's dtype: another association moves the gradient, and so
    # the trained weights, in the last bit
    g_w = -(np.ones((), lp_t.dtype) / lp_t.size) * alpha_t
    # d/dx x**gamma = gamma * x**(gamma - 1), set to 0 where it is not
    # finite: at x = 0 (p_t = 1) when gamma < 1
    with np.errstate(divide="ignore", invalid="ignore"):
        deriv = gamma * np.power(one_minus_p, gamma - 1.0)
    deriv[~np.isfinite(deriv)] = 0.0
    grad = np.zeros_like(log_probs)
    grad[rows, targets] = g_w * modulation - (g_w * lp_t * deriv) * np.exp(lp_t)
    return float(loss), grad
