"""Countermeasure evaluation: EER, normalized minimum t-DCF, breakdowns.

The metrics take two score arrays, bonafide and spoof.  ``split_scores`` is
the one join of a ``{utt_id: score}`` dict with protocol labels, and the one
place that checks the scores are finite and cover both classes.

Scores are log-likelihood ratios (higher = more bonafide).  An utterance is
accepted at threshold s if score >= s, so P_fa (spoof accepted) is
non-increasing and P_miss (bonafide rejected) non-decreasing in s.  The EER
is read off the convex hull of the empirical ROC: the crossing of the hull
with the P_fa = P_miss diagonal, linearly interpolated between the two hull
vertices straddling it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ParameterError


@dataclass
class ErrorCurve:
    thresholds: np.ndarray  # candidate thresholds, ascending; +-inf endpoints
    p_fa: np.ndarray  # spoof accepted, non-increasing
    p_miss: np.ndarray  # bonafide rejected, non-decreasing


def split_scores(entries, scores: dict):
    """(bonafide, spoof) float64 arrays of the scores of protocol ``entries``."""
    bona, spoof = (np.array([scores[e.utt_id] for e in entries if e.label == label], np.float64)
                   for label in ("bonafide", "spoof"))
    if bona.size == 0 or spoof.size == 0:
        raise MetricError(f"need scores from both classes, got {bona.size} bonafide / "
                          f"{spoof.size} spoof")
    if not (np.all(np.isfinite(bona)) and np.all(np.isfinite(spoof))):
        raise MetricError("scores must be finite")
    return bona, spoof


def error_curve(bona: np.ndarray, spoof: np.ndarray) -> ErrorCurve:
    """Operating points swept over midpoints between adjacent distinct scores
    plus -inf / +inf endpoints."""
    allscores = np.unique(np.concatenate([bona, spoof]))
    if allscores.size > 1:
        mids = (allscores[:-1] + allscores[1:]) / 2.0
    else:
        mids = np.empty(0)
    thresholds = np.concatenate([[-np.inf], mids, [np.inf]])
    bona_sorted = np.sort(bona)
    spoof_sorted = np.sort(spoof)
    # accept iff score >= threshold
    p_fa = 1.0 - np.searchsorted(spoof_sorted, thresholds, side="left") / spoof.size
    p_miss = np.searchsorted(bona_sorted, thresholds, side="left") / bona.size
    return ErrorCurve(thresholds, p_fa, p_miss)


def _roc_frontier(curve: ErrorCurve):
    """One operating point per distinct p_fa (its minimum p_miss), then the
    lower convex hull, sorted by p_fa ascending."""
    # thresholds ascend, so p_fa is non-increasing and within an equal-p_fa
    # run the first point (smallest threshold) has the smallest p_miss
    uniq_fa, first_idx = np.unique(curve.p_fa, return_index=True)
    pts = np.stack([uniq_fa, curve.p_miss[first_idx]], axis=1)
    thr = curve.thresholds[first_idx]
    hull = []
    for i in range(pts.shape[0]):
        while len(hull) >= 2:
            o, a, b = pts[hull[-2]], pts[hull[-1]], pts[i]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            if cross <= 0:  # a lies on or above chord o->b: not on the hull
                hull.pop()
            else:
                break
        hull.append(i)
    hull = np.array(hull, dtype=np.int64)
    return pts[hull], thr[hull]


def eer(bona: np.ndarray, spoof: np.ndarray):
    """Equal error rate and its threshold."""
    curve = error_curve(bona, spoof)
    hp, ht = _roc_frontier(curve)
    # diff = p_miss - p_fa strictly decreases along the hull from the
    # reject-all end (p_fa 0) to the accept-all end (p_fa 1, p_miss 0)
    diff = hp[:, 1] - hp[:, 0]
    if diff[0] <= 0:
        return float(hp[0, 0]), float(ht[0])
    k = int(np.searchsorted(-diff, 0.0, side="left"))
    d1, d2 = diff[k - 1], diff[k]
    s = 0.0 if d1 == d2 else d1 / (d1 - d2)
    eer_val = hp[k - 1, 0] + s * (hp[k, 0] - hp[k - 1, 0])
    t1, t2 = ht[k - 1], ht[k]
    if np.isfinite(t1) and np.isfinite(t2):
        thr = t1 + s * (t2 - t1)
    else:
        thr = t1 if np.isfinite(t1) else t2
    return float(eer_val), float(thr)


# ---------------------------------------------------------------------------
# tandem detection cost


@dataclass
class TdcfParams:
    """Cost model plus the fixed ASV operating point the CM is chained to."""

    pi_tar: float = 0.9405
    pi_non: float = 0.0095
    pi_spoof: float = 0.05
    c_miss_cm: float = 1.0
    c_fa_cm: float = 10.0
    c_miss_asv: float = 1.0
    c_fa_asv: float = 10.0
    p_miss_asv: float = 0.01
    p_fa_asv: float = 0.01
    p_miss_spoof_asv: float = 0.05

    def __post_init__(self):
        priors = (self.pi_tar, self.pi_non, self.pi_spoof)
        if any(p <= 0 for p in priors) or abs(sum(priors) - 1.0) > 1e-9:
            raise ParameterError(f"priors must be positive and sum to 1, got {priors}")
        for name in ("c_miss_cm", "c_fa_cm", "c_miss_asv", "c_fa_asv"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        for name in ("p_miss_asv", "p_fa_asv", "p_miss_spoof_asv"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")

    def coefficients(self):
        c1 = (
            self.pi_tar * (self.c_miss_cm - self.c_miss_asv * self.p_miss_asv)
            - self.pi_non * self.c_fa_asv * self.p_fa_asv
        )
        c2 = self.c_fa_cm * self.pi_spoof * (1.0 - self.p_miss_spoof_asv)
        if c1 <= 0 or c2 <= 0:
            raise ParameterError(
                f"degenerate ASV operating point: C1={c1:.6g}, C2={c2:.6g} must be positive"
            )
        return c1, c2


def min_tdcf_norm(bona: np.ndarray, spoof: np.ndarray, params: TdcfParams):
    """Minimum normalized t-DCF over all CM thresholds, and the threshold."""
    c1, c2 = params.coefficients()
    curve = error_curve(bona, spoof)
    tdcf = c1 * curve.p_miss + c2 * curve.p_fa
    k = int(np.argmin(tdcf))
    return float(tdcf[k] / min(c1, c2)), float(curve.thresholds[k])


def breakdown(entries, scores: dict, params: TdcfParams):
    """Per-attack-code (EER, min t-DCF, n_spoof) rows, code-sorted.

    Each attack code is evaluated against the full bonafide set.  Codes are
    taken as ``read_protocol`` checked them.
    """
    bona_entries = [e for e in entries if e.label == "bonafide"]
    spoof_entries = [e for e in entries if e.label == "spoof"]
    rows = []
    for code in sorted({e.attack_code for e in spoof_entries}):
        subset = bona_entries + [e for e in spoof_entries if e.attack_code == code]
        bona, spoof = split_scores(subset, scores)
        rows.append({"attack_code": code, "eer": eer(bona, spoof)[0],
                     "min_tdcf": min_tdcf_norm(bona, spoof, params)[0], "n_spoof": spoof.size})
    return rows


def format_breakdown(rows) -> str:
    lines = ["attack_code\teer\tmin_tdcf\tn_spoof"]
    for row in rows:
        lines.append(
            f"{row['attack_code']}\t{row['eer']:.6f}\t{row['min_tdcf']:.6f}\t{row['n_spoof']}"
        )
    return "\n".join(lines) + "\n"
