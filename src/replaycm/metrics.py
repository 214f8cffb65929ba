"""Countermeasure evaluation: EER, normalized minimum t-DCF, breakdowns.

The metrics take two score arrays, bonafide and spoof, and each returns one
float.  ``split_scores`` is the one join of a ``{utt_id: score}`` dict with
protocol labels, and the one place that checks the scores are finite and
cover both classes.

Scores are log-likelihood ratios (higher = more bonafide).  An utterance is
accepted at threshold s if score >= s.  The operating points are taken at
the distinct scores themselves, ascending, then at +inf (accept nothing):
no threshold between two scores accepts anything a score does not, and no
arithmetic on the scores can overflow or round.  P_fa (spoof accepted) is
non-increasing and P_miss (bonafide rejected) non-decreasing along them.
The EER is read off the convex hull of the empirical ROC: the crossing of
the hull with the P_fa = P_miss diagonal, linearly interpolated between the
two hull vertices straddling it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ParameterError


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


def error_curve(bona: np.ndarray, spoof: np.ndarray):
    """(p_fa, p_miss) at each distinct score, ascending, then at +inf."""
    # np.unique's values, by sort then mask: np.unique imports numpy.ma in numpy 2
    scores = np.sort(np.concatenate([bona, spoof]))
    thresholds = np.concatenate([scores[:1], scores[1:][scores[1:] != scores[:-1]], [np.inf]])
    # accept iff score >= threshold
    p_fa = 1.0 - np.searchsorted(np.sort(spoof), thresholds, side="left") / spoof.size
    p_miss = np.searchsorted(np.sort(bona), thresholds, side="left") / bona.size
    return p_fa, p_miss


def _roc_frontier(p_fa: np.ndarray, p_miss: np.ndarray) -> np.ndarray:
    """One operating point per distinct p_fa (its minimum p_miss), then the
    lower convex hull, sorted by p_fa ascending."""
    # thresholds ascend, so p_fa is non-increasing and within an equal-p_fa
    # run the first point (smallest threshold) has the smallest p_miss
    uniq_fa, first_idx = np.unique(p_fa, return_index=True)
    pts = np.stack([uniq_fa, p_miss[first_idx]], axis=1)
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
    return pts[hull]


def eer(bona: np.ndarray, spoof: np.ndarray) -> float:
    """Equal error rate of the ROC convex hull."""
    hp = _roc_frontier(*error_curve(bona, spoof))
    # diff = p_miss - p_fa strictly decreases along the hull from the
    # reject-all end (p_fa 0) to the accept-all end (p_fa 1, p_miss 0)
    diff = hp[:, 1] - hp[:, 0]
    if diff[0] <= 0:
        return float(hp[0, 0])
    k = int(np.searchsorted(-diff, 0.0, side="left"))
    d1, d2 = diff[k - 1], diff[k]
    s = 0.0 if d1 == d2 else d1 / (d1 - d2)
    return float(hp[k - 1, 0] + s * (hp[k, 0] - hp[k - 1, 0]))


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


def min_tdcf_norm(bona: np.ndarray, spoof: np.ndarray, params: TdcfParams) -> float:
    """Minimum normalized t-DCF over all CM thresholds."""
    c1, c2 = params.coefficients()
    p_fa, p_miss = error_curve(bona, spoof)
    return float(np.min(c1 * p_miss + c2 * p_fa) / min(c1, c2))


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
        rows.append({"attack_code": code, "eer": eer(bona, spoof),
                     "min_tdcf": min_tdcf_norm(bona, spoof, params), "n_spoof": spoof.size})
    return rows


def format_breakdown(rows) -> str:
    lines = ["attack_code\teer\tmin_tdcf\tn_spoof"]
    for row in rows:
        lines.append(
            f"{row['attack_code']}\t{row['eer']:.6f}\t{row['min_tdcf']:.6f}\t{row['n_spoof']}"
        )
    return "\n".join(lines) + "\n"
