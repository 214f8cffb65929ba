import numpy as np
import pytest

from replaycm.errors import MetricError, ParameterError
from replaycm.metrics import (
    TdcfParams,
    breakdown,
    eer,
    error_curve,
    format_breakdown,
    min_tdcf_norm,
    split_scores,
)
from replaycm.replay_sim import ManifestEntry

PARAMS = TdcfParams()
# (bonafide, spoof) scores that separate perfectly, with two adjacent distinct
# scores whose sum overflows
EXTREME = [([1.7e308], [1.6e308, -1.0]), ([-1.6e308, 1.0], [-1.7e308])]


def labeled(bona, spoof, codes=None):
    """Protocol entries and a {utt_id: score} dict for the two score lists;
    spoof i carries ``codes[i]`` (default "AA")."""
    entries = [ManifestEntry(f"b{i}", "bonafide", "-") for i in range(len(bona))]
    entries += [ManifestEntry(f"s{i}", "spoof", "AA" if codes is None else codes[i])
                for i in range(len(spoof))]
    return entries, {e.utt_id: float(s) for e, s in zip(entries, [*bona, *spoof])}


def oracle_operating_points(bona, spoof):
    """Brute force: (p_fa, p_miss) at every distinct score, ascending, as an
    accept-if-greater-or-equal threshold, then at the accept-nothing +inf."""
    cand = np.concatenate([np.unique(np.concatenate([bona, spoof])), [np.inf]])
    return np.array([(np.mean(spoof >= t), np.mean(bona < t)) for t in cand])


def oracle_rocch_eer(bona, spoof):
    """EER of the best achievable (convexified) operating point: minimum of
    the diagonal crossing over every pair of operating points."""
    pts = oracle_operating_points(bona, spoof)
    d = pts[:, 1] - pts[:, 0]
    best = np.inf
    for i in range(len(pts)):
        if d[i] == 0.0:
            best = min(best, pts[i, 0])
        for j in range(i + 1, len(pts)):
            if (d[i] > 0 > d[j]) or (d[j] > 0 > d[i]):
                s = d[i] / (d[i] - d[j])
                best = min(best, pts[i, 0] + s * (pts[j, 0] - pts[i, 0]))
    return best


def oracle_min_tdcf_norm(bona, spoof, params):
    c1, c2 = params.coefficients()
    scores = np.unique(np.concatenate([bona, spoof]))
    cand = np.concatenate([[-np.inf], scores, (scores[:-1] + scores[1:]) / 2.0, [np.inf]])
    best = min(c1 * np.mean(bona < t) + c2 * np.mean(spoof >= t) for t in cand)
    return best / min(c1, c2)


class TestEer:
    def test_perfect_separation(self):
        value = eer(np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0]))
        assert value == 0.0

    def test_interpolated_crossing_example(self):
        value = eer(np.array([0.9, 0.8]), np.array([0.85, 0.2]))
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_random_labels_near_half(self, rng):
        scores = rng.standard_normal(2000)
        labels = rng.random(2000) < 0.5
        value = eer(scores[labels], scores[~labels])
        assert abs(value - 0.5) < 0.05

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(200):
            nb = int(rng.integers(1, 30))
            ns = int(rng.integers(1, 30))
            if trial % 3 == 0:  # heavy ties
                bona = rng.integers(0, 4, nb).astype(float)
                spoof = rng.integers(0, 4, ns).astype(float)
            else:
                bona = rng.standard_normal(nb) + rng.uniform(-1, 1)
                spoof = rng.standard_normal(ns)
            value = eer(bona, spoof)
            assert value == pytest.approx(oracle_rocch_eer(bona, spoof), abs=1e-12)
            assert -1e-12 <= value <= 0.5 + 1e-12

    def test_monotone_transform_invariance(self, rng):
        bona = rng.standard_normal(80) + 0.7
        spoof = rng.standard_normal(120)
        base = eer(bona, spoof)
        warp = lambda x: np.exp(0.5 * x) + 0.1 * x
        warped = eer(warp(bona), warp(spoof))
        assert warped == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("bona, spoof", [
        ([10000000000000002.0], [1e16]), ([np.nextafter(1.0, 2.0)], [1.0]), *EXTREME,
    ], ids=["one-ulp-apart-1e16", "one-ulp-apart-1.0", "near+1.8e308", "near-1.8e308"])
    def test_separable_scores_at_the_float_edges(self, bona, spoof):
        # a threshold halfway between two adjacent scores once rounded onto
        # one of them, or overflowed with a RuntimeWarning (an error here)
        bona, spoof = np.array(bona), np.array(spoof)
        assert eer(bona, spoof) == 0.0
        assert min_tdcf_norm(bona, spoof, PARAMS) == 0.0


class TestSplitScores:
    def test_arrays_follow_the_labels(self):
        entries, scores = labeled([1.0, 2.0], [-1.0])
        scores["other"] = 5.0  # a score the protocol does not list is not read
        bona, spoof = split_scores(entries, scores)
        assert bona.dtype == spoof.dtype == np.float64
        assert bona.tolist() == [1.0, 2.0] and spoof.tolist() == [-1.0]

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="got 1 bonafide / 0 spoof"):
            split_scores(*labeled([1.0], []))

    def test_non_finite_rejected(self):
        with pytest.raises(MetricError, match="finite"):
            split_scores(*labeled([np.nan], [0.0]))


class TestErrorCurve:
    def test_endpoints_and_monotonicity(self, rng):
        bona = rng.standard_normal(40) + 1
        spoof = rng.standard_normal(60)
        p_fa, p_miss = error_curve(bona, spoof)
        assert p_fa[0] == 1.0 and p_miss[0] == 0.0
        assert p_fa[-1] == 0.0 and p_miss[-1] == 1.0
        assert np.all(np.diff(p_fa) <= 0)
        assert np.all(np.diff(p_miss) >= 0)

    def test_points_are_the_oracles_in_order(self, rng):
        sets = [(np.array(b), np.array(s)) for b, s in EXTREME]
        for trial in range(60):
            nb, ns = (int(n) for n in rng.integers(1, 30, 2))
            if trial % 3 == 0:  # heavy ties
                sets.append((rng.integers(0, 4, nb).astype(float),
                             rng.integers(0, 4, ns).astype(float)))
            else:
                sets.append((rng.standard_normal(nb) + 1, rng.standard_normal(ns)))
        for bona, spoof in sets:
            points = np.stack(error_curve(bona, spoof), axis=1)
            expected = oracle_operating_points(bona, spoof)
            assert points.shape == expected.shape
            assert np.allclose(points, expected, rtol=0, atol=1e-12)


class TestMinTdcf:
    def test_perfect_cm_zero_cost(self):
        value = min_tdcf_norm(np.array([5.0, 6.0]), np.array([1.0, 2.0]), PARAMS)
        assert value == 0.0

    def test_uninformative_cm_costs_one(self):
        value = min_tdcf_norm(np.full(3, 0.5), np.full(2, 0.5), PARAMS)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        params = TdcfParams()
        for _ in range(60):
            nb = int(rng.integers(2, 40))
            ns = int(rng.integers(2, 40))
            bona = rng.standard_normal(nb) + 0.4
            spoof = rng.standard_normal(ns)
            value = min_tdcf_norm(bona, spoof, params)
            assert value == pytest.approx(oracle_min_tdcf_norm(bona, spoof, params), abs=1e-12)
            assert value >= 0.0

    def test_shift_invariance(self, rng):
        bona = rng.standard_normal(30) + 1
        spoof = rng.standard_normal(30)
        a = min_tdcf_norm(bona, spoof, PARAMS)
        b = min_tdcf_norm(bona + 123.5, spoof + 123.5, PARAMS)
        assert a == b

    def test_degenerate_operating_point_rejected(self):
        with pytest.raises(ParameterError):
            TdcfParams(p_miss_asv=1.0).coefficients()
        with pytest.raises(ParameterError):
            TdcfParams(p_miss_spoof_asv=1.0).coefficients()

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            TdcfParams(pi_tar=0.5, pi_non=0.1, pi_spoof=0.1)
        with pytest.raises(ParameterError):
            TdcfParams(c_fa_cm=0.0)
        with pytest.raises(ParameterError):
            TdcfParams(p_fa_asv=1.5)


class TestBreakdown:
    def test_single_code_matches_global(self, rng):
        bona = rng.standard_normal(20) + 1.0
        spoof = rng.standard_normal(30)
        rows = breakdown(*labeled(bona, spoof, codes=["AA"] * 30), PARAMS)
        assert len(rows) == 1
        assert rows[0]["attack_code"] == "AA"
        assert rows[0]["n_spoof"] == 30
        assert rows[0]["eer"] == eer(bona, spoof)
        assert rows[0]["min_tdcf"] == min_tdcf_norm(bona, spoof, PARAMS)

    def test_per_code_bookkeeping(self, rng):
        codes = ["AA"] * 4 + ["BB"] * 6 + ["CC"] * 2
        rows = breakdown(*labeled(rng.standard_normal(5) + 1, rng.standard_normal(12), codes),
                         PARAMS)
        assert [r["attack_code"] for r in rows] == ["AA", "BB", "CC"]
        assert [r["n_spoof"] for r in rows] == [4, 6, 2]

    def test_format_is_tab_separated(self, rng):
        entries, scores = labeled(rng.standard_normal(4) + 1, rng.standard_normal(9),
                                  codes=["AA"] * 9)
        text = format_breakdown(breakdown(entries, scores, PARAMS))
        lines = text.strip().split("\n")
        assert lines[0] == "attack_code\teer\tmin_tdcf\tn_spoof"
        assert lines[1].startswith("AA\t")
