from decimal import Decimal

import numpy as np
import pytest

from replaycm.errors import AlignmentError, DataError, NumericError, ParameterError, ParseError
from replaycm.metrics import eer, split_scores
from replaycm.replay_sim import ManifestEntry
from replaycm.scoring import lr_fuse_train, mean_fuse, read_score_file, write_score_file


def labeled(labels: dict) -> list:
    """Protocol entries for {utt_id: label}; the spoofs all carry one attack code."""
    return [ManifestEntry(u, label, "-" if label == "bonafide" else "AA")
            for u, label in labels.items()]


class TestScoreFiles:
    def test_round_trip_to_six_decimals(self, tmp_path, rng):
        scores = {f"u{i}": float(rng.standard_normal() * 5) for i in range(50)}
        path = tmp_path / "scores.txt"
        write_score_file(scores, path)
        back = read_score_file(path)
        assert set(back) == set(scores)
        for u in scores:
            assert back[u] == pytest.approx(scores[u], abs=1e-6)

    def test_round_half_away_formatting(self, tmp_path):
        path = tmp_path / "s.txt"
        write_score_file({"a": -0.0000005, "b": 1.0000005, "c": 0.0}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a -0.000001"
        assert lines[1] == "b 1.000001"
        assert lines[2] == "c 0.000000"

    def test_empty_file_is_empty_set(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_score_file(path) == {}

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 0.5\nu2 not-a-number\n")
        with pytest.raises(ParseError, match=":2:"):
            read_score_file(path)
        path.write_text("u1 0.5 extra\n")
        with pytest.raises(ParseError, match=":1:"):
            read_score_file(path)
        path.write_text("u1 0.5\nu1 0.7\n")
        with pytest.raises(ParseError, match="duplicate"):
            read_score_file(path)

    def test_non_ascii_byte_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"u1 0.5\n\xc3\xa92 0.7\n")
        with pytest.raises(ParseError, match=r"bad.txt:2: non-ASCII byte 0xc3"):
            read_score_file(path)


    @pytest.mark.parametrize("score", [1e22, 1e23, -1.7e308, 1.7976931348623157e308])
    def test_extreme_finite_score_round_trips(self, tmp_path, score):
        # beyond 1e22 the six-decimal quantize needs more than 28 digits
        path = tmp_path / "big.txt"
        write_score_file({"a": score, "b": 0.25}, path)
        assert read_score_file(path) == {"a": score, "b": 0.25}
        assert path.read_text().splitlines()[0] == f"a {Decimal(repr(score)):f}.000000"

    @pytest.mark.parametrize("score", [np.inf, -np.inf, np.nan])
    def test_non_finite_score_writes_no_file(self, tmp_path, score):
        path = tmp_path / "scores.txt"
        with pytest.raises(NumericError, match="'z' is"):
            write_score_file({"a": 0.5, "z": score}, path)
        assert not path.exists()

    def test_a_write_that_fails_midway_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        write_score_file({"a": 0.5}, path)
        before = path.read_bytes()
        # "a" is written before the non-ASCII "\xe9" fails to encode
        with pytest.raises(UnicodeEncodeError):
            write_score_file({"a": 0.25, "\xe9": 0.75}, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scores.txt"]


class TestMeanFuse:
    def test_sum_that_overflows_still_averages(self):
        fused = mean_fuse([{"u": -1.7e308, "v": 1.0}, {"u": -1.5e308, "v": 2.0}])
        assert fused == {"u": -1.6e308, "v": 1.5}

    def test_self_fusion_is_identity(self, rng):
        s = {f"u{i}": float(rng.standard_normal()) for i in range(20)}
        assert mean_fuse([s, s]) == s  # even K: exact
        fused3 = mean_fuse([s, s, s])  # odd K: one rounding of 3s/3
        for u in s:
            assert fused3[u] == pytest.approx(s[u], abs=1e-15)

    def test_self_fusion_identity_at_file_precision(self, tmp_path, rng):
        s = {f"u{i}": float(rng.standard_normal()) for i in range(50)}
        write_score_file(s, tmp_path / "a.txt")
        write_score_file(mean_fuse([s, s, s]), tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_arithmetic(self):
        sets = [{"u": 1.0}, {"u": -1.0}, {"u": 3.0}]
        assert mean_fuse(sets) == {"u": 1.0}

    def test_permutation_invariant(self, rng):
        sets = [{f"u{i}": float(rng.standard_normal()) for i in range(10)} for _ in range(3)]
        a = mean_fuse(sets)
        b = mean_fuse(sets[::-1])
        for u in a:
            assert a[u] == pytest.approx(b[u], abs=1e-15)

    def test_misaligned_sets_listed(self):
        with pytest.raises(AlignmentError, match="u2"):
            mean_fuse([{"u1": 0.0}, {"u1": 0.0, "u2": 1.0}])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_empty_sets_fuse_to_an_empty_set(self, k):
        # an empty (0,) matrix once raised numpy's AxisError
        assert mean_fuse([{}] * k) == {}


class TestLrFuse:
    def test_separable_dev_reaches_zero_eer(self, rng):
        labels = {f"u{i}": ("bonafide" if i < 8 else "spoof") for i in range(20)}
        s1 = {u: (2.0 + 0.1 * i if labels[u] == "bonafide" else -2.0 - 0.1 * i)
              for i, u in enumerate(labels)}
        s2 = {u: float(rng.standard_normal()) for u in labels}
        model = lr_fuse_train([s1, s2], labels)
        fused = model.fuse([s1, s2])
        assert eer(*split_scores(labeled(labels), fused)) == 0.0

    def test_duplicate_system_preserves_ranking(self, rng):
        base = {f"u{i}": float(rng.standard_normal()) for i in range(40)}
        labels = {u: ("bonafide" if s > 0 else "spoof") for u, s in base.items()}
        model = lr_fuse_train([base, base], labels)
        fused = model.fuse([base, base])
        assert sorted(base, key=base.get) == sorted(fused, key=fused.get)

    def test_intercept_only_fit_recovers_class_prior(self):
        zeros = {f"u{i}": 0.0 for i in range(40)}
        labels = {f"u{i}": ("bonafide" if i < 13 else "spoof") for i in range(40)}
        model = lr_fuse_train([zeros, zeros], labels)
        assert np.max(np.abs(model.weights)) < 1e-9
        prior = 13 / 40
        assert model.bias == pytest.approx(np.log(prior / (1 - prior)), abs=1e-6)

    def test_needs_two_systems(self):
        with pytest.raises(ParameterError):
            lr_fuse_train([{"u": 0.0}], {"u": "bonafide"})

    def test_missing_labels_rejected(self):
        with pytest.raises(AlignmentError):
            lr_fuse_train([{"u": 0.0}, {"u": 1.0}], {})

    @pytest.mark.parametrize("label, counts", [("bonafide", "3 bonafide and 0 spoof"),
                                               ("spoof", "0 bonafide and 3 spoof")])
    def test_one_class_dev_is_a_data_error(self, label, counts):
        # one class has no likelihood maximum: three bonafide lines once fitted
        # a bias that scored every utterance 19.202895
        sets = [{f"u{i}": float(i) for i in range(3)}, {f"u{i}": -float(i) for i in range(3)}]
        with pytest.raises(DataError, match=f"got {counts}$"):
            lr_fuse_train(sets, {f"u{i}": label for i in range(3)})

    def test_empty_dev_is_a_data_error(self):
        with pytest.raises(DataError, match="got 0 bonafide and 0 spoof$"):
            lr_fuse_train([{}, {}], {})

    def test_the_checks_run_in_order(self):
        # two systems, then the labels, then both classes
        with pytest.raises(ParameterError, match="at least 2 systems"):
            lr_fuse_train([{}], {})
        with pytest.raises(AlignmentError, match="missing dev labels"):
            lr_fuse_train([{"u": 0.0}, {"u": 1.0}], {"v": "bonafide"})

    def test_a_fitted_model_fuses_empty_sets_to_an_empty_set(self):
        model = lr_fuse_train([{"b": 1.0, "s": -1.0}, {"b": 0.5, "s": 0.0}],
                              {"b": "bonafide", "s": "spoof"})
        assert model.fuse([{}, {}]) == {}


class TestCrossModuleProperties:
    def test_eer_invariant_under_monotone_transform_of_score_file(self, tmp_path, rng):
        scores = {f"u{i}": float(rng.standard_normal()) for i in range(100)}
        labels = {u: ("bonafide" if rng.random() < 0.4 else "spoof") for u in scores}
        if len(set(labels.values())) < 2:
            labels["u0"] = "bonafide"
            labels["u1"] = "spoof"
        base = eer(*split_scores(labeled(labels), scores))
        warped = {u: float(np.tanh(s) * 4 + s**3 * 0.01) for u, s in scores.items()}
        assert eer(*split_scores(labeled(labels), warped)) == pytest.approx(base, abs=1e-12)

    def test_mean_fusing_copies_keeps_eer(self, rng):
        scores = {f"u{i}": float(rng.standard_normal()) for i in range(60)}
        labels = {u: ("bonafide" if i < 20 else "spoof") for i, u in enumerate(scores)}
        fused = mean_fuse([scores, scores, scores])
        base = eer(*split_scores(labeled(labels), scores))
        after = eer(*split_scores(labeled(labels), fused))
        assert after == base
