import numpy as np
import pytest

from replaycm.errors import AlignmentError, ParameterError, ParseError
from replaycm.metrics import eer
from replaycm.scoring import (
    FusionModel,
    ScoreRecord,
    lr_fuse_train,
    mean_fuse,
    read_score_file,
    write_score_file,
)


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


class TestMeanFuse:
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

    def test_mean_kind_invariant(self):
        with pytest.raises(ParameterError):
            FusionModel("mean", np.array([0.7, 0.3]))
        with pytest.raises(ParameterError):
            FusionModel("mean", np.array([0.5, 0.5]), bias=1.0)


class TestLrFuse:
    def test_separable_dev_reaches_zero_eer(self, rng):
        labels = {f"u{i}": ("bonafide" if i < 8 else "spoof") for i in range(20)}
        s1 = {u: (2.0 + 0.1 * i if labels[u] == "bonafide" else -2.0 - 0.1 * i)
              for i, u in enumerate(labels)}
        s2 = {u: float(rng.standard_normal()) for u in labels}
        model = lr_fuse_train([s1, s2], labels)
        fused = model.fuse([s1, s2])
        records = [ScoreRecord(u, fused[u], labels[u]) for u in labels]
        assert eer(records)[0] == 0.0

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


class TestCrossModuleProperties:
    def test_eer_invariant_under_monotone_transform_of_score_file(self, tmp_path, rng):
        scores = {f"u{i}": float(rng.standard_normal()) for i in range(100)}
        labels = {u: ("bonafide" if rng.random() < 0.4 else "spoof") for u in scores}
        if len(set(labels.values())) < 2:
            labels["u0"] = "bonafide"
            labels["u1"] = "spoof"
        records = [ScoreRecord(u, s, labels[u]) for u, s in scores.items()]
        base = eer(records)[0]
        warped = [ScoreRecord(u, float(np.tanh(s) * 4 + s**3 * 0.01), labels[u])
                  for u, s in scores.items()]
        assert eer(warped)[0] == pytest.approx(base, abs=1e-12)

    def test_mean_fusing_copies_keeps_eer(self, rng):
        scores = {f"u{i}": float(rng.standard_normal()) for i in range(60)}
        labels = {u: ("bonafide" if i < 20 else "spoof") for i, u in enumerate(scores)}
        fused = mean_fuse([scores, scores, scores])
        base = eer([ScoreRecord(u, scores[u], labels[u]) for u in scores])[0]
        after = eer([ScoreRecord(u, fused[u], labels[u]) for u in scores])[0]
        assert after == base
