import numpy as np
import pytest

from replaycm.audio_io import Waveform, read_wav, synth_tone_complex
from replaycm.errors import ParameterError, ParseError
from replaycm.features import FrameSpec, stft
from replaycm.replay_sim import (
    ATTACK_CODES,
    QUALITY_PARAMS,
    AttackSpec,
    CorpusManifest,
    ManifestEntry,
    degrade,
    generate_corpus,
    read_protocol,
    write_protocol,
)

SR = 16000


def log_spectral_distance(w1: Waveform, w2: Waveform) -> float:
    """Independent closeness proxy: RMS distance of log power spectra."""
    spec = FrameSpec()
    a = np.log(np.abs(stft(w1, spec)) ** 2 + 1e-10)
    b = np.log(np.abs(stft(w2, spec)) ** 2 + 1e-10)
    return float(np.sqrt(np.mean((a - b) ** 2)))


class TestAttackSpec:
    def test_nine_codes(self):
        assert len(ATTACK_CODES) == 9
        assert ATTACK_CODES[0] == "AA" and ATTACK_CODES[-1] == "CC"

    def test_code_round_trip(self):
        for code in ATTACK_CODES:
            assert AttackSpec.from_code(code).code == code

    def test_rejects_bad_codes(self):
        with pytest.raises(ParameterError):
            AttackSpec.from_code("AD")
        with pytest.raises(ParameterError):
            AttackSpec.from_code("A")
        with pytest.raises(ParameterError):
            AttackSpec("D", "A")


class TestDegrade:
    def test_deterministic(self):
        w = synth_tone_complex(200.0, 10, 0.5, SR, 1)
        a = degrade(w, AttackSpec("B", "B"), 7)
        b = degrade(w, AttackSpec("B", "B"), 7)
        assert np.array_equal(a.samples, b.samples)

    def test_aa_is_closest_to_source(self):
        w = synth_tone_complex(180.0, 20, 1.0, SR, 3)
        dists = {
            code: log_spectral_distance(w, degrade(w, AttackSpec.from_code(code), 42))
            for code in ATTACK_CODES
        }
        assert min(dists, key=dists.get) == "AA"

    def test_monotone_difficulty_ordering(self):
        for seed in range(3):
            w = synth_tone_complex(140.0 + 40 * seed, 15, 1.0, SR, seed)
            d = {
                code: log_spectral_distance(w, degrade(w, AttackSpec.from_code(code), 5))
                for code in ("AA", "AC", "CA", "CC")
            }
            assert d["AA"] < d["AC"]
            assert d["AA"] < d["CA"]
            assert d["AA"] < d["CC"]

    def test_silence_stays_near_noise_floor(self):
        silence = Waveform(np.zeros(SR), SR, "sil")
        for quality in "ABC":
            out = degrade(silence, AttackSpec("A", quality), 3)
            rms = np.sqrt(np.mean(out.samples**2))
            assert rms < QUALITY_PARAMS[quality]["noise_rms"] * 1.1

    def test_peak_capped(self):
        w = synth_tone_complex(200.0, 5, 0.3, SR, 2)
        for code in ATTACK_CODES:
            out = degrade(w, AttackSpec.from_code(code), 11)
            assert np.max(np.abs(out.samples)) <= 0.9 + 1e-12


class TestProtocolFiles:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("u1", "bonafide", "-", ""),
            ManifestEntry("u1_AA", "spoof", "AA", ""),
            ManifestEntry("u1_CC", "spoof", "CC", ""),
        ]
        path = tmp_path / "protocol.txt"
        write_protocol(entries, path)
        back = read_protocol(path)
        assert [(e.utt_id, e.label, e.attack_code) for e in back] == [
            (e.utt_id, e.label, e.attack_code) for e in entries
        ]

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("u1 - bonafide\nu2 ZZ spoof\n")
        with pytest.raises(ParseError, match=":2:"):
            read_protocol(path)
        path.write_text("u1 - bonafide extra-field\n")
        with pytest.raises(ParseError, match=":1:"):
            read_protocol(path)
        path.write_text("u1 AA bonafide\n")
        with pytest.raises(ParseError):
            read_protocol(path)

    def test_non_ascii_byte_is_a_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"u1 - bonafide\n\nu\xff AA spoof\n")
        with pytest.raises(ParseError, match=r"bad.txt:3: non-ASCII byte 0xff"):
            read_protocol(path)

    def test_manifest_invariants(self):
        with pytest.raises(Exception):
            CorpusManifest("train", [ManifestEntry("u", "bonafide", "AA", "")])
        with pytest.raises(Exception):
            CorpusManifest(
                "train",
                [ManifestEntry("u", "bonafide", "-", ""), ManifestEntry("u", "spoof", "AA", "")],
            )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifests = generate_corpus(out, n_sources=5, utt_per_source=2,
                                split_ratios=(0.4, 0.2, 0.4), seed=9,
                                duration=0.3)
    return out, manifests


class TestGenerateCorpus:
    def test_counts_and_ratio(self, corpus):
        _, manifests = corpus
        total_bona = total_spoof = 0
        for split, manifest in manifests.items():
            bona = [e for e in manifest.entries if e.label == "bonafide"]
            spoof = [e for e in manifest.entries if e.label == "spoof"]
            assert len(spoof) == 9 * len(bona)
            counts = {}
            for e in spoof:
                counts[e.attack_code] = counts.get(e.attack_code, 0) + 1
            assert set(counts) == set(ATTACK_CODES)
            assert len(set(counts.values())) == 1  # equal frequency
            total_bona += len(bona)
            total_spoof += len(spoof)
        assert total_bona == 10 and total_spoof == 90

    def test_sources_disjoint_across_splits(self, corpus):
        _, manifests = corpus
        sources = {
            split: {e.utt_id.split("_")[1] for e in m.entries}
            for split, m in manifests.items()
        }
        assert not (sources["train"] & sources["dev"])
        assert not (sources["train"] & sources["eval"])
        assert not (sources["dev"] & sources["eval"])

    def test_protocols_parse_losslessly(self, corpus):
        out, manifests = corpus
        for split, manifest in manifests.items():
            back = read_protocol(out / f"protocol_{split}.txt")
            assert [(e.utt_id, e.label, e.attack_code) for e in back] == [
                (e.utt_id, e.label, e.attack_code) for e in manifest.entries
            ]

    def test_wavs_exist_and_load(self, corpus):
        out, manifests = corpus
        entry = manifests["train"].entries[0]
        w = read_wav(out / "wav" / f"{entry.utt_id}.wav")
        assert w.sample_rate == SR

    def test_collision_rejected(self, corpus):
        out, _ = corpus
        with pytest.raises(FileExistsError):
            generate_corpus(out, n_sources=2, utt_per_source=1, seed=1)

    def test_rerun_is_byte_identical(self, tmp_path):
        kw = dict(n_sources=2, utt_per_source=1, split_ratios=(0.5, 0.0, 0.5),
                  seed=4, duration=0.2)
        generate_corpus(tmp_path / "a", **kw)
        generate_corpus(tmp_path / "b", **kw)
        for name in ("protocol_train.txt", "protocol_eval.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        a_wavs = sorted((tmp_path / "a" / "wav").iterdir())
        b_wavs = sorted((tmp_path / "b" / "wav").iterdir())
        assert [p.name for p in a_wavs] == [p.name for p in b_wavs]
        for pa, pb in zip(a_wavs, b_wavs):
            assert pa.read_bytes() == pb.read_bytes()

    def test_bad_ratios_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            generate_corpus(tmp_path / "x", 4, 1, split_ratios=(0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ParameterError):
            generate_corpus(tmp_path / "y", 0, 1, seed=0)
