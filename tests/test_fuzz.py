"""Fuzz tests of the file readers: whatever the bytes, a reader returns a
well-formed value or raises a ReplayCmError, which the CLI prints as one
``error:<category>:`` line."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ckpt_with_config
from replaycm.audio_io import Waveform, read_wav, write_wav
from replaycm.config import DEFAULTS, load_config
from replaycm.errors import ReplayCmError
from replaycm.features import FeatureGram, _read_manifest, read_gram, write_gram
from replaycm.model import ResNet, ResNetConfig, load_checkpoint, save_checkpoint
from replaycm.replay_sim import ATTACK_CODES, read_protocol
from replaycm.scoring import read_score_file

# few examples, so tier-1 stays fast; derandomized, so every run tries the same inputs
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

U32 = st.one_of(st.integers(0, 16), st.integers(0, 2**32 - 1))
# a model config value: mostly near the toy model's, sometimes far past any file
CONFIG_INT = st.one_of(st.integers(-1, 16), st.integers(-2**64, 2**64))
TOY = ResNetConfig(channels=2, fc_width=8, input_bins=8, input_frames=10)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file of each kind, and a path to write inputs to."""
    root = tmp_path_factory.mktemp("fuzz")
    write_gram(FeatureGram("MGD", np.arange(12, dtype=np.float32).reshape(3, 4), "g"), root / "g")
    save_checkpoint(root / "c", ResNet(TOY, seed=0), extra={"kind": "MGD", "objective": "bfl"})
    write_wav(Waveform(np.linspace(-0.5, 0.5, 40), 16000, "w"), root / "w")
    return {
        "gram": (root / "g").read_bytes(),
        "ckpt": (root / "c").read_bytes(),
        "wav": (root / "w").read_bytes(),
        "scores": b"b1 0.250000\ns1 -1.500000\n",
        "protocol": b"b1 - bonafide\nb1_AA AA spoof\nb1_CC CC spoof\n",
        "manifest": b"b1 b1.fgram\nb1_AA b1_AA.fgram\n",
        "path": root / "input",
    }


def _edit(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out)


@st.composite
def damaged(draw, blob: bytes) -> bytes:
    """``blob`` cut short, or with a few bytes overwritten."""
    if draw(st.booleans()):
        return blob[: draw(st.integers(0, len(blob) - 1))]
    edits = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)
    return _edit(blob, draw(edits))


def _text_lines(fields) -> st.SearchStrategy:
    return st.lists(fields.map(" ".join), max_size=4).map(
        lambda lines: "".join(f"{line}\n" for line in lines).encode("ascii"))


SCORE_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "NaN", "1e400", "-1e400", "1e-400", "1_0", "0x1"]),
    st.text(alphabet="0123456789.eE+-_infa", max_size=8),
)
UTT_IDS = st.sampled_from(["b1", "s1", "b1_AA"])


def _read(reader, path, data: bytes):
    path.write_bytes(data)
    try:
        return reader(path)
    except ReplayCmError:
        return None


@FUZZ
@given(st.data())
def test_read_score_file_gives_finite_scores_or_an_error(valid, data):
    blob = data.draw(st.one_of(
        st.binary(max_size=64),
        _text_lines(st.tuples(UTT_IDS, SCORE_TOKENS)),
        damaged(valid["scores"]),
    ))
    scores = _read(read_score_file, valid["path"], blob)
    if scores is not None:
        assert all(isinstance(s, float) and math.isfinite(s) for s in scores.values())


@FUZZ
@given(st.data())
def test_read_protocol_gives_consistent_entries_or_an_error(valid, data):
    codes = st.sampled_from(["-", "ZZ", "A", *ATTACK_CODES])
    blob = data.draw(st.one_of(
        st.binary(max_size=64),
        _text_lines(st.tuples(UTT_IDS, codes, st.sampled_from(["bonafide", "spoof", "x"]))),
        damaged(valid["protocol"]),
    ))
    entries = _read(read_protocol, valid["path"], blob)
    for e in entries or []:
        assert (e.label, e.attack_code == "-") in (("bonafide", True), ("spoof", False))
        assert e.attack_code == "-" or e.attack_code in ATTACK_CODES


@FUZZ
@given(st.data())
def test_read_manifest_gives_one_entry_per_line_or_an_error(valid, data):
    names = st.sampled_from(["b1.fgram", "s1.fgram", "a b.fgram", ""])
    blob = data.draw(st.one_of(
        st.binary(max_size=64),
        _text_lines(st.tuples(UTT_IDS, names)),
        damaged(valid["manifest"]),
    ))
    entries = _read(_read_manifest, valid["path"], blob)
    if entries is not None:
        # no line dropped, none overwritten by a later one
        assert len(entries) == sum(1 for raw in blob.splitlines() if raw.decode().strip())
        assert all(utt_id and len(utt_id.split()) == 1 and rel for utt_id, rel in entries.items())


def _gram_header(magic, version, kind, n_bins, n_frames, payload) -> bytes:
    return struct.pack("<4sHBII", magic, version, kind, n_bins, n_frames) + payload


@FUZZ
@given(st.data())
def test_read_gram_gives_a_finite_gram_or_an_error(valid, data):
    blob = data.draw(st.one_of(
        st.binary(max_size=64),
        st.builds(_gram_header, st.sampled_from([b"FGRM", b"RCMC"]),
                  st.one_of(st.just(1), st.integers(0, 2**16 - 1)), st.integers(0, 255),
                  U32, U32, st.binary(max_size=64)),
        damaged(valid["gram"]),
    ))
    gram = _read(read_gram, valid["path"], blob)
    if gram is not None:
        assert gram.data.ndim == 2 and np.all(np.isfinite(gram.data))


def _ckpt_header(blob: bytes, magic, version, header_len) -> bytes:
    return struct.pack("<4sHI", magic, version, header_len) + blob[10:]


@FUZZ
@given(st.data())
def test_load_checkpoint_gives_a_model_or_an_error(valid, data):
    blob = valid["ckpt"]
    header_end = 10 + int.from_bytes(blob[6:10], "little")
    blob = data.draw(st.one_of(
        st.binary(max_size=64),
        st.builds(_ckpt_header, st.just(blob), st.sampled_from([b"RCMC", b"FGRM"]),
                  st.one_of(st.just(2), st.integers(0, 2**16 - 1)), U32),
        st.fixed_dictionaries({}, optional={
            "channels": CONFIG_INT, "fc_width": CONFIG_INT,
            "block_counts": st.lists(CONFIG_INT, max_size=5),
        }).map(lambda config: ckpt_with_config(blob, **config)),
        damaged(blob),
        damaged(blob[header_end:]).map(lambda arrays: blob[:header_end] + arrays),
    ))
    loaded = _read(load_checkpoint, valid["path"], blob)
    if loaded is not None:
        assert isinstance(loaded[0], ResNet) and isinstance(loaded[1], dict)


def _wav_header(riff_size, fmt_size, fmt_tag, channels, rate, block_align, bits, data_size,
                payload) -> bytes:
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", riff_size, b"WAVE", b"fmt ", fmt_size,
                       fmt_tag, channels, rate, rate * block_align % 2**32, block_align, bits,
                       b"data", data_size) + payload


@FUZZ
@given(st.data())
def test_read_wav_gives_a_waveform_or_an_error(valid, data):
    u16 = st.one_of(st.integers(0, 4), st.integers(0, 2**16 - 1))
    blob = data.draw(st.one_of(
        st.binary(max_size=64),
        st.builds(_wav_header, U32, U32, u16, u16, U32, u16, u16, U32, st.binary(max_size=64)),
        damaged(valid["wav"]),
    ))
    w = _read(read_wav, valid["path"], blob)
    if w is not None:
        assert w.samples.ndim == 1 and w.samples.size > 0 and w.sample_rate >= 1
        assert np.all(np.abs(w.samples) <= 1.0)


CONFIG_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-2**40, 2**40).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "auto", "hann", "1,2", "3,4,6,3", "%", ""]),
    st.text(alphabet="0123456789.eE+-_infa, ", max_size=8),
)


@st.composite
def config_text(draw) -> bytes:
    """INI text over the real sections and keys, a few unknown ones and [DEFAULT]."""
    all_keys = sorted({k for v in DEFAULTS.values() for k in v})
    lines = []
    for section in draw(st.lists(st.sampled_from([*DEFAULTS, "DEFAULT", "bogus"]), max_size=3)):
        # mostly the section's own keys, so that values get coerced
        keys = st.sampled_from([*DEFAULTS.get(section, all_keys), "bogus"])
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in draw(st.lists(st.tuples(keys, CONFIG_VALUES),
                                                          max_size=3))]
    return "".join(f"{line}\n" for line in lines).encode("ascii")


@FUZZ
@given(st.data())
def test_load_config_gives_finite_values_or_an_error(valid, data):
    blob = data.draw(st.one_of(st.binary(max_size=64), config_text()))
    cfg = _read(load_config, valid["path"], blob)
    if cfg is not None:
        assert cfg.keys() == DEFAULTS.keys()
        for section, values in cfg.items():
            assert values.keys() == DEFAULTS[section].keys()
            for key, value in values.items():
                assert type(value) is type(DEFAULTS[section][key])
                assert not isinstance(value, float) or math.isfinite(value)
