import wave

import numpy as np
import pytest

from replaycm.audio_io import (
    Waveform,
    peak_normalize,
    quantize,
    read_wav,
    synth_tone_complex,
    write_wav,
)
from replaycm.errors import FormatError, ParameterError, UnsupportedError


def test_zero_second_file(tmp_path):
    path = tmp_path / "zero.wav"
    write_wav(Waveform(np.zeros(16000), 16000, "z"), path)
    w = read_wav(path)
    assert w.sample_rate == 16000
    assert w.samples.shape == (16000,)
    assert np.all(w.samples == 0.0)
    with wave.open(str(path), "rb") as fh:
        raw = fh.readframes(fh.getnframes())
    assert np.all(np.frombuffer(raw, dtype="<i2") == 0)


def test_quantization_rule():
    assert quantize(np.array([1.0, -1.0, 0.0])).tolist() == [32767, -32768, 0]


def test_round_trip_within_quantization(tmp_path, rng):
    w = Waveform(rng.uniform(-1.0, 1.0, 5000), 16000, "r")
    path = tmp_path / "rt.wav"
    write_wav(w, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0**-15
    assert np.all(np.abs(back.samples) <= 1.0)


def test_sine_peak_preserved(tmp_path):
    sr = 16000
    t = np.arange(sr) / sr
    w = Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t), sr, "sine")
    path = tmp_path / "sine.wav"
    write_wav(w, path)
    peak = np.max(np.abs(read_wav(path).samples))
    assert 0.5 - 2.0**-14 <= peak <= 0.5 + 2.0**-14


def test_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(np.zeros(64, dtype="<i2").tobytes())
    with pytest.raises(UnsupportedError):
        read_wav(path)


def test_rejects_wrong_width(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(8000)
        fh.writeframes(bytes(64))
    with pytest.raises(UnsupportedError):
        read_wav(path)


def test_truncated_file_is_a_format_error(tmp_path):
    full = tmp_path / "full.wav"
    write_wav(Waveform(np.full(100, 0.1), 16000), full)
    blob = full.read_bytes()
    cut = tmp_path / "cut.wav"
    for n in range(len(blob)):  # inside the header, then inside the data chunk
        cut.write_bytes(blob[:n])
        with pytest.raises(FormatError, match="cut.wav"):
            read_wav(cut)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"RIFFxxxxNOTAWAVE" + bytes(32))
    with pytest.raises(FormatError):
        read_wav(path)


def test_waveform_invariants():
    with pytest.raises(ParameterError):
        Waveform(np.array([]), 16000)
    with pytest.raises(ParameterError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ParameterError):
        Waveform(np.zeros(4), 0)


def test_write_rejects_out_of_range(tmp_path):
    with pytest.raises(ParameterError):
        write_wav(Waveform(np.array([1.5, 0.0]), 8000), tmp_path / "x.wav")


def test_synth_deterministic():
    a = synth_tone_complex(200.0, 10, 0.25, 16000, 99)
    b = synth_tone_complex(200.0, 10, 0.25, 16000, 99)
    assert np.array_equal(a.samples, b.samples)
    c = synth_tone_complex(200.0, 10, 0.25, 16000, 100)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_noise_only():
    w = synth_tone_complex(200.0, 0, 0.25, 16000, 7)
    assert np.max(np.abs(w.samples)) == pytest.approx(0.9, abs=1e-12)


def test_synth_harmonic_peaks():
    # FFT peak picking: each harmonic k lands within one bin of 200k Hz
    sr, f0, nh = 16000, 200.0, 10
    w = synth_tone_complex(f0, nh, 1.0, sr, 3)
    mag = np.abs(np.fft.rfft(w.samples))
    bin_hz = sr / w.samples.size
    for k in range(1, nh + 1):
        expected = k * f0 / bin_hz
        lo, hi = int(expected - 8), int(expected + 9)
        local_peak = lo + int(np.argmax(mag[lo:hi]))
        assert abs(local_peak - expected) <= 1.0
        assert mag[local_peak] >= mag[local_peak - 1]
        assert mag[local_peak] >= mag[local_peak + 1]


def test_synth_snr_floor():
    w = synth_tone_complex(250.0, 12, 0.5, 16000, 11)
    # harmonic energy concentrated below 3.1 kHz, noise spread to Nyquist:
    # high band carries only the floor, at least ~40 dB below the total
    spec = np.abs(np.fft.rfft(w.samples)) ** 2
    cut = int(len(spec) * 0.6)
    assert 10 * np.log10(spec[:cut].sum() / spec[cut:].sum()) > 30.0


def test_synth_aliasing_guard():
    with pytest.raises(ParameterError):
        synth_tone_complex(1000.0, 10, 0.1, 16000, 0)


def test_peak_normalize_zero_signal():
    x = np.zeros(8)
    assert np.array_equal(peak_normalize(x), x)
