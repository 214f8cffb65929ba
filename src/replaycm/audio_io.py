"""Mono 16-bit PCM WAV I/O and deterministic test-tone synthesis."""

from __future__ import annotations

import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError, UnsupportedError

# Quantization: write q(x) = clamp(round_half_away(x * 32768), -32768, 32767),
# read x = q / 32768.  Full-scale -1.0 maps to -32768 and back exactly; the
# round trip error is at most 2**-15 per sample.
_SCALE = 32768.0


@dataclass
class Waveform:
    """Mono sample buffer in [-1, 1] plus its sample rate and an id."""

    samples: np.ndarray
    sample_rate: int
    utt_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ParameterError("waveform must be a non-empty 1-D sample buffer")
        if not np.all(np.isfinite(self.samples)):
            raise ParameterError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ParameterError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round is round-half-even; golden files are defined half-away-from-zero
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(samples: np.ndarray) -> np.ndarray:
    """Float samples in [-1, 1] to int16 words."""
    q = _round_half_away(np.asarray(samples, dtype=np.float64) * _SCALE)
    return np.clip(q, -32768, 32767).astype(np.int16)


def dequantize(words: np.ndarray) -> np.ndarray:
    return np.asarray(words, dtype=np.float64) / _SCALE


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file; samples scaled into [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            sample_width = wf.getsampwidth()
            comp = wf.getcomptype()
            sample_rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        raise FormatError(f"malformed WAV file {path}: {exc}") from exc
    except EOFError as exc:
        raise FormatError(f"malformed WAV file {path}: header cut short") from exc
    if comp != "NONE":
        raise UnsupportedError(f"{path}: compressed WAV ({comp}) not supported")
    if n_channels != 1:
        raise UnsupportedError(f"{path}: expected mono, got {n_channels} channels")
    if sample_width != 2:
        raise UnsupportedError(f"{path}: expected 16-bit PCM, got {8 * sample_width}-bit")
    if len(raw) != 2 * n_frames:
        raise FormatError(f"{path}: data chunk cut short ({len(raw)} of {2 * n_frames} bytes)")
    words = np.frombuffer(raw, dtype="<i2")
    if words.size == 0:
        raise FormatError(f"{path}: empty data chunk")
    import os

    utt_id = os.path.splitext(os.path.basename(str(path)))[0]
    return Waveform(dequantize(words), sample_rate, utt_id)


def write_wav(w: Waveform, path) -> None:
    """Write a Waveform as mono 16-bit little-endian PCM."""
    if np.max(np.abs(w.samples)) > 1.0 + 1e-12:
        raise ParameterError("samples exceed [-1, 1]; normalize before writing")
    words = quantize(w.samples)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(w.sample_rate)
        wf.writeframes(words.astype("<i2").tobytes())


def peak_normalize(samples: np.ndarray, peak: float = 0.9) -> np.ndarray:
    peak_in = np.max(np.abs(samples))
    if peak_in == 0.0:
        return samples
    return samples * (peak / peak_in)


def synth_tone_complex(
    f0: float,
    n_harmonics: int,
    duration: float,
    sample_rate: int,
    seed: int,
    amplitude_rolloff: float = 0.7,
    snr_db: float = 40.0,
) -> Waveform:
    """Deterministic harmonic complex with seeded phases and a low noise floor.

    Harmonic k has amplitude k**-amplitude_rolloff and a random phase; a
    Gaussian noise floor is mixed in snr_db below the harmonic part (>= 40 dB).
    With n_harmonics = 0 the output is the pure noise floor.  The result is
    peak-normalized to 0.9.
    """
    if n_harmonics < 0:
        raise ParameterError("n_harmonics must be >= 0")
    if n_harmonics > 0 and f0 * n_harmonics >= sample_rate / 2:
        raise ParameterError(
            f"aliasing: f0*n_harmonics = {f0 * n_harmonics:.1f} Hz >= Nyquist "
            f"{sample_rate / 2:.1f} Hz"
        )
    if snr_db < 40.0:
        raise ParameterError("noise floor must stay >= 40 dB below the harmonics")
    n = int(round(duration * sample_rate))
    if n <= 0:
        raise ParameterError("duration too short for one sample")
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate
    sig = np.zeros(n)
    for k in range(1, n_harmonics + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig += k ** (-amplitude_rolloff) * np.sin(2.0 * np.pi * k * f0 * t + phase)
    noise = rng.standard_normal(n)
    if n_harmonics == 0:
        out = noise
    else:
        sig_rms = np.sqrt(np.mean(sig**2))
        noise_rms = np.sqrt(np.mean(noise**2))
        out = sig + noise * (sig_rms / noise_rms) * 10.0 ** (-snr_db / 20.0)
    return Waveform(peak_normalize(out), sample_rate, f"tone_f{f0:g}_h{n_harmonics}_s{seed}")
