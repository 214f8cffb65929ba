"""Synthetic replay-attack corpus: degradation chain and corpus generator.

A replayed copy of an utterance passes through (1) a distance stage -- gain
attenuation plus an exponentially decaying reverberation tail, (2) a device
stage -- band-limiting and a soft saturation nonlinearity, and (3) an
additive device noise floor.  Distance classes A/B/C and quality classes
A/B/C each worsen monotonically, so attack code AA (close, perfect device)
stays closest to the bonafide source.  All stage parameters live in
DISTANCE_PARAMS / QUALITY_PARAMS so experiments are auditable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.signal

from .audio_io import Waveform, synth_tone_complex, write_wav
from .errors import DataError, ParameterError, ParseError, ascii_lines

DISTANCE_CLASSES = ("A", "B", "C")
QUALITY_CLASSES = ("A", "B", "C")
ATTACK_CODES = tuple(d + q for d in DISTANCE_CLASSES for q in QUALITY_CLASSES)
BONAFIDE_CODE = "-"

# distance: direct-path gain, reverb decay time constant (s), direct-to-reverb
# ratio (dB); all worsen A -> C
DISTANCE_PARAMS = {
    "A": {"gain": 0.85, "decay_s": 0.09, "drr_db": 20.0},
    "B": {"gain": 0.60, "decay_s": 0.18, "drr_db": 11.0},
    "C": {"gain": 0.40, "decay_s": 0.35, "drr_db": 4.0},
}

# device quality: passband (Hz), saturation drive, noise floor RMS (full scale)
QUALITY_PARAMS = {
    "A": {"low_hz": 50.0, "high_hz": 7800.0, "drive": 0.02, "noise_rms": 2.5e-3},
    "B": {"low_hz": 150.0, "high_hz": 5500.0, "drive": 0.8, "noise_rms": 5e-3},
    "C": {"low_hz": 300.0, "high_hz": 3400.0, "drive": 2.5, "noise_rms": 1.2e-2},
}


@dataclass(frozen=True)
class AttackSpec:
    distance_class: str
    quality_class: str

    def __post_init__(self):
        if self.distance_class not in DISTANCE_CLASSES:
            raise ParameterError(f"unknown distance class {self.distance_class!r}")
        if self.quality_class not in QUALITY_CLASSES:
            raise ParameterError(f"unknown quality class {self.quality_class!r}")

    @property
    def code(self) -> str:
        return self.distance_class + self.quality_class

    @classmethod
    def from_code(cls, code: str) -> "AttackSpec":
        if len(code) != 2:
            raise ParameterError(f"attack code must be two letters, got {code!r}")
        return cls(code[0], code[1])


def _reverb_tail(decay_s: float, drr_db: float, sample_rate: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Impulse response: unit direct path followed by a noise tail whose
    energy sits drr_db below the direct path."""
    n_tail = int(round(3.0 * decay_s * sample_rate))
    t = np.arange(1, n_tail + 1) / sample_rate
    envelope = np.exp(-t / decay_s)
    tail = rng.standard_normal(n_tail) * envelope
    energy = np.sum(tail**2)
    if energy > 0:
        tail *= np.sqrt(10.0 ** (-drr_db / 10.0) / energy)
    h = np.concatenate(([1.0], tail))
    return h


def _bandpass(samples: np.ndarray, low_hz: float, high_hz: float,
              sample_rate: int) -> np.ndarray:
    nyquist = sample_rate / 2.0
    high = min(high_hz, nyquist * 0.999)
    sos = scipy.signal.butter(4, [low_hz / nyquist, high / nyquist],
                              btype="bandpass", output="sos")
    return scipy.signal.sosfilt(sos, samples)


def _saturate(samples: np.ndarray, drive: float) -> np.ndarray:
    if drive <= 0:
        return samples
    return np.tanh(drive * samples) / drive


def degrade(w: Waveform, spec: AttackSpec, seed: int) -> Waveform:
    """Deterministic replay chain; peak is capped at 0.9 (never amplified,
    so degrading silence yields only the device noise floor)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x52504C59]))
    dist = DISTANCE_PARAMS[spec.distance_class]
    qual = QUALITY_PARAMS[spec.quality_class]

    h = _reverb_tail(dist["decay_s"], dist["drr_db"], w.sample_rate, rng)
    x = scipy.signal.fftconvolve(w.samples * dist["gain"], h)[: w.samples.size]

    x = _bandpass(x, qual["low_hz"], qual["high_hz"], w.sample_rate)
    x = _saturate(x, qual["drive"])
    x = x + rng.standard_normal(x.size) * qual["noise_rms"]

    peak = np.max(np.abs(x))
    if peak > 0.9:
        x = x * (0.9 / peak)
    return Waveform(x, w.sample_rate, f"{w.utt_id}_{spec.code}" if w.utt_id else spec.code)


# ---------------------------------------------------------------------------
# corpus generation

SPLITS = ("train", "dev", "eval")


@dataclass
class ManifestEntry:
    utt_id: str
    label: str  # "bonafide" | "spoof"
    attack_code: str  # "-" for bonafide
    wav_path: str


@dataclass
class CorpusManifest:
    split: str
    entries: list

    def __post_init__(self):
        ids = [e.utt_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate utt_ids in {self.split} manifest")
        for e in self.entries:
            if (e.attack_code == BONAFIDE_CODE) != (e.label == "bonafide"):
                raise DataError(
                    f"{e.utt_id}: attack code {e.attack_code!r} inconsistent with label {e.label!r}"
                )


def write_protocol(entries, path) -> None:
    """One utterance per line: ``<utt_id> <attack_code|-> <bonafide|spoof>``."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for e in entries:
            fh.write(f"{e.utt_id} {e.attack_code} {e.label}\n")


def read_protocol(path) -> list:
    entries = []
    for lineno, line in ascii_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        utt_id, code, label = parts
        if label not in ("bonafide", "spoof"):
            raise ParseError(f"{path}:{lineno}: bad label {label!r}")
        if label == "bonafide" and code != BONAFIDE_CODE:
            raise ParseError(f"{path}:{lineno}: bonafide line carries attack code {code!r}")
        if label == "spoof" and code not in ATTACK_CODES:
            raise ParseError(f"{path}:{lineno}: unknown attack code {code!r}")
        entries.append(ManifestEntry(utt_id, label, code, ""))
    return entries


def _split_sources(n_sources: int, split_ratios) -> dict:
    ratios = tuple(float(r) for r in split_ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ParameterError(f"split ratios must be three non-negatives summing to 1, got {ratios}")
    n_train = int(round(n_sources * ratios[0]))
    n_dev = int(round(n_sources * ratios[1]))
    n_train = max(n_train, 1) if ratios[0] > 0 else 0
    n_dev = max(n_dev, 1) if ratios[1] > 0 else 0
    n_eval = n_sources - n_train - n_dev
    if n_eval < (1 if ratios[2] > 0 else 0):
        raise ParameterError(
            f"cannot split {n_sources} sources into ratios {ratios}; eval would get {n_eval}"
        )
    bounds = {
        "train": range(0, n_train),
        "dev": range(n_train, n_train + n_dev),
        "eval": range(n_train + n_dev, n_sources),
    }
    return bounds


def generate_corpus(out_dir, n_sources: int, utt_per_source: int,
                    split_ratios=(0.2, 0.15, 0.65), seed: int = 0,
                    sample_rate: int = 16000, duration: float = 1.0) -> dict:
    """Write WAVs and protocol files for a bonafide + 9-way replayed corpus.

    Every bonafide utterance is degraded once per attack code, giving the
    9:1 spoof:bonafide ratio in every split; source identities are disjoint
    across splits.  Returns {split: CorpusManifest}.
    """
    if n_sources < 1 or utt_per_source < 1:
        raise ParameterError("need at least one source and one utterance per source")
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    if wav_dir.exists() and any(wav_dir.iterdir()):
        raise FileExistsError(f"output wav directory {wav_dir} already populated")
    wav_dir.mkdir(parents=True, exist_ok=True)

    root_rng = np.random.default_rng(seed)
    split_of_source = _split_sources(n_sources, split_ratios)

    # per-source voice character: fundamental, harmonic count, rolloff
    sources = []
    for s in range(n_sources):
        f0 = float(root_rng.uniform(110.0, 280.0))
        max_h = int((sample_rate / 2 - 50.0) / f0)
        n_h = int(root_rng.integers(low=max(3, max_h - 12), high=max_h + 1))
        rolloff = float(root_rng.uniform(0.5, 0.9))
        sources.append((f0, n_h, rolloff))

    manifests = {}
    for split, src_range in split_of_source.items():
        entries = []
        for s in src_range:
            f0, n_h, rolloff = sources[s]
            for u in range(utt_per_source):
                utt_seed = int(np.random.default_rng(
                    np.random.SeedSequence([seed, s, u])).integers(0, 2**31 - 1))
                bona = synth_tone_complex(f0, n_h, duration, sample_rate, utt_seed,
                                          amplitude_rolloff=rolloff)
                utt_id = f"{split}_s{s:03d}_u{u:03d}"
                bona.utt_id = utt_id
                wav_path = wav_dir / f"{utt_id}.wav"
                write_wav(bona, wav_path)
                entries.append(ManifestEntry(utt_id, "bonafide", BONAFIDE_CODE,
                                             str(wav_path)))
                for code in ATTACK_CODES:
                    spoof = degrade(bona, AttackSpec.from_code(code), utt_seed)
                    spoof_id = f"{utt_id}_{code}"
                    spoof.utt_id = spoof_id
                    spoof_path = wav_dir / f"{spoof_id}.wav"
                    write_wav(spoof, spoof_path)
                    entries.append(ManifestEntry(spoof_id, "spoof", code,
                                                 str(spoof_path)))
        manifest = CorpusManifest(split, entries)
        write_protocol(entries, out_dir / f"protocol_{split}.txt")
        manifests[split] = manifest
    return manifests
