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

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .audio_io import PEAK, Waveform, synth_tone_complex, write_wav
from .errors import ParameterError, ParseError, ascii_lines, atomic_open

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

# an attack code is a distance class followed by a quality class: "AA" .. "CC"
ATTACK_CODES = tuple(d + q for d in DISTANCE_PARAMS for q in QUALITY_PARAMS)
BONAFIDE_CODE = "-"


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


@lru_cache(maxsize=16)
def _bandpass_design(quality: str, sample_rate: int) -> tuple:
    """Poles, gain and tail length of the device stage's order-4 Butterworth
    bandpass, designed as SciPy's ``butter(4, ..., "bandpass")`` designs it.
    The tail is the sample count after which the impulse response falls
    below 1e-17, set by the largest pole radius."""
    qual = QUALITY_PARAMS[quality]
    nyquist = sample_rate / 2.0
    edges = np.array([qual["low_hz"], min(qual["high_hz"], nyquist * 0.999)]) / nyquist
    low, high = 4.0 * np.tan(np.pi * edges / 2.0)  # band edges prewarped for fs = 2
    # the analog lowpass prototype's poles, moved to the band
    proto = -np.exp(1j * np.pi * np.arange(-3, 4, 2) / 8.0) * ((high - low) / 2.0)
    root = np.sqrt(proto**2 - low * high)
    analog = np.concatenate((proto + root, proto - root))
    # bilinear transform s -> z = (4 + s) / (4 - s): the 4 analog zeros at
    # s = 0 go to z = 1, the 4 at infinity to z = -1
    poles = (4.0 + analog) / (4.0 - analog)
    gain = (high - low) ** 4 * np.real(4.0**4 / np.prod(4.0 - analog))
    tail = int(np.ceil(np.log(1e-17) / np.log(np.max(np.abs(poles)))))
    return poles, gain, tail


@lru_cache(maxsize=16)
def _bandpass_response(quality: str, sample_rate: int, n_fft: int) -> np.ndarray:
    """The bandpass of ``_bandpass_design`` on the rfft grid of n_fft points.
    At z = exp(i omega), gain (z - 1)^4 (z + 1)^4 / prod(z - p) equals
    gain 16 sin(omega)^4 z^-4 / prod(1 - p / z), which stays accurate next to
    the zeros."""
    poles, gain, _ = _bandpass_design(quality, sample_rate)
    omega = 2.0 * np.pi * np.arange(n_fft // 2 + 1) / n_fft
    z_inv = np.exp(-1j * omega)
    response = gain * 16.0 * np.sin(omega) ** 4 * z_inv**4
    for p in poles:
        response /= 1.0 - p * z_inv
    response.flags.writeable = False  # one array serves every caller
    return response


def _saturate(samples: np.ndarray, drive: float) -> np.ndarray:
    if drive <= 0:
        return samples
    return np.tanh(drive * samples) / drive


def degrade(w: Waveform, code: str, seed: int) -> Waveform:
    """Deterministic replay chain for attack ``code`` (distance class, then
    quality class); peak is capped at PEAK (never amplified, so degrading
    silence yields only the device noise floor)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x52504C59]))
    dist = DISTANCE_PARAMS[code[0]]
    qual = QUALITY_PARAMS[code[1]]

    # reverberation, then the device bandpass: both causal, so the first n
    # samples of one circular product are their cascade as long as the
    # transform also holds h and the bandpass tail
    h = _reverb_tail(dist["decay_s"], dist["drr_db"], w.sample_rate, rng)
    n = w.samples.size
    _, _, tail = _bandpass_design(code[1], w.sample_rate)
    n_fft = 1 << (n + h.size + tail - 1).bit_length()  # the next power of two
    spectrum = (np.fft.rfft(w.samples * dist["gain"], n_fft) * np.fft.rfft(h, n_fft)
                * _bandpass_response(code[1], w.sample_rate, n_fft))
    x = np.fft.irfft(spectrum, n_fft)[:n]
    x = _saturate(x, qual["drive"])
    x = x + rng.standard_normal(x.size) * qual["noise_rms"]

    peak = np.max(np.abs(x))
    if peak > PEAK:
        x = x * (PEAK / peak)
    return Waveform(x, w.sample_rate, f"{w.utt_id}_{code}")


# ---------------------------------------------------------------------------
# corpus generation

SPLITS = ("train", "dev", "eval")
# the share of sources in each split, in SPLITS order
SPLIT_RATIOS = (0.2, 0.15, 0.65)
UTT_DURATION_S = 1.0

# each source's fundamental is drawn from F0_RANGE_HZ and gets at least
# MIN_HARMONICS harmonics below Nyquist - HARMONIC_MARGIN_HZ, which sets the
# lowest sample rate a corpus can be generated at
F0_RANGE_HZ = (110.0, 280.0)
MIN_HARMONICS = 3
HARMONIC_MARGIN_HZ = 50.0
MIN_SAMPLE_RATE = int(2 * (MIN_HARMONICS * F0_RANGE_HZ[1] + HARMONIC_MARGIN_HZ))  # 1780 Hz


@dataclass
class ManifestEntry:
    utt_id: str
    label: str  # "bonafide" | "spoof"
    attack_code: str  # "-" for bonafide


def write_protocol(entries, path) -> None:
    """One utterance per line: ``<utt_id> <attack_code|-> <bonafide|spoof>``."""
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        for e in entries:
            fh.write(f"{e.utt_id} {e.attack_code} {e.label}\n")


def read_protocol(path) -> list:
    entries = []
    seen = set()
    for lineno, line in ascii_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        utt_id, code, label = parts
        if "/" in utt_id or "\\" in utt_id:  # file names are built from it
            raise ParseError(f"{path}:{lineno}: utt_id {utt_id!r} contains a path separator")
        if utt_id in seen:
            raise ParseError(f"{path}:{lineno}: duplicate utt_id {utt_id!r}")
        seen.add(utt_id)
        if label not in ("bonafide", "spoof"):
            raise ParseError(f"{path}:{lineno}: bad label {label!r}")
        if label == "bonafide" and code != BONAFIDE_CODE:
            raise ParseError(f"{path}:{lineno}: bonafide line carries attack code {code!r}")
        if label == "spoof" and code not in ATTACK_CODES:
            raise ParseError(f"{path}:{lineno}: unknown attack code {code!r}")
        entries.append(ManifestEntry(utt_id, label, code))
    return entries


def _split_sources(n_sources: int) -> dict:
    # every split gets at least one source
    n_train, n_dev = (max(int(round(n_sources * r)), 1) for r in SPLIT_RATIOS[:2])
    n_eval = n_sources - n_train - n_dev
    if n_eval < 1:
        raise ParameterError(
            f"cannot split {n_sources} sources into ratios {SPLIT_RATIOS}; eval would get {n_eval}"
        )
    bounds = {
        "train": range(0, n_train),
        "dev": range(n_train, n_train + n_dev),
        "eval": range(n_train + n_dev, n_sources),
    }
    return bounds


def generate_corpus(out_dir, n_sources: int, utt_per_source: int, seed: int,
                    sample_rate: int = 16000) -> dict:
    """Write WAVs and protocol files for a bonafide + 9-way replayed corpus.

    Every bonafide utterance is degraded once per attack code, giving the
    9:1 spoof:bonafide ratio in every split; source identities are disjoint
    across splits.  Returns {split: [ManifestEntry]}.
    """
    if n_sources < 1 or utt_per_source < 1:
        raise ParameterError("need at least one source and one utterance per source")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if sample_rate < MIN_SAMPLE_RATE:
        raise ParameterError(f"sample_rate {sample_rate} Hz is below {MIN_SAMPLE_RATE} Hz, "
                             f"the lowest at which every source gets {MIN_HARMONICS} harmonics")
    split_of_source = _split_sources(n_sources)
    out_dir = Path(out_dir)
    wav_dir = out_dir / "wav"
    if wav_dir.exists() and any(wav_dir.iterdir()):
        raise FileExistsError(f"output wav directory {wav_dir} already populated")
    wav_dir.mkdir(parents=True, exist_ok=True)

    root_rng = np.random.default_rng(seed)

    # per-source voice character: fundamental, harmonic count, rolloff
    sources = []
    for s in range(n_sources):
        f0 = float(root_rng.uniform(*F0_RANGE_HZ))
        max_h = int((sample_rate / 2 - HARMONIC_MARGIN_HZ) / f0)
        n_h = int(root_rng.integers(low=max(MIN_HARMONICS, max_h - 12), high=max_h + 1))
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
                bona = synth_tone_complex(f0, n_h, UTT_DURATION_S, sample_rate, utt_seed,
                                          rolloff)
                utt_id = f"{split}_s{s:03d}_u{u:03d}"
                bona.utt_id = utt_id
                write_wav(bona, wav_dir / f"{utt_id}.wav")
                entries.append(ManifestEntry(utt_id, "bonafide", BONAFIDE_CODE))
                for code in ATTACK_CODES:
                    spoof = degrade(bona, code, utt_seed)  # named <utt_id>_<code>
                    write_wav(spoof, wav_dir / f"{spoof.utt_id}.wav")
                    entries.append(ManifestEntry(spoof.utt_id, "spoof", code))
        write_protocol(entries, out_dir / f"protocol_{split}.txt")
        manifests[split] = entries
    return manifests
