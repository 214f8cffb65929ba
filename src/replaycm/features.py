"""Time-frequency front-ends: STFT-gram, GD/MGD-gram and CQT-gram.

All grams are shaped to exactly 500 frames (truncate long inputs, cyclically
repeat short ones) so the classifier always sees a fixed-size matrix: column
j reads frame j mod n_frames.  A gram function keeps every ``bin_stride``-th
bin and every ``frame_stride``-th column of that matrix.  STFT, GD and MGD
transform only the distinct frames the kept columns read, through one path,
``_gram_spectra``; GD and MGD share ``_group_delay``, MGD over the cepstrally
smoothed magnitude and GD over the magnitude itself.  The CQT computes every
frame and takes the kept columns afterwards.  Every front-end ends in
``_fixed_gram``: its kept-frame values are cast to float32, the precision of
a gram in memory and on disk, before the kept columns are taken, and the
``FeatureGram`` it builds checks that every cell is finite.  ``frontend``
binds a front-end to its config sections and strides, for ``extract``.

A feature directory holds one gram file per utterance and a manifest,
``features.manifest``, of ``<utt_id> <file name>`` lines;
``write_feature_manifest`` writes it and ``FeatureStore`` reads it.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import Waveform
from .errors import (DataError, FormatError, InternalError, ParameterError, ShapeError,
                     ascii_lines, atomic_open)

N_FRAMES_FIXED = 500
LOG_EPS = 1e-10
MAG_FLOOR = 1e-10

KIND_CODES = {"STFT": 0, "GD": 1, "MGD": 2, "CQT": 3}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}
# the analysis windows that [stft] window may name
WINDOWS = {"hamming": np.hamming, "hann": np.hanning, "rect": np.ones}


@dataclass
class FrameSpec:
    frame_len: int
    hop: int
    window: str
    n_fft: int

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len <= self.n_fft):
            raise ParameterError(
                f"need 0 < hop <= frame_len <= n_fft, got "
                f"hop={self.hop} frame_len={self.frame_len} n_fft={self.n_fft}"
            )
        if self.window not in WINDOWS:
            raise ParameterError(f"unknown window {self.window!r}; expected hamming, hann or rect")

    @classmethod
    def from_ms(cls, sample_rate: int, frame_ms: float = 25.0, hop_ms: float = 10.0,
                window: str = "hamming", n_fft: int = 1024) -> "FrameSpec":
        return cls(int(round(frame_ms * sample_rate / 1000.0)),
                   int(round(hop_ms * sample_rate / 1000.0)), window, n_fft)


@dataclass
class MgdParams:
    rho: float = 0.2
    lam: float = 0.7
    lifter_len: int = 30

    def __post_init__(self):
        if not (0 < self.rho <= 1.0):
            raise ParameterError(f"rho must lie in (0, 1], got {self.rho}")
        if not (0 < self.lam <= 1.0):
            raise ParameterError(f"lambda must lie in (0, 1], got {self.lam}")
        if self.lifter_len < 1:
            raise ParameterError(f"lifter_len must be >= 1, got {self.lifter_len}")


@dataclass
class FeatureGram:
    kind: str
    data: np.ndarray
    utt_id: str

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ParameterError(f"unknown feature kind {self.kind!r}")
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ParameterError(f"gram must be 2-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise InternalError(f"non-finite cells in {self.kind} gram for {self.utt_id!r}")


def _fixed_columns(n_frames: int, frame_stride: int) -> np.ndarray:
    """The frame that each kept column of the fixed gram reads."""
    return np.arange(0, N_FRAMES_FIXED, frame_stride) % n_frames


def _fixed_gram(kind: str, values: np.ndarray, cols: np.ndarray, utt_id: str) -> FeatureGram:
    """The gram whose column j is column ``cols[j]`` of the kept-frame
    ``values``, cast to float32 once before the columns are taken, so the
    repeated columns are built at the precision the file holds."""
    return FeatureGram(kind, values.astype(np.float32)[:, cols], utt_id)


def _gram_spectra(w: Waveform, spec: FrameSpec, frame_stride: int, ramped: bool = False):
    """One-sided spectra, each (n_fft/2 + 1, n_kept), of the distinct windowed
    frames that the fixed gram's kept columns read, and each kept column's
    index among them: ((X,), cols) or, if ``ramped``, ((X, Y), cols) with Y
    the spectrum of the index-ramped windowed frames.  Frame t covers samples
    [t*hop, t*hop + frame_len)."""
    if w.samples.size < spec.frame_len:
        raise ParameterError(f"input of {w.samples.size} samples too short for one "
                             f"{spec.frame_len}-sample frame")
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, spec.frame_len)[:: spec.hop]
    kept, cols = np.unique(_fixed_columns(frames.shape[0], frame_stride), return_inverse=True)
    frames = frames[kept]
    win = WINDOWS[spec.window](spec.frame_len)
    # both weighted stacks in one buffer, so one rfft serves X and Y
    weighted = np.empty((2 if ramped else 1, *frames.shape))
    np.multiply(frames, win, out=weighted[0])
    if ramped:
        np.multiply(frames, np.arange(spec.frame_len), out=weighted[1])
        weighted[1] *= win
    return tuple(np.fft.rfft(weighted, n=spec.n_fft, axis=2).transpose(0, 2, 1)), cols


def stft_gram(w: Waveform, spec: FrameSpec, bin_stride: int = 1,
              frame_stride: int = 1) -> FeatureGram:
    """Log-power spectrogram: log(|X|^2 + eps), fixed to 500 frames."""
    (x_spec,), cols = _gram_spectra(w, spec, frame_stride)
    mag2 = np.abs(x_spec[::bin_stride]) ** 2
    return _fixed_gram("STFT", np.log(mag2 + LOG_EPS), cols, w.utt_id)


@functools.lru_cache(maxsize=8)
def _dct_basis(n_bins: int, lifter_len: int) -> np.ndarray:
    """The first lifter_len rows of the orthonormal DCT-II matrix of size n_bins
    (Ahmed, Natarajan & Rao, IEEE Trans. Computers 1974), read-only, since
    every caller shares it."""
    k = np.arange(lifter_len)[:, None]
    basis = np.sqrt(2.0 / n_bins) * np.cos(np.pi * k * (2 * np.arange(n_bins) + 1) / (2 * n_bins))
    basis[0] /= np.sqrt(2.0)
    basis.flags.writeable = False
    return basis


def cepstral_smooth(mag: np.ndarray, lifter_len: int) -> np.ndarray:
    """Spectral envelope: keep the first lifter_len cepstral coefficients,
    exp(B.T @ (B @ log(mag))) with B the first lifter_len rows of the
    orthonormal DCT-II matrix.

    Works on one spectrum (n_bins,) or a stack (n_bins, n_frames); output is
    strictly positive.  lifter_len must lie in [1, n_bins]: ``MgdParams``
    checks that it is at least 1, ``mgd_gram`` that it is below the bin
    count, and this function that it is at most the bin count.
    """
    mag = np.maximum(np.asarray(mag, dtype=np.float64), MAG_FLOOR)
    if lifter_len > mag.shape[0]:  # a DCT row past the bins is no cepstral coefficient
        raise ParameterError(f"lifter_len {lifter_len} exceeds the {mag.shape[0]} bins")
    basis = _dct_basis(mag.shape[0], lifter_len)
    smooth = basis.T @ (basis @ np.log(mag, out=mag))
    return np.exp(smooth, out=smooth)


def _group_delay(x_spec: np.ndarray, y_spec: np.ndarray, smooth: np.ndarray, rho: float,
                 lam: float) -> np.ndarray:
    """Group delay of the spectra X and Y over the magnitude S, all three on
    the same bins: tau' = (X_R Y_R + X_I Y_I) / S^(2 lambda), output
    sign(tau') |tau'|^rho.  X is the windowed-frame spectrum and Y the
    spectrum of the index-ramped frame.  MGD passes the cepstrally smoothed
    magnitude of X as S; GD passes |X| itself with rho = lambda = 1.  The
    ``FeatureGram`` the caller builds checks that every value is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x_spec.real * y_spec.real + x_spec.imag * y_spec.imag
        tau_raw = cross / np.power(smooth, 2.0 * lam)
        return np.sign(tau_raw) * np.power(np.abs(tau_raw), rho)


def mgd_gram(w: Waveform, spec: FrameSpec, p: MgdParams, bin_stride: int = 1,
             frame_stride: int = 1) -> FeatureGram:
    """Modified group-delay gram over the cepstrally smoothed magnitude.  A
    lifter as long as the spectrum keeps every cepstral coefficient and
    smooths nothing, so lifter_len must be below the bin count."""
    n_bins = spec.n_fft // 2 + 1
    if p.lifter_len >= n_bins:
        raise ParameterError(f"mgd lifter_len must be below the {n_bins} bins of n_fft "
                             f"{spec.n_fft}, got {p.lifter_len}")
    (x_spec, y_spec), cols = _gram_spectra(w, spec, frame_stride, ramped=True)
    smooth = cepstral_smooth(np.abs(x_spec), p.lifter_len)  # reads every bin
    tau = _group_delay(x_spec[::bin_stride], y_spec[::bin_stride], smooth[::bin_stride],
                       p.rho, p.lam)
    return _fixed_gram("MGD", tau, cols, w.utt_id)


def gd_gram(w: Waveform, spec: FrameSpec, bin_stride: int = 1,
            frame_stride: int = 1) -> FeatureGram:
    """Group-delay gram (X_R Y_R + X_I Y_I) / |X|^2 per frame: the unsmoothed
    ratio, with |X| floored at MAG_FLOOR."""
    (x_spec, y_spec), cols = _gram_spectra(w, spec, frame_stride, ramped=True)
    x_spec, y_spec = x_spec[::bin_stride], y_spec[::bin_stride]
    tau = _group_delay(x_spec, y_spec, np.maximum(np.abs(x_spec), MAG_FLOOR), 1.0, 1.0)
    return _fixed_gram("GD", tau, cols, w.utt_id)


# ---------------------------------------------------------------------------
# constant-Q transform

ANCHOR_FMIN_HZ = 32.7
# the full-Q window of the lowest bins would exceed typical utterance lengths
MAX_WINDOW_S = 0.5
# the lowest octaves run at no less than 1/2**MAX_HALVINGS of the sample rate
MAX_HALVINGS = 7
# an octave's low-pass cutoff sits at least this many bandwidths of its top
# bin above that bin, where the atoms' sidelobes are small
GUARD_BINS = 64


def cqt_fmin(sample_rate: int, n_octaves: int) -> float:
    """Lowest center frequency: 32.7 Hz when n_octaves fit under Nyquist,
    otherwise Nyquist / 2**n_octaves so the top octave ends at Nyquist."""
    if n_octaves > 1023:  # 2.0**1024 overflows a float
        raise ParameterError(f"cqt n_octaves must be at most 1023, got {n_octaves}")
    nyquist = sample_rate / 2.0
    if ANCHOR_FMIN_HZ * 2.0**n_octaves <= nyquist:
        return ANCHOR_FMIN_HZ
    return nyquist / 2.0**n_octaves


def cqt_center_frequencies(fmin: float, n_octaves: int, bins_per_octave: int) -> np.ndarray:
    k = np.arange(n_octaves * bins_per_octave)
    return fmin * 2.0 ** (k / bins_per_octave)


class CqtKernel:
    """Multi-rate constant-Q transform (Schörkhuber & Klapuri, SMC 2010).

    Bin k correlates the signal with a Hamming-windowed complex exponential
    of Q periods at f_k, N_k = round(Q * sr / f_k) samples long, normalized
    to unit window sum.  Window lengths are capped at MAX_WINDOW_S, which
    widens the response of the lowest bins without moving their centers.

    Octave o runs at sr / d_o.  d_o is the largest power of 2 that divides
    hop, is at most 2**MAX_HALVINGS, and keeps the cutoff sr / (2 d_o) at
    least GUARD_BINS bandwidths above the octave.  The octave's kernel is
    its conjugate atoms sampled every d_o samples, one dense
    (2 half + 1, 2 bins_per_octave) array: their real parts, then their
    imaginary parts.  The guard keeps the energy that the cutoff removes,
    and the atoms' sidelobes that sampling folds back, far from the octave.
    """

    def __init__(self, sample_rate: int, n_octaves: int, bins_per_octave: int, hop: int):
        fmin = cqt_fmin(sample_rate, n_octaves)
        self.freqs = cqt_center_frequencies(fmin, n_octaves, bins_per_octave)
        # Q = f_k / (f_{k+1} - f_k), the same for every bin
        self.q_factor = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
        cap = max(int(round(MAX_WINDOW_S * sample_rate)), 32)
        with np.errstate(over="ignore"):  # clipped in float, so an inf length is the cap
            lengths = np.round(self.q_factor * sample_rate / self.freqs)
        self.lengths = np.clip(lengths, 2, cap).astype(int)
        self.hop = hop
        # the largest power of 2 that divides hop, at most 2**MAX_HALVINGS
        self.max_decimation = min(hop & -hop, 2**MAX_HALVINGS)
        self.octaves = []  # (d_o, kernel) per octave
        for o in range(n_octaves):
            band = slice(o * bins_per_octave, (o + 1) * bins_per_octave)
            top = fmin * 2.0 ** (o + 1) * (1.0 + GUARD_BINS / self.q_factor)
            d = 1
            while 2 * d <= self.max_decimation and sample_rate / (4 * d) >= top:
                d *= 2
            n = self.lengths[band]
            edge = (n - 1) / 2.0
            # centered half a sample (even N_k) or one sample (odd N_k) before
            # t*hop, where the single-kernel path's zero-padded FFT frames put them
            center = np.where(n % 2, -1.0, -0.5)
            half = (n.max() + 1) // 2 // d
            tau = d * np.arange(-half, half + 1.0)[:, None] - center  # from each window's center
            win = np.where(np.abs(tau) <= edge, 0.54 + 0.46 * np.cos(np.pi * tau / edge), 0.0)
            atoms = (win * np.exp(-2j * np.pi * self.freqs[band] * tau / sample_rate)
                     / win.sum(axis=0))
            self.octaves.append((d, np.concatenate([atoms.real, atoms.imag], axis=1)))
        # how far a window reaches from its center, in samples at sample_rate
        self.reach = max(d * (kernel.shape[0] // 2) for d, kernel in self.octaves)

    def transform(self, samples: np.ndarray) -> np.ndarray:
        """Magnitude CQT of every frame, shape (n_bins, n_frames) with
        n_frames = max(samples.size // hop, 1); frame t centered on t*hop.

        The utterance is zero-padded to a period that no window reaches
        across.  Octave o reads that period at sr / d_o: its spectrum cut at
        the octave's cutoff and inverted at 1/d_o the length.
        """
        n_frames = max(samples.size // self.hop, 1)
        step = self.max_decimation
        padded = np.zeros(-(-(samples.size + 2 * self.reach) // step) * step)
        padded[: samples.size] = samples
        spectrum = np.fft.rfft(padded)
        signals = {1: padded}
        mags = []
        for d, kernel in self.octaves:
            if d not in signals:
                signals[d] = np.fft.irfft(spectrum[: padded.size // (2 * d) + 1],
                                          n=padded.size // d) / d
            half = kernel.shape[0] // 2
            # frame t holds decimated samples t*hop/d - half .. t*hop/d + half,
            # read round the period
            ring = np.roll(signals[d], half)
            windows = np.lib.stride_tricks.sliding_window_view(ring, kernel.shape[0])
            prod = windows[:: self.hop // d][:n_frames] @ kernel
            n_bins = kernel.shape[1] // 2
            mags.append(np.hypot(prod[:, :n_bins], prod[:, n_bins:]).T)
        return np.concatenate(mags)


_KERNEL_CACHE: dict = {}
# held while a kernel is built, so --jobs threads share one build per process
_KERNEL_LOCK = threading.Lock()


def _cached_kernel(sample_rate: int, n_octaves: int, bins_per_octave: int,
                   hop: int) -> CqtKernel:
    key = (sample_rate, n_octaves, bins_per_octave, hop)
    with _KERNEL_LOCK:
        if key not in _KERNEL_CACHE:
            _KERNEL_CACHE[key] = CqtKernel(*key)
        return _KERNEL_CACHE[key]


def cqt_gram(w: Waveform, hop: int = 128, n_octaves: int = 9, bins_per_octave: int = 96,
             bin_stride: int = 1, frame_stride: int = 1) -> FeatureGram:
    """Log-compressed constant-Q magnitude gram, fixed to 500 frames."""
    if min(hop, n_octaves, bins_per_octave) < 1:
        raise ParameterError(f"cqt hop, n_octaves and bins_per_octave must be >= 1, got "
                             f"{hop}, {n_octaves} and {bins_per_octave}")
    if w.samples.size < hop:
        raise ParameterError(f"input of {w.samples.size} samples too short for one "
                             f"{hop}-sample cqt hop")
    mags = _cached_kernel(w.sample_rate, n_octaves, bins_per_octave, hop).transform(w.samples)
    cols = _fixed_columns(mags.shape[1], frame_stride)
    return _fixed_gram("CQT", np.log(mags[::bin_stride] + LOG_EPS), cols, w.utt_id)


def frontend(kind: str, cfg: dict, bin_stride: int, frame_stride: int):
    """The gram function ``gram(w) -> FeatureGram`` of front-end ``kind``
    under the resolved config ``cfg``, the strides and ``[mgd]`` checked
    before any waveform is read.  The gram functions are looked up when this
    runs, not at import, so wrappers installed after import take effect."""
    if bin_stride < 1 or frame_stride < 1:
        raise ParameterError("strides must be >= 1")
    gram_fn = {"stft": stft_gram, "gd": gd_gram, "mgd": mgd_gram, "cqt": cqt_gram}[kind]
    kwargs = {"bin_stride": bin_stride, "frame_stride": frame_stride}
    if kind == "cqt":
        return functools.partial(gram_fn, **cfg["cqt"], **kwargs)
    if kind == "mgd":
        mgd = cfg["mgd"]
        kwargs["p"] = MgdParams(rho=mgd["rho"], lam=mgd["lambda"], lifter_len=mgd["lifter_len"])
    stft = cfg["stft"]  # read once here, not by each --jobs thread
    return lambda w: gram_fn(w, FrameSpec.from_ms(w.sample_rate, **stft), **kwargs)


# ---------------------------------------------------------------------------
# on-disk representation

_MAGIC = b"FGRM"
_VERSION = 1
_HEADER = struct.Struct("<4sHBII")


def write_gram(gram: FeatureGram, path) -> None:
    data = np.ascontiguousarray(gram.data, dtype="<f4")  # no copy of a front-end's gram
    with atomic_open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, KIND_CODES[gram.kind],
                              data.shape[0], data.shape[1]))
        fh.write(data)


def read_gram(path, utt_id: str = "") -> FeatureGram:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise FormatError(f"{path}: truncated feature-gram header")
        magic, version, kind_code, n_bins, n_frames = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported feature-gram version {version}")
        if kind_code not in KIND_NAMES:
            raise FormatError(f"{path}: unknown kind code {kind_code}")
        # checked against the file before the read, so no claimed size is ever allocated
        need = 4 * n_bins * n_frames
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != left:
            raise FormatError(f"{path}: header claims {need} payload bytes, file holds {left}")
        payload = fh.read(need)
    data = np.frombuffer(payload, dtype="<f4").reshape(n_bins, n_frames)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite cells in {KIND_NAMES[kind_code]} gram")
    return FeatureGram(KIND_NAMES[kind_code], np.array(data), utt_id)


# ---------------------------------------------------------------------------
# feature directory: gram files and the manifest that names them

FEATURE_MANIFEST = "features.manifest"


def _read_manifest(path) -> dict:
    """utt_id -> gram file name, from ``<utt_id> <file name>`` lines."""
    entries = {}
    for lineno, line in ascii_lines(path):
        fields = line.split(maxsplit=1)
        if len(fields) != 2:
            raise FormatError(f"{path}:{lineno}: expected '<utt_id> <gram file>'")
        if fields[0] in entries:
            raise FormatError(f"{path}:{lineno}: duplicate utt_id {fields[0]!r}")
        if "/" in fields[1] or "\\" in fields[1]:  # a file in the manifest's directory
            raise FormatError(f"{path}:{lineno}: file name {fields[1]!r} contains a path separator")
        entries[fields[0]] = fields[1]
    return entries


def write_feature_manifest(feature_dir, mapping: dict) -> None:
    """Merge new utt_id -> filename entries into the directory manifest."""
    path = Path(feature_dir) / FEATURE_MANIFEST
    merged = _read_manifest(path) if path.exists() else {}
    merged.update(mapping)
    lines = [f"{utt_id} {rel}" for utt_id, rel in sorted(merged.items())]
    with atomic_open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class FeatureStore:
    """Loads feature grams by utt_id via the extraction manifest.  It checks
    that the manifest lists each of ``utt_ids``, and the gram of the first,
    ``first_id``, fixes the kind and shape of all (none if ``utt_ids`` is
    empty); it changes nothing after that, so pool threads may share it."""

    def __init__(self, feature_dir, utt_ids):
        self.feature_dir = Path(feature_dir)
        manifest = self.feature_dir / FEATURE_MANIFEST
        if not manifest.exists():
            raise DataError(f"feature manifest {manifest} not found")
        self.paths = {utt_id: self.feature_dir / rel
                      for utt_id, rel in _read_manifest(manifest).items()}
        for utt_id in utt_ids:
            if utt_id not in self.paths:
                raise DataError(f"no feature file for utterance {utt_id!r}")
        self.first_id = self.kind = self.shape = None
        if utt_ids:
            self.first_id = utt_ids[0]
            gram = read_gram(self.paths[self.first_id], self.first_id)
            self.kind, self.shape = gram.kind, gram.data.shape

    def load(self, utt_id: str) -> np.ndarray:
        if utt_id not in self.paths:
            raise DataError(f"no feature file for utterance {utt_id!r}")
        gram = read_gram(self.paths[utt_id], utt_id)
        if gram.kind != self.kind:
            raise DataError(f"gram of {utt_id!r} is {gram.kind}, but gram of "
                            f"{self.first_id!r} is {self.kind}")
        if gram.data.shape != self.shape:
            raise ShapeError(f"gram of {utt_id!r} is {gram.data.shape}, but gram of "
                             f"{self.first_id!r} is {self.shape}")
        return gram.data

    def load_batch(self, utt_ids) -> np.ndarray:
        """(N, bins, frames) stack of the grams of ``utt_ids``, read one after another."""
        return np.stack([self.load(utt_id) for utt_id in utt_ids])
