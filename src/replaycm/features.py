"""Time-frequency front-ends: STFT-gram, GD/MGD-gram and CQT-gram.

All grams are shaped to exactly 500 frames (truncate long inputs, cyclically
repeat short ones) so the classifier always sees a fixed-size matrix.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .errors import FormatError, InternalError, ParameterError

N_FRAMES_FIXED = 500
LOG_EPS = 1e-10
MAG_FLOOR = 1e-10

KIND_CODES = {"STFT": 0, "GD": 1, "MGD": 2, "CQT": 3}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


@dataclass
class FrameSpec:
    frame_len: int = 400  # 25 ms at 16 kHz
    hop: int = 160  # 10 ms
    window: str = "hamming"
    n_fft: int = 1024

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len <= self.n_fft):
            raise ParameterError(
                f"need 0 < hop <= frame_len <= n_fft, got "
                f"hop={self.hop} frame_len={self.frame_len} n_fft={self.n_fft}"
            )

    @classmethod
    def from_ms(cls, sample_rate: int, frame_ms: float = 25.0, hop_ms: float = 10.0,
                window: str = window, n_fft: int = n_fft) -> "FrameSpec":
        # window and n_fft default to the field defaults above
        return cls(
            frame_len=int(round(frame_ms * sample_rate / 1000.0)),
            hop=int(round(hop_ms * sample_rate / 1000.0)),
            window=window,
            n_fft=n_fft,
        )


@dataclass
class MgdParams:
    rho: float = 0.2
    lam: float = 0.7
    lifter_len: int = 30
    smoothing: bool = True  # False degrades MGD to the vanilla GD function

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
    utt_id: str = ""

    def __post_init__(self):
        if self.kind not in KIND_CODES:
            raise ParameterError(f"unknown feature kind {self.kind!r}")
        self.data = np.asarray(self.data)
        if self.data.ndim != 2:
            raise ParameterError(f"gram must be 2-D, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise InternalError(f"non-finite cells in {self.kind} gram for {self.utt_id!r}")


def _window(name: str, length: int) -> np.ndarray:
    if name == "hamming":
        return np.hamming(length)
    if name == "hann":
        return np.hanning(length)
    if name in ("rect", "rectangular", "boxcar"):
        return np.ones(length)
    raise ParameterError(f"unknown window {name!r}")


def _frame(samples: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    n = samples.size
    if n < frame_len:
        raise ParameterError(f"input of {n} samples too short for one {frame_len}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop]


def _spectra(w: Waveform, spec: FrameSpec, ramped: bool = False) -> tuple:
    """One-sided spectra of the windowed frames, each (n_fft/2 + 1, n_frames):
    (X,) or, if ``ramped``, (X, Y) with Y the spectrum of the index-ramped
    windowed frames.  Frame t covers samples [t*hop, t*hop + frame_len).
    """
    frames = _frame(w.samples, spec.frame_len, spec.hop)
    win = _window(spec.window, spec.frame_len)
    # both weighted stacks in one buffer, so one rfft serves X and Y
    weighted = np.empty((2 if ramped else 1, *frames.shape))
    np.multiply(frames, win, out=weighted[0])
    if ramped:
        np.multiply(frames, np.arange(spec.frame_len), out=weighted[1])
        weighted[1] *= win
    return tuple(np.fft.rfft(weighted, n=spec.n_fft, axis=2).transpose(0, 2, 1))


def stft(w: Waveform, spec: FrameSpec) -> np.ndarray:
    """One-sided short-time spectra, shape (n_fft/2 + 1, n_frames)."""
    return _spectra(w, spec)[0]


def shape_fixed(gram: np.ndarray, n_frames: int = N_FRAMES_FIXED) -> np.ndarray:
    """Truncate to, or cyclically repeat frames up to, exactly n_frames."""
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[1] < 1:
        raise ParameterError(f"cannot shape empty gram of shape {gram.shape}")
    t = gram.shape[1]
    if t >= n_frames:
        return gram[:, :n_frames]
    reps = int(np.ceil(n_frames / t))
    return np.tile(gram, (1, reps))[:, :n_frames]


def stft_gram(w: Waveform, spec: FrameSpec) -> FeatureGram:
    """Log-power spectrogram: log(|X|^2 + eps), fixed to 500 frames."""
    mag2 = np.abs(stft(w, spec)) ** 2
    return FeatureGram("STFT", shape_fixed(np.log(mag2 + LOG_EPS)), w.utt_id)


def cepstral_smooth(mag: np.ndarray, lifter_len: int) -> np.ndarray:
    """Spectral envelope: keep the first lifter_len cepstral coefficients.

    Works on one spectrum (n_bins,) or a stack (n_bins, n_frames); output is
    strictly positive.  ``MgdParams`` checks that lifter_len >= 1.
    """
    import scipy.fft  # only MGD needs scipy, so it loads here, not at start-up

    mag = np.maximum(np.asarray(mag, dtype=np.float64), MAG_FLOOR)
    ceps = scipy.fft.dct(np.log(mag, out=mag), axis=0, norm="ortho", overwrite_x=True)
    ceps[lifter_len:] = 0.0
    smooth = scipy.fft.idct(ceps, axis=0, norm="ortho", overwrite_x=True)
    return np.exp(smooth, out=smooth)


def mgd_spectra(w: Waveform, spec: FrameSpec, p: MgdParams) -> np.ndarray:
    """Modified group delay per frame, shape (n_fft/2 + 1, n_frames).

    tau' = (X_R Y_R + X_I Y_I) / S^(2 lambda) with X the windowed-frame
    spectrum, Y the spectrum of the index-ramped frame and S the cepstrally
    smoothed magnitude of X; the output is sign(tau') |tau'|^rho.
    """
    x_spec, y_spec = _spectra(w, spec, ramped=True)
    mag = np.maximum(np.abs(x_spec), MAG_FLOOR)
    smooth = cepstral_smooth(mag, p.lifter_len) if p.smoothing else mag
    with np.errstate(over="ignore", invalid="ignore"):
        cross = x_spec.real * y_spec.real + x_spec.imag * y_spec.imag
        tau_raw = cross / np.power(smooth, 2.0 * p.lam)
        tau = np.sign(tau_raw) * np.power(np.abs(tau_raw), p.rho)
    if not np.all(np.isfinite(tau)):
        raise InternalError(f"non-finite modified group delay for {w.utt_id!r}")
    return tau


def mgd_gram(w: Waveform, spec: FrameSpec, p: MgdParams | None = None) -> FeatureGram:
    p = p or MgdParams()
    return FeatureGram("MGD", shape_fixed(mgd_spectra(w, spec, p)), w.utt_id)


def gd_gram(w: Waveform, spec: FrameSpec) -> FeatureGram:
    """Vanilla group-delay gram (X_R Y_R + X_I Y_I) / |X|^2 per frame: MGD
    with rho = lambda = 1 and no cepstral smoothing."""
    tau = mgd_spectra(w, spec, MgdParams(rho=1.0, lam=1.0, smoothing=False))
    return FeatureGram("GD", shape_fixed(tau), w.utt_id)


# ---------------------------------------------------------------------------
# constant-Q transform

ANCHOR_FMIN_HZ = 32.7
# the full-Q window of the lowest bins would exceed typical utterance lengths
MAX_WINDOW_S = 0.5
# frames per FFT and sparse product in CqtKernel.transform
TRANSFORM_CHUNK = 32


def cqt_fmin(sample_rate: int, n_octaves: int) -> float:
    """Lowest center frequency: 32.7 Hz when n_octaves fit under Nyquist,
    otherwise Nyquist / 2**n_octaves so the top octave ends at Nyquist."""
    nyquist = sample_rate / 2.0
    if ANCHOR_FMIN_HZ * 2.0**n_octaves <= nyquist:
        return ANCHOR_FMIN_HZ
    return nyquist / 2.0**n_octaves


def cqt_center_frequencies(fmin: float, n_octaves: int, bins_per_octave: int) -> np.ndarray:
    k = np.arange(n_octaves * bins_per_octave)
    return fmin * 2.0 ** (k / bins_per_octave)


class CqtKernel:
    """Spectral-domain constant-Q kernel (Brown & Puckette, JASA 1992).

    Each bin k gets a Hamming-windowed complex exponential of Q periods,
    length N_k = round(Q * sr / f_k), centered and zero-padded to a common
    FFT size; rows are stored sparsely by zeroing everything below 1e-4 of
    the row peak.  Window lengths are capped at MAX_WINDOW_S, which widens
    the response of the lowest bins without moving their centers.
    """

    def __init__(self, sample_rate: int, n_octaves: int, bins_per_octave: int):
        self.freqs = cqt_center_frequencies(cqt_fmin(sample_rate, n_octaves), n_octaves,
                                            bins_per_octave)
        # Q = f_k / (f_{k+1} - f_k), the same for every bin
        self.q_factor = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
        cap = max(int(round(MAX_WINDOW_S * sample_rate)), 32)
        self.lengths = np.clip(
            np.round(self.q_factor * sample_rate / self.freqs).astype(int), 1, cap
        )
        self.fft_len = int(2 ** np.ceil(np.log2(self.lengths.max())))

        n_bins = self.freqs.size
        rows = []
        cols = []
        vals = []
        for k in range(n_bins):
            nk = self.lengths[k]
            win = np.hamming(nk)
            t = np.arange(nk) - (nk - 1) / 2.0
            kernel_t = win * np.exp(2j * np.pi * self.freqs[k] * t / sample_rate) / win.sum()
            padded = np.zeros(self.fft_len, dtype=np.complex128)
            start = (self.fft_len - nk) // 2
            padded[start : start + nk] = kernel_t
            spec = np.conj(np.fft.fft(padded)) / self.fft_len
            keep = np.abs(spec) >= 1e-4 * np.abs(spec).max()
            idx = np.nonzero(keep)[0]
            rows.append(np.full(idx.size, k))
            cols.append(idx)
            vals.append(spec[idx])
        import scipy.sparse

        self.kernel = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n_bins, self.fft_len), dtype=np.complex128,
        )

    def transform(self, samples: np.ndarray, hop: int) -> np.ndarray:
        """Magnitude CQT, shape (n_bins, n_frames); frames centered every hop.

        Frames go through the FFT and the kernel TRANSFORM_CHUNK at a time,
        which bounds the spectra held at once (4 MB at FFT size 8192).
        """
        n_frames = max(int(np.floor(samples.size / hop)), 1)
        left = self.fft_len // 2
        padded = np.pad(samples, (left, self.fft_len))
        frames = np.lib.stride_tricks.sliding_window_view(padded, self.fft_len)[::hop][:n_frames]
        mags = np.empty((self.freqs.size, n_frames))
        for start in range(0, n_frames, TRANSFORM_CHUNK):
            spec = np.fft.fft(frames[start : start + TRANSFORM_CHUNK], axis=1)
            mags[:, start : start + TRANSFORM_CHUNK] = np.abs(self.kernel @ spec.T)
        return mags


_KERNEL_CACHE: dict = {}
# held while a kernel is built, so --jobs threads share one build per process
_KERNEL_LOCK = threading.Lock()


def _cached_kernel(sample_rate: int, n_octaves: int, bins_per_octave: int) -> CqtKernel:
    key = (sample_rate, n_octaves, bins_per_octave)
    with _KERNEL_LOCK:
        if key not in _KERNEL_CACHE:
            _KERNEL_CACHE[key] = CqtKernel(sample_rate, n_octaves, bins_per_octave)
        return _KERNEL_CACHE[key]


def cqt_gram(w: Waveform, hop: int = 128, n_octaves: int = 9,
             bins_per_octave: int = 96) -> FeatureGram:
    """Log-compressed constant-Q magnitude gram, fixed to 500 frames."""
    if min(hop, n_octaves, bins_per_octave) < 1:
        raise ParameterError(f"cqt hop, n_octaves and bins_per_octave must be >= 1, got "
                             f"{hop}, {n_octaves} and {bins_per_octave}")
    kernel = _cached_kernel(w.sample_rate, n_octaves, bins_per_octave)
    mags = kernel.transform(w.samples, hop)
    return FeatureGram("CQT", shape_fixed(np.log(mags + LOG_EPS)), w.utt_id)


# ---------------------------------------------------------------------------
# on-disk representation

_MAGIC = b"FGRM"
_VERSION = 1
_HEADER = struct.Struct("<4sHBII")


def write_gram(gram: FeatureGram, path) -> None:
    data = np.ascontiguousarray(gram.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, KIND_CODES[gram.kind],
                              data.shape[0], data.shape[1]))
        fh.write(data.tobytes())


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


def reduce_gram(gram: FeatureGram, bin_stride: int = 1, frame_stride: int = 1) -> FeatureGram:
    """Subsample rows/columns for desk-scale training runs."""
    if bin_stride < 1 or frame_stride < 1:
        raise ParameterError("strides must be >= 1")
    if bin_stride == 1 and frame_stride == 1:
        return gram
    return FeatureGram(gram.kind, gram.data[::bin_stride, ::frame_stride], gram.utt_id)
