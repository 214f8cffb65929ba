import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit_spectra
from replaycm.audio_io import Waveform, synth_tone_complex
from replaycm.errors import FormatError, InternalError, ParameterError
from replaycm.features import (
    LOG_EPS,
    MAG_FLOOR,
    MAX_WINDOW_S,
    N_FRAMES_FIXED,
    CqtKernel,
    FeatureGram,
    FrameSpec,
    MgdParams,
    _gram_spectra,
    _group_delay,
    cepstral_smooth,
    cqt_center_frequencies,
    cqt_fmin,
    cqt_gram,
    gd_gram,
    mgd_gram,
    read_gram,
    stft_gram,
    write_gram,
)
from replaycm.replay_sim import degrade

SR = 16000
# 25 ms frames every 10 ms, as the CLI frames a 16 kHz waveform
SPEC = FrameSpec.from_ms(SR)


def _noise_wave(rng, n=4000, scale=0.5):
    return Waveform(rng.uniform(-scale, scale, n), SR, "noise")


def power(w: Waveform, spec: FrameSpec) -> np.ndarray:
    """|X|^2 per bin and frame, read back from the STFT gram, whose first
    columns are the first frames in order."""
    return np.exp(stft_gram(w, spec).data) - LOG_EPS


class TestStft:
    def test_impulse_has_flat_spectrum(self):
        samples = np.zeros(1200)
        samples[0] = 1.0
        spec = FrameSpec(frame_len=1024, hop=512, window="rect", n_fft=1024)
        p = power(Waveform(samples, SR, "imp"), spec)
        assert p.shape[0] == 513
        assert np.allclose(p[:, 0], 1.0, atol=1e-12)

    def test_sine_at_bin_center_concentrates(self):
        k0 = 64
        n = np.arange(2048)
        w = Waveform(np.sin(2 * np.pi * k0 * n / 1024), SR, "sine")
        spec = FrameSpec(frame_len=1024, hop=1024, window="rect", n_fft=1024)
        p = power(w, spec)[:, 0]
        assert p.argmax() == k0
        side = np.delete(p, k0)
        assert side.max() < 1e-18 * p[k0]  # 1e-9 of the peak's magnitude

    def test_parseval_energy(self, rng):
        # two-sided spectral energy of one frame equals n_fft * windowed energy
        w = _noise_wave(rng)
        spec = SPEC
        frame = w.samples[: spec.frame_len] * np.hamming(spec.frame_len)
        full = np.fft.fft(frame, spec.n_fft)
        assert np.sum(np.abs(full) ** 2) == pytest.approx(
            spec.n_fft * np.sum(frame**2), rel=1e-10
        )
        # the first frame's log power matches the full-spectrum oracle bin by
        # bin, and the gram is the float32 cast of the log power of every frame
        oracle = np.log(np.abs(full[:513]) ** 2 + LOG_EPS)
        (x,), cols = _gram_spectra(w, spec, 1)
        log_power = np.log(np.abs(x) ** 2 + LOG_EPS)
        assert np.allclose(log_power[:, 0], oracle, rtol=0, atol=1e-9)
        assert np.array_equal(stft_gram(w, spec).data, log_power.astype(np.float32)[:, cols])

    def test_frame_layout_and_time_shift(self, rng):
        # 23 frames; frame t covers samples [t*hop, t*hop + frame_len)
        spec = FrameSpec(frame_len=400, hop=160, window="rect", n_fft=1024)
        base = Waveform(rng.uniform(-0.5, 0.5, 4000), SR, "a")
        shifted = Waveform(np.concatenate([np.zeros(spec.hop), base.samples])[:4000], SR, "b")
        (xa,), cols = _gram_spectra(base, spec, 1)
        (xb,), _ = _gram_spectra(shifted, spec, 1)
        a, b = np.abs(xa) ** 2, np.abs(xb) ** 2
        assert np.allclose(b[:, 1:23], a[:, :22], rtol=1e-9, atol=1e-11)
        oracle = np.abs(explicit_spectra(base, spec)[0]) ** 2
        assert oracle.shape[1] == 23 and a.shape[1] == 23
        assert np.allclose(a, oracle, rtol=1e-9, atol=1e-11)
        # the gram's first columns are the frames in order, cast to float32
        assert np.array_equal(cols[:23], np.arange(23))
        assert np.array_equal(stft_gram(base, spec).data,
                              np.log(a + LOG_EPS).astype(np.float32)[:, cols])

    def test_too_short_input_rejected(self):
        for gram in (lambda w: stft_gram(w, SPEC), lambda w: gd_gram(w, SPEC),
                     lambda w: mgd_gram(w, SPEC, MgdParams())):
            with pytest.raises(ParameterError, match="100 samples too short for one 400-sample"):
                gram(Waveform(np.zeros(100), SR, "x"))

    def test_frame_spec_invariants(self):
        with pytest.raises(ParameterError):
            FrameSpec(frame_len=100, hop=200, window="hamming", n_fft=1024)
        with pytest.raises(ParameterError):
            FrameSpec(frame_len=2048, hop=100, window="hamming", n_fft=1024)

    @pytest.mark.parametrize("window", ["boxcar", "rectangular", "Hamming", ""])
    def test_a_window_of_another_name_is_rejected(self, window):
        with pytest.raises(ParameterError, match="expected hamming, hann or rect"):
            FrameSpec(frame_len=400, hop=160, window=window, n_fft=1024)


class TestStftGram:
    def test_zero_waveform_gives_log_eps(self):
        g = stft_gram(Waveform(np.zeros(4000), SR, "z"), SPEC)
        assert g.data.shape == (513, 500)
        assert np.allclose(g.data, np.log(1e-10))

    def test_scaling_shifts_by_log4(self, rng):
        w = _noise_wave(rng)
        spec = SPEC
        g1 = stft_gram(w, spec)
        g2 = stft_gram(Waveform(2.0 * w.samples, SR, "x2"), spec)
        assert np.allclose(g2.data - g1.data, np.log(4.0), atol=1e-6)

    def test_fixed_dims_for_any_length(self, rng):
        for n in (500, 4000, 100000):
            g = stft_gram(Waveform(rng.uniform(-0.5, 0.5, n), SR, "v"), SPEC)
            assert g.data.shape == (513, 500)


def shape_fixed(gram: np.ndarray) -> np.ndarray:
    """The earlier path's first step: truncate to, or cyclically repeat frames
    up to, exactly N_FRAMES_FIXED."""
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[1] < 1:
        raise ParameterError(f"cannot shape empty gram of shape {gram.shape}")
    t = gram.shape[1]
    if t >= N_FRAMES_FIXED:
        return gram[:, :N_FRAMES_FIXED]
    reps = int(np.ceil(N_FRAMES_FIXED / t))
    return np.tile(gram, (1, reps))[:, :N_FRAMES_FIXED]


def reduce_gram(gram: FeatureGram, bin_stride: int, frame_stride: int) -> FeatureGram:
    """The earlier path's second step: subsample the fixed gram's rows and
    columns."""
    if bin_stride < 1 or frame_stride < 1:
        raise ParameterError("strides must be >= 1")
    if bin_stride == 1 and frame_stride == 1:
        return gram
    return FeatureGram(gram.kind, gram.data[::bin_stride, ::frame_stride], gram.utt_id)


class TestShapeFixed:
    """``shape_fixed`` and ``reduce_gram`` are the oracle of the strided
    grams (``TestStridedGrams``); these tests pin the oracle itself."""

    def test_truncates_long(self, rng):
        g = rng.standard_normal((7, 700))
        out = shape_fixed(g)
        assert np.array_equal(out, g[:, :500])

    def test_cyclic_repeat_short(self, rng):
        g = rng.standard_normal((5, 200))
        out = shape_fixed(g)
        assert out.shape == (5, 500)
        assert np.array_equal(out[:, :200], g)
        assert np.array_equal(out[:, 200:400], g)
        assert np.array_equal(out[:, 400:], g[:, :100])

    def test_exact_length_identity(self, rng):
        g = rng.standard_normal((5, 500))
        assert np.array_equal(shape_fixed(g), g)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            shape_fixed(np.zeros((5, 0)))


class TestCepstralSmooth:
    def test_constant_spectrum_unchanged(self):
        mag = np.full(513, 3.7)
        assert np.allclose(cepstral_smooth(mag, 30), mag, rtol=1e-12)

    def test_full_lifter_is_identity(self, rng):
        mag = np.exp(rng.standard_normal(513))
        out = cepstral_smooth(mag, 513)
        assert np.max(np.abs(out - mag) / mag) < 1e-9

    def test_reduces_total_variation(self, rng):
        tv = lambda a: np.sum(np.abs(np.diff(a)))
        for _ in range(100):
            mag = np.exp(rng.standard_normal(257))
            assert tv(cepstral_smooth(mag, 30)) <= tv(mag)

    def test_idempotent(self, rng):
        mag = np.exp(rng.standard_normal(513) * 0.5)
        once = cepstral_smooth(mag, 30)
        twice = cepstral_smooth(once, 30)
        assert np.max(np.abs(twice - once) / once) < 1e-6

    def test_input_is_left_unchanged(self, rng):
        mag = np.exp(rng.standard_normal((513, 4)))
        before = mag.copy()
        cepstral_smooth(mag, 30)
        assert np.array_equal(mag, before)

    def test_output_positive_even_for_zero_input(self):
        out = cepstral_smooth(np.zeros(129), 20)
        assert np.all(out > 0)


class TestMgd:
    def test_gd_is_the_explicit_formula_bit_for_bit(self, rng):
        spec = SPEC
        for _ in range(10):
            w = _noise_wave(rng)
            x, y = explicit_spectra(w, spec)
            mag = np.maximum(np.abs(x), 1e-10)
            gd = (x.real * y.real + x.imag * y.imag) / mag**2
            assert np.array_equal(gd_gram(w, spec).data, shape_fixed(gd).astype(np.float32))

    def test_mgd_is_the_explicit_formula_bit_for_bit(self, rng):
        # scipy's FFT-based DCT is the oracle of the DCT-II basis product: the
        # float64 group delays of the gram's spectra agree to 1e-13 relative,
        # and every float32 cell of the gram is equal
        import scipy.fft

        spec, p = SPEC, MgdParams()
        for _ in range(10):
            w = _noise_wave(rng)
            x, y = explicit_spectra(w, spec)
            mag = np.maximum(np.abs(x), 1e-10)
            ceps = scipy.fft.dct(np.log(mag), axis=0, norm="ortho")
            ceps[p.lifter_len:] = 0.0
            smooth = np.exp(scipy.fft.idct(ceps, axis=0, norm="ortho"))
            tau = (x.real * y.real + x.imag * y.imag) / np.power(smooth, 2.0 * p.lam)
            mgd = shape_fixed(np.sign(tau) * np.power(np.abs(tau), p.rho))
            (gx, gy), cols = _gram_spectra(w, spec, 1, ramped=True)
            got64 = _group_delay(gx, gy, cepstral_smooth(np.abs(gx), p.lifter_len),
                                 p.rho, p.lam)[:, cols]
            np.testing.assert_allclose(got64, mgd, rtol=1e-13, atol=0)
            assert np.array_equal(mgd_gram(w, spec, p).data, mgd.astype(np.float32))

    def test_sign_preserved(self, rng):
        spec = SPEC
        w = _noise_wave(rng)
        p = MgdParams(rho=0.2, lam=0.7)
        tau = mgd_gram(w, spec, p).data
        raw = mgd_gram(w, spec, MgdParams(rho=1.0, lam=0.7, lifter_len=p.lifter_len)).data
        assert np.all(np.sign(tau) == np.sign(raw))

    def test_single_pole_group_delay(self):
        # x[n] = a^n is the impulse response of H(z) = 1/(1 - a z^-1); its
        # analytic group delay is (a cos w - a^2) / (1 - 2 a cos w + a^2)
        a = 0.9
        frame_len = 1024
        samples = a ** np.arange(2048.0)
        spec = FrameSpec(frame_len=frame_len, hop=frame_len, window="rect", n_fft=1024)
        gd = gd_gram(Waveform(samples, SR, "pole"), spec).data[:, 0]
        omega = np.pi * np.arange(513) / 512
        analytic = (a * np.cos(omega) - a**2) / (1 - 2 * a * np.cos(omega) + a**2)
        for k in (0, 1, 2, 4, 8):
            assert gd[k] == pytest.approx(analytic[k], rel=0.05)

    @pytest.mark.parametrize("lifter_len", [513, 10**30])
    def test_a_lifter_as_long_as_the_spectrum_is_rejected(self, rng, lifter_len):
        # such a lifter keeps every cepstral coefficient, so it smooths nothing
        with pytest.raises(ParameterError, match=f"mgd lifter_len must be below the 513 bins "
                                                 f"of n_fft 1024, got {lifter_len}$"):
            mgd_gram(_noise_wave(rng), SPEC, MgdParams(lifter_len=lifter_len))

    @pytest.mark.parametrize("lifter_len", [514, 600, 10**30])
    def test_cepstral_smooth_rejects_a_lifter_past_the_bins(self, rng, lifter_len):
        # a DCT row past the 513 bins is no cepstral coefficient of the spectrum
        with pytest.raises(ParameterError,
                           match=f"^lifter_len {lifter_len} exceeds the 513 bins$"):
            cepstral_smooth(np.exp(rng.standard_normal(513)), lifter_len)

    def test_a_lifter_one_below_the_bin_count_smooths(self, rng):
        w = _noise_wave(rng)
        assert mgd_gram(w, SPEC, MgdParams(lifter_len=512)).data.shape == (513, 500)
        (x,), _ = _gram_spectra(w, SPEC, 1)
        assert not np.array_equal(cepstral_smooth(np.abs(x), 512),
                                  np.maximum(np.abs(x), MAG_FLOOR))

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            MgdParams(rho=0.0)
        with pytest.raises(ParameterError):
            MgdParams(lam=1.5)
        with pytest.raises(ParameterError):
            MgdParams(lifter_len=0)

    def test_non_finite_raises_internal_error(self):
        w = Waveform(np.full(2000, 1e300), SR, "huge")
        with pytest.raises(InternalError):
            mgd_gram(w, SPEC, MgdParams())

    def test_gram_shape(self, rng):
        g = mgd_gram(_noise_wave(rng), SPEC, MgdParams())
        assert g.data.shape == (513, 500)
        assert g.kind == "MGD"


@pytest.fixture(scope="module")
def kernel():
    return CqtKernel(SR, n_octaves=9, bins_per_octave=96, hop=128)


class TestCqt:
    def test_fmin_rule(self):
        assert cqt_fmin(16000, 9) == pytest.approx(8000.0 / 512.0)
        # at 96 kHz nine octaves fit below Nyquist from the 32.7 Hz anchor
        assert cqt_fmin(96000, 9) == pytest.approx(32.7)
        # the most octaves at 16 kHz: 3.9 Hz, at or above 1 / MAX_WINDOW_S
        assert cqt_fmin(16000, 11) == 8000.0 / 2.0**11

    @pytest.mark.parametrize("n_octaves", [1024, 1100, 10**10])
    def test_octaves_past_the_float_range_are_rejected(self, n_octaves):
        # 2.0**1100 once ended in an OverflowError
        with pytest.raises(ParameterError, match=f"at most 1023, got {n_octaves}$"):
            cqt_fmin(16000, n_octaves)

    @pytest.mark.parametrize("sample_rate, n_octaves", [(16000, 12), (16000, 200),
                                                         (16000, 1023), (8000, 11)])
    def test_a_lowest_center_below_what_a_window_resolves_is_rejected(self, sample_rate,
                                                                      n_octaves):
        # 200 octaves at 16 kHz once put 188 of them below 2 Hz
        with pytest.raises(ParameterError, match=f"n_octaves = {n_octaves} puts the lowest "
                                                 "center frequency at .* below the 2 Hz"):
            cqt_fmin(sample_rate, n_octaves)

    def test_lengths_past_the_window_cap_are_the_cap(self):
        # Q = 16.8 periods at 3.9 Hz would be ~69000 samples
        assert CqtKernel(SR, 11, 12, 128).lengths[0] == round(MAX_WINDOW_S * SR)
        # Q = 1 period at 1, 2 and 4 kHz
        assert list(CqtKernel(SR, 11, 1, 128).lengths[-3:]) == [16, 8, 4]

    def test_geometric_center_frequencies(self, kernel):
        ratios = kernel.freqs[1:] / kernel.freqs[:-1]
        assert np.max(np.abs(ratios - 2.0 ** (1.0 / 96.0))) < 1e-12

    def test_constant_q(self, kernel):
        # design bandwidth of bin k is f_{k+1} - f_k
        q = kernel.freqs[:-1] / np.diff(kernel.freqs)
        assert np.max(np.abs(q - kernel.q_factor) / kernel.q_factor) < 1e-6

    def test_covers_band_below_nyquist(self, kernel):
        assert kernel.freqs.size == 9 * 96
        assert kernel.freqs[-1] < SR / 2

    def test_tone_localizes_at_bin(self, kernel):
        kbin = 600
        f = kernel.freqs[kbin]
        n = np.arange(SR)
        w = 0.7 * np.sin(2 * np.pi * f * n / SR)
        prof = kernel.transform(w).mean(axis=1)
        peak = int(prof.argmax())
        assert peak == kbin
        far = np.concatenate([prof[: kbin - 2], prof[kbin + 3 :]])
        assert 20 * np.log10(prof[peak] / far.max()) >= 10.0

    def test_gram_shape_and_kind(self, kernel):
        w = synth_tone_complex(220.0, 8, 0.5, SR, 5, 0.7)
        g = cqt_gram(w)
        assert g.kind == "CQT"
        assert g.data.shape == (864, 500)

    @pytest.mark.parametrize("bins_per_octave, hop, decimations", [
        (96, 128, [128, 64, 32, 16, 8, 4, 2, 1, 1]),  # 7 halvings, the most allowed
        (96, 160, [32, 32, 32, 16, 8, 4, 2, 1, 1]),   # 160 = 32 * 5
        (12, 125, [1] * 9),                           # an odd hop allows none
        # a lower Q has wider sidelobes, so the cutoff stays further above
        (12, 128, [32, 16, 8, 4, 2, 1, 1, 1, 1]),
    ])
    def test_decimation_keeps_hop_an_integer(self, bins_per_octave, hop, decimations):
        assert [d for d, _ in CqtKernel(SR, 9, bins_per_octave, hop).octaves] == decimations

    def test_octave_kernels_are_dense_and_small(self, kernel):
        # 2 * 96 real columns; at most 1105 taps, a 1104-sample window at its rate
        for d, taps in kernel.octaves:
            assert taps.shape[1] == 2 * 96 and taps.shape[0] <= 1105

    def test_short_input_gives_one_frame(self, kernel):
        assert kernel.transform(np.ones(5)).shape == (864, 1)


def list_built_kernel(sample_rate: int, n_octaves: int, bins_per_octave: int):
    """The first CQT kernel (Brown & Puckette, JASA 1992), as a CSR matrix:
    each bin's Hamming-windowed exponential through one FFT of the largest
    window's power-of-2 size, entries below 1e-4 of the row peak dropped,
    the triplets through Python lists, then one ``csr_matrix`` call."""
    import scipy.sparse

    freqs = cqt_center_frequencies(cqt_fmin(sample_rate, n_octaves), n_octaves, bins_per_octave)
    q_factor = 1.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    cap = max(int(round(MAX_WINDOW_S * sample_rate)), 32)
    lengths = np.clip(np.round(q_factor * sample_rate / freqs).astype(int), 1, cap)
    fft_len = int(2 ** np.ceil(np.log2(lengths.max())))
    rows, cols, vals = [], [], []
    for k in range(freqs.size):
        nk = lengths[k]
        win = np.hamming(nk)
        t = np.arange(nk) - (nk - 1) / 2.0
        kernel_t = win * np.exp(2j * np.pi * freqs[k] * t / sample_rate) / win.sum()
        padded = np.zeros(fft_len, dtype=np.complex128)
        start = (fft_len - nk) // 2
        padded[start : start + nk] = kernel_t
        spec = np.conj(np.fft.fft(padded)) / fft_len
        keep = np.abs(spec) >= 1e-4 * np.abs(spec).max()
        idx = np.nonzero(keep)[0]
        rows.extend([k] * idx.size)
        cols.extend(idx.tolist())
        vals.extend(spec[idx].tolist())
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(freqs.size, fft_len),
                                   dtype=np.complex128)


def per_frame_transform(old_kernel, samples: np.ndarray, hop: int) -> np.ndarray:
    """The first CQT transform: frame t is the FFT-size stretch of the
    zero-padded signal that starts at t*hop - fft_len/2, and one FFT and
    one sparse mat-vec with ``list_built_kernel`` per frame."""
    n_bins, fft_len = old_kernel.shape
    n_frames = max(int(np.floor(samples.size / hop)), 1)
    padded = np.pad(samples, (fft_len // 2, fft_len))
    mags = np.empty((n_bins, n_frames))
    for t in range(n_frames):
        frame = padded[t * hop : t * hop + fft_len]
        mags[:, t] = np.abs(old_kernel @ np.fft.fft(frame))
    return mags


def assert_within_tolerance(new: np.ndarray, old: np.ndarray) -> None:
    """Every cell within 5e-3 of the utterance's peak old magnitude, and the
    log-gram within 0.25 on cells at or above 1e-2 of that peak.  What is
    left is the first kernel's sidelobe response to energy above an octave's
    cutoff, which decimation removes."""
    assert new.shape == old.shape
    peak = old.max()
    assert np.max(np.abs(new - old)) <= 5e-3 * peak
    loud = old >= 1e-2 * peak
    assert np.max(np.abs(np.log(new[loud] + 1e-10) - np.log(old[loud] + 1e-10))) <= 0.25


def utterances(sample_rate: int, n_samples: int, rng) -> list:
    """White noise, a harmonic complex, and that complex replayed through the
    simulator's worst device at the farthest distance."""
    tone = synth_tone_complex(180.0, 8, n_samples / sample_rate, sample_rate, 3, 0.7)
    return [rng.uniform(-0.5, 0.5, n_samples), tone.samples, degrade(tone, "CC", 3).samples]


@pytest.fixture(scope="module")
def coarse_kernels():
    # 12 bins per octave: the full FFT size and window cap at an eighth of the cost
    return CqtKernel(SR, n_octaves=9, bins_per_octave=12, hop=128), list_built_kernel(SR, 9, 12)


def test_threads_share_one_kernel_build(monkeypatch):
    from replaycm import features

    builds = []

    class SlowKernel:
        def __init__(self, *args):
            builds.append(args)
            time.sleep(0.05)  # a wide window for a second thread to start its own build

    monkeypatch.setattr(features, "CqtKernel", SlowKernel)
    monkeypatch.setattr(features, "_KERNEL_CACHE", {})
    got = []
    threads = [threading.Thread(target=lambda: got.append(features._cached_kernel(SR, 9, 96, 128)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == [(SR, 9, 96, 128)]
    assert len(got) == 8 and all(k is got[0] for k in got)


class TestCqtMatchesTheFirstPath:
    """The multi-rate transform against the first, single-kernel path, kept
    here as a test-only oracle, within the tolerance of assert_within_tolerance."""

    # (sample rate, octaves, bins per octave, hop); hop 125 allows no halving
    @pytest.mark.parametrize("config", [(SR, 9, 12, 160), (8000, 6, 24, 128),
                                        (44100, 9, 12, 128), (SR, 9, 12, 125)])
    def test_kernel_within_tolerance(self, config, rng):
        sample_rate, n_octaves, bins_per_octave, hop = config
        new = CqtKernel(*config)
        old = list_built_kernel(sample_rate, n_octaves, bins_per_octave)
        # 12000 samples: 0.27 s at 44.1 kHz, where the first path is slowest
        for samples in utterances(sample_rate, 12000, rng):
            assert_within_tolerance(new.transform(samples),
                                    per_frame_transform(old, samples, hop))

    # 600 frames is more than shape_fixed keeps
    @pytest.mark.parametrize("n_frames", [1, 31, 32, 33, 125, 600])
    def test_magnitudes_are_equal(self, coarse_kernels, rng, n_frames):
        new, old = coarse_kernels
        hop = 128
        samples = rng.uniform(-0.5, 0.5, n_frames * hop + int(rng.integers(0, hop)))
        mags = new.transform(samples)
        assert mags.shape == (new.freqs.size, n_frames)
        assert_within_tolerance(mags, per_frame_transform(old, samples, hop))

    def test_full_kernel_magnitudes_are_equal(self, kernel, rng):
        # the default geometry: 9 octaves of 96 bins, hop 128
        old = list_built_kernel(SR, 9, 96)
        for samples in utterances(SR, 8000, rng):
            assert_within_tolerance(kernel.transform(samples),
                                    per_frame_transform(old, samples, 128))


class TestGramFiles:
    def test_round_trip(self, tmp_path, rng):
        g = FeatureGram("MGD", rng.standard_normal((64, 50)).astype(np.float32), "u1")
        path = tmp_path / "u1.fgram"
        write_gram(g, path)
        back = read_gram(path, "u1")
        assert back.kind == "MGD"
        assert back.utt_id == "u1"
        assert np.array_equal(back.data, g.data)

    def test_a_write_that_fails_midway_keeps_the_previous_file(self, tmp_path, rng):
        resource = pytest.importorskip("resource")
        path = tmp_path / "u.fgram"
        write_gram(FeatureGram("STFT", np.zeros((8, 10), np.float32), "u"), path)
        before = path.read_bytes()
        # a file-size limit past the header: the payload write fails with EFBIG
        # (SIGXFSZ ignored, so the limit raises instead of killing the process)
        limits = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, limits[1]))
        try:
            with pytest.raises(OSError, match="too large"):
                write_gram(FeatureGram("STFT", rng.standard_normal((8, 10)), "u"), path)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, limits)
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["u.fgram"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fgram"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(FormatError):
            read_gram(path)

    def test_truncated_payload(self, tmp_path, rng):
        g = FeatureGram("STFT", rng.standard_normal((8, 8)).astype(np.float32), "u")
        path = tmp_path / "t.fgram"
        write_gram(g, path)
        data = path.read_bytes()
        path.write_bytes(data[:-12])
        with pytest.raises(FormatError):
            read_gram(path)

    def test_reduce_gram(self, rng):
        # the oracle's second step, see TestShapeFixed
        g = FeatureGram("STFT", rng.standard_normal((64, 50)).astype(np.float32), "u")
        r = reduce_gram(g, bin_stride=8, frame_stride=5)
        assert r.data.shape == (8, 10)
        assert np.array_equal(r.data, g.data[::8, ::5])

    def test_gram_must_be_finite(self):
        with pytest.raises(InternalError):
            FeatureGram("STFT", np.array([[np.inf, 0.0]]), "u")


# 8 kHz, so that utterances of over 500 frames stay short: 200-sample frames
# every 80 samples, and a 12-bin, 6-octave CQT at hop 80
STRIDE_SR = 8000
STRIDE_SPEC = FrameSpec.from_ms(STRIDE_SR)
STRIDE_CQT = dict(hop=80, n_octaves=6, bins_per_octave=12)


def full_resolution(kind: str, w: Waveform) -> np.ndarray:
    """Every bin of every frame, before the fixed gram's columns are taken:
    the spectra of ``explicit_spectra``, and the group delays of
    ``_group_delay``, whose formula ``TestMgd`` checks."""
    x, y = explicit_spectra(w, STRIDE_SPEC)
    if kind == "STFT":
        return np.log(np.abs(x) ** 2 + LOG_EPS)
    if kind == "GD":
        return _group_delay(x, y, np.maximum(np.abs(x), MAG_FLOOR), 1.0, 1.0)
    if kind == "MGD":
        p = MgdParams()
        return _group_delay(x, y, cepstral_smooth(np.abs(x), p.lifter_len), p.rho, p.lam)
    kernel = CqtKernel(STRIDE_SR, STRIDE_CQT["n_octaves"], STRIDE_CQT["bins_per_octave"],
                       STRIDE_CQT["hop"])
    return np.log(kernel.transform(w.samples) + LOG_EPS)


def strided_gram(kind: str, w: Waveform, bin_stride: int, frame_stride: int) -> FeatureGram:
    strides = dict(bin_stride=bin_stride, frame_stride=frame_stride)
    if kind == "STFT":
        return stft_gram(w, STRIDE_SPEC, **strides)
    if kind == "GD":
        return gd_gram(w, STRIDE_SPEC, **strides)
    if kind == "MGD":
        return mgd_gram(w, STRIDE_SPEC, MgdParams(), **strides)
    return cqt_gram(w, **STRIDE_CQT, **strides)


class TestStridedGrams:
    """A gram function computes only the cells its strides keep, and they are
    the cells of the earlier path: ``shape_fixed`` of every frame, then
    ``reduce_gram``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["STFT", "GD", "MGD", "CQT"]),
           n_frames=st.one_of(st.integers(1, 40), st.integers(1, 650)),
           extra=st.integers(0, STRIDE_SPEC.hop - 1),
           bin_stride=st.one_of(st.integers(1, 8), st.integers(1, 600)),
           frame_stride=st.one_of(st.integers(1, 12), st.integers(1, 600)),
           seed=st.integers(0, 2**32 - 1))
    def test_strided_gram_is_the_fixed_gram_subsampled(self, kind, n_frames, extra, bin_stride,
                                                       frame_stride, seed):
        n = STRIDE_SPEC.frame_len + (n_frames - 1) * STRIDE_SPEC.hop + extra
        w = Waveform(np.random.default_rng(seed).uniform(-0.5, 0.5, n), STRIDE_SR, "u")
        got = strided_gram(kind, w, bin_stride, frame_stride)
        oracle = reduce_gram(FeatureGram(kind, shape_fixed(full_resolution(kind, w)), "u"),
                             bin_stride, frame_stride)
        assert got.kind == kind and got.data.shape == oracle.data.shape
        # the lifter's DCT product runs over the kept frames only, and a BLAS
        # product of fewer columns may round the last bits of a float64 MGD
        # cell differently; the float32 cells, which the gram holds, are equal
        assert got.data.dtype == np.float32
        assert got.data.tobytes() == oracle.data.astype("<f4").tobytes()

    @pytest.mark.parametrize("kind", ["STFT", "GD", "MGD", "CQT"])
    def test_stride_1_is_the_fixed_gram(self, kind, rng):
        w = Waveform(rng.uniform(-0.5, 0.5, STRIDE_SR), STRIDE_SR, "u")  # 1 s
        assert np.array_equal(strided_gram(kind, w, 1, 1).data,
                              shape_fixed(full_resolution(kind, w)).astype(np.float32))

    def test_cqt_hop_longer_than_the_utterance_is_rejected(self):
        w = Waveform(np.ones(127), SR, "short")
        with pytest.raises(ParameterError, match="127 samples too short for one 128-sample"):
            cqt_gram(w, hop=128)
        assert cqt_gram(Waveform(np.ones(128), SR, "one")).data.shape == (864, 500)
