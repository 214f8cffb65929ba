import json
import struct

import numpy as np
import pytest

from replaycm import autodiff as ad
from replaycm.autodiff import Tensor
from replaycm.cli import main


def finite_difference_gradient(f, x0: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central differences of a scalar function of one float64 array."""
    grad = np.zeros_like(x0, dtype=np.float64)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += step
        xm = x0.copy()
        xm[idx] -= step
        grad[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return grad


def leaf(data) -> Tensor:
    """A tensor that records gradients, as an optimized parameter or a
    saliency map's input does."""
    t = Tensor(data)
    t.requires_grad = True
    return t


def identity_kernel(channels: int) -> Tensor:
    """A 1x1 conv kernel that maps each channel onto itself, exactly: the
    conv that a batch norm runs hands it its input unchanged."""
    return Tensor(np.eye(channels, dtype=np.float32)[:, :, None, None])


def gradcheck(build, x0: np.ndarray, seed: int = 0, step: float = 1e-3,
              rtol: float = 1e-3) -> float:
    """Compare analytic input gradient of sum(build(x) * W) against central
    finite differences; W is a fixed random weighting so transposition bugs
    cannot cancel.  Returns the max relative error."""
    rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=np.float64)
    probe = build(Tensor(x0))
    wts = rng.standard_normal(probe.data.shape)

    def loss_value(xv):
        return float(np.sum(build(Tensor(xv)).data * wts, dtype=np.float64))

    x = leaf(x0.copy())
    ad.backward(build(x), wts)
    analytic = x.grad
    numeric = finite_difference_gradient(loss_value, x0, step)
    denom = np.maximum(np.abs(numeric), 1e-6)
    rel = float(np.max(np.abs(analytic - numeric) / denom))
    assert rel < rtol, f"gradient mismatch: max rel err {rel:.3e} >= {rtol}"
    return rel


WINDOWS = {"hamming": np.hamming, "hann": np.hanning, "rect": np.ones}


def explicit_spectra(w, spec):
    """One-sided spectra (n_fft/2 + 1, n_frames) of the frames of waveform
    ``w``, frame t the samples [t*hop, t*hop + frame_len): X of the windowed
    frames and Y of the index-ramped windowed frames, the ramp applied before
    the window, each weighted stack through its own rfft."""
    win = WINDOWS[spec.window](spec.frame_len)
    idx = np.arange(spec.frame_len)[None, :] + spec.hop * np.arange(
        (w.samples.size - spec.frame_len) // spec.hop + 1)[:, None]
    frames = w.samples[idx]
    x = np.fft.rfft(frames * win, n=spec.n_fft, axis=1).T
    y = np.fft.rfft(frames * np.arange(spec.frame_len) * win, n=spec.n_fft, axis=1).T
    return x, y


def ckpt_with_config(blob: bytes, payload: bytes = None, **config) -> bytes:
    """The checkpoint ``blob`` with ``config`` set in its header's model
    config, a key set to None removed, and ``payload``, if given, in place
    of the arrays after it."""
    header_end = 10 + int.from_bytes(blob[6:10], "little")
    header = json.loads(blob[10:header_end])
    header["config"].update(config)
    header["config"] = {k: v for k, v in header["config"].items() if v is not None}
    text = json.dumps(header).encode()
    arrays = blob[header_end:] if payload is None else payload
    return blob[:6] + struct.pack("<I", len(text)) + text + arrays


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Tiny end-to-end corpus -> features -> model -> scores, reused by the
    CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    feats = root / "feats"
    ckpt = root / "model.ckpt"
    scores = root / "eval_scores.txt"

    cfg = root / "toy.cfg"
    cfg.write_text(
        "[train]\nlr = 2e-3\nbatch_size = 6\nmax_epochs = 2\nseed = 1\n"
        "[model]\nchannels = 2\nfc_width = 8\n"
    )
    assert main(["simulate", "--out", str(corpus), "--sources", "4",
                 "--utts", "2", "--seed", "5"]) == 0
    for split in ("train", "dev", "eval"):
        assert main(["extract", "--feature", "stft",
                     "--protocol", str(corpus / f"protocol_{split}.txt"),
                     "--wav-dir", str(corpus / "wav"), "--out", str(feats),
                     "--bin-stride", "32", "--frame-stride", "25"]) == 0
    assert main(["train", "--feature-dir", str(feats),
                 "--protocol-train", str(corpus / "protocol_train.txt"),
                 "--protocol-dev", str(corpus / "protocol_dev.txt"),
                 "--objective", "bfl", "--gamma", "2",
                 "--config", str(cfg), "--out", str(ckpt)]) == 0
    assert main(["score", "--ckpt", str(ckpt), "--feature-dir", str(feats),
                 "--protocol", str(corpus / "protocol_eval.txt"),
                 "--out", str(scores)]) == 0
    return root, corpus, feats, ckpt, scores, cfg
