"""A float64 reference for the network's ops, and the float32 engine's
distance from it on the shapes the CLI trains: the default ResNet, 4
channels wide at stage 0, on 65 x 50 grams, batch 16.

The reference is written loop by loop, one kernel tap and one channel at a
time, so it shares neither the engine's strided windows, its GEMMs nor its
``_fold``.  Each check bounds the engine's error cell by cell by TOL times
the cell's magnitude: the same op run on the absolute values of its
operands, which bounds every term's contribution to a float sum.
"""

import numpy as np
import pytest

from conftest import identity_kernel, leaf
from replaycm import autodiff as ad
from replaycm.autodiff import BN_EPS, BN_MOMENTUM, BatchNorm2d

# a float32 result whose error is a few roundings of each term's magnitude
TOL = 32 * float(np.finfo(np.float32).eps)
BATCH = 16

# (c_in, c_out, kernel, stride, pad, bins, frames) of the stem, a stride-1
# conv of each stage, and each stride-2 stage entry with its projection
CONV_CASES = [
    (1, 4, 3, 1, 1, 65, 50),
    (4, 4, 3, 1, 1, 65, 50),
    (4, 8, 3, 2, 1, 65, 50),
    (4, 8, 1, 2, 0, 65, 50),
    (8, 8, 3, 1, 1, 33, 25),
    (8, 16, 3, 2, 1, 33, 25),
    (8, 16, 1, 2, 0, 33, 25),
    (16, 16, 3, 1, 1, 17, 13),
    (16, 32, 3, 2, 1, 17, 13),
    (16, 32, 1, 2, 0, 17, 13),
    (32, 32, 3, 1, 1, 9, 7),
]
# (channels, bins, frames) each batch norm sees
BN_CASES = [(4, 65, 50), (8, 33, 25), (16, 17, 13), (32, 9, 7)]


def _out_size(size, kernel, stride, pad):
    return (size + 2 * pad - kernel) // stride + 1


def _pad(x, pad, value=0.0):
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=value)


def conv2d_reference(x, w, stride, pad, g):
    """Output, input gradient and kernel gradient of the cross-correlation
    of NCHW ``x`` with OIHW ``w``, for the output gradient ``g``."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    n, c, h, width = x.shape
    co, _, kh, kw = w.shape
    ho, wo = _out_size(h, kh, stride, pad), _out_size(width, kw, stride, pad)
    xp = _pad(x, pad)
    out = np.zeros((n, co, ho, wo))
    dxp = np.zeros(xp.shape)
    dw = np.zeros(w.shape)
    for i in range(kh):
        for j in range(kw):
            rows, cols = slice(i, i + stride * ho, stride), slice(j, j + stride * wo, stride)
            for ci in range(c):
                tap = xp[:, ci, rows, cols]  # (n, ho, wo)
                out += tap[:, None] * w[None, :, ci, i, j, None, None]
                dw[:, ci, i, j] = (g * tap[:, None]).sum(axis=(0, 2, 3))
                dxp[:, ci, rows, cols] += (g * w[None, :, ci, i, j, None, None]).sum(axis=1)
    return out, dxp[:, :, pad : pad + h, pad : pad + width], dw


def maxpool2d_reference(x, kernel, stride, pad, g):
    """Output and input gradient of max pooling; each window's value and
    gradient go to its first maximal tap in row-major order."""
    x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    n, c, h, width = x.shape
    ho, wo = _out_size(h, kernel, stride, pad), _out_size(width, kernel, stride, pad)
    xp = _pad(x, pad, -np.inf)
    best = np.full((n, c, ho, wo), -np.inf)
    first = np.zeros((n, c, ho, wo), dtype=np.int64)
    taps = [(i, j) for i in range(kernel) for j in range(kernel)]
    for t, (i, j) in enumerate(taps):
        v = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
        higher = v > best  # strictly, so a tie keeps the earlier tap
        best = np.where(higher, v, best)
        first = np.where(higher, t, first)
    dxp = np.zeros(xp.shape)
    for t, (i, j) in enumerate(taps):
        dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += \
            np.where(first == t, g, 0.0)
    return best, dxp[:, :, pad : pad + h, pad : pad + width]


def batchnorm_reference(x, gamma, beta, running_mean, running_var, train, g):
    """Output, running mean and variance after the call, and the input,
    gamma and beta gradients of batch normalization, channel by channel.
    In training the batch's statistics normalize, and its unbiased variance
    updates the running one; in evaluation the running statistics do."""
    x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    gamma, beta = np.asarray(gamma, dtype=np.float64), np.asarray(beta, dtype=np.float64)
    y, dx = np.empty(x.shape), np.empty(x.shape)
    new_mean, new_var = np.array(running_mean, dtype=np.float64), np.array(running_var)
    dgamma, dbeta = np.empty(gamma.shape), np.empty(beta.shape)
    for ch in range(x.shape[1]):
        xc, gc = x[:, ch], g[:, ch]
        m = xc.size
        if train:
            mu = xc.mean()
            var = ((xc - mu) ** 2).mean()
            new_mean[ch] = (1 - BN_MOMENTUM) * running_mean[ch] + BN_MOMENTUM * mu
            new_var[ch] = (1 - BN_MOMENTUM) * running_var[ch] + BN_MOMENTUM * var * m / (m - 1)
        else:
            mu, var = running_mean[ch], running_var[ch]
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (xc - mu) * inv_std
        y[:, ch] = gamma[ch] * xhat + beta[ch]
        dgamma[ch] = (gc * xhat).sum()
        dbeta[ch] = gc.sum()
        if train:
            dx[:, ch] = gamma[ch] * inv_std * (gc - (gc.sum() + xhat * (gc * xhat).sum()) / m)
        else:
            dx[:, ch] = gamma[ch] * inv_std * gc
    return y, new_mean, new_var, dx, dgamma, dbeta


def deviation(got, want, magnitude) -> float:
    """The largest |got - want| in units of the cell's magnitude."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape == magnitude.shape
    return float(np.max(np.abs(got - want) / np.maximum(magnitude, np.finfo(np.float64).tiny)))


def _activations(rng, shape):
    """Post-ReLU float32 activations: half of them exact zeros, as the
    stem's max pool and every conv after a ReLU see them."""
    return np.maximum(rng.standard_normal(shape), 0.0).astype(np.float32)


@pytest.mark.parametrize("c_in, c_out, kernel, stride, pad, bins, frames", CONV_CASES)
def test_conv2d_within_float32_rounding_of_the_reference(c_in, c_out, kernel, stride, pad,
                                                         bins, frames):
    rng = np.random.default_rng(c_in * 1000 + c_out * 10 + kernel + stride)
    x0 = _activations(rng, (BATCH, c_in, bins, frames))
    w0 = (rng.standard_normal((c_out, c_in, kernel, kernel))
          * np.sqrt(2.0 / (c_in * kernel * kernel))).astype(np.float32)
    x, w = leaf(x0), leaf(w0)
    y = ad.conv2d(x, w, stride, pad)
    g = rng.standard_normal(y.shape).astype(np.float32)
    ad.backward(y, g)
    assert y.data.dtype == x.grad.dtype == w.grad.dtype == np.float32

    want = conv2d_reference(x0, w0, stride, pad, g)
    magnitude = conv2d_reference(np.abs(x0), np.abs(w0), stride, pad, np.abs(g))
    for got, ref, mag in zip((y.data, x.grad, w.grad), want, magnitude):
        assert deviation(got, ref, mag) <= TOL


@pytest.mark.parametrize("stride", [1, 2])
def test_maxpool2d_matches_the_reference(stride, rng):
    # the stem's 3x3 pool runs at stride 1; stride 2 sends each input to
    # fewer windows
    x0 = _activations(rng, (BATCH, 4, 65, 50))
    x = leaf(x0)
    y = ad.maxpool2d(x, kernel=3, stride=stride, pad=1)
    g = rng.standard_normal(y.shape).astype(np.float32)
    ad.backward(y, g)

    out, dx = maxpool2d_reference(x0, 3, stride, 1, g)
    _, magnitude = maxpool2d_reference(x0, 3, stride, 1, np.abs(g))
    assert np.array_equal(y.data, out)  # a selection: no arithmetic to round
    assert deviation(x.grad, dx, magnitude) <= TOL


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("channels, bins, frames", BN_CASES)
def test_batchnorm2d_within_float32_rounding_of_the_reference(channels, bins, frames, train,
                                                              rng):
    bn = BatchNorm2d(channels)
    bn.gamma, bn.beta = (leaf(rng.uniform(lo, hi, channels).astype(np.float32))
                         for lo, hi in ((0.5, 1.5), (-0.5, 0.5)))
    bn.running_mean = rng.standard_normal(channels) * 0.5
    bn.running_var = rng.uniform(0.5, 2.0, channels)
    gamma0, beta0 = bn.gamma.data.copy(), bn.beta.data.copy()
    mean0, var0 = bn.running_mean.copy(), bn.running_var.copy()
    # a conv's output: no longer centred or of unit variance.  The batch norm
    # convolves it with the identity kernel first, which hands it on exactly
    x0 = (rng.standard_normal((BATCH, channels, bins, frames)) * 1.5 + 0.3).astype(np.float32)
    x = leaf(x0)
    y = bn(x, identity_kernel(channels), 1, 0, train)
    g = rng.standard_normal(y.shape).astype(np.float32)
    ad.backward(y, g)

    y_ref, mean_ref, var_ref, dx_ref, dgamma_ref, dbeta_ref = batchnorm_reference(
        x0, gamma0, beta0, mean0, var0, train, g)
    np.testing.assert_allclose(bn.running_mean, mean_ref, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(bn.running_var, var_ref, rtol=1e-12)

    # the magnitudes: the engine centres in float32, so a cell's error scales
    # with |x| + |mu|, not with |x - mu|
    axes = (0, 2, 3)
    mu = x0.astype(np.float64).mean(axis=axes) if train else mean0
    inv_std = 1.0 / np.sqrt((x0.astype(np.float64).var(axis=axes) if train else var0) + BN_EPS)
    scale = (np.abs(gamma0) * inv_std)[:, None, None]
    spread = (np.abs(x0) + np.abs(mu)[:, None, None]) * inv_std[:, None, None]
    abs_g = np.abs(g).astype(np.float64)
    assert deviation(y.data, y_ref, np.abs(gamma0)[:, None, None] * spread
                     + np.abs(beta0)[:, None, None]) <= TOL
    if train:
        m = x0.size // channels
        dx_mag = scale * (abs_g + (abs_g.sum(axis=axes)[:, None, None]
                                   + spread * (abs_g * spread).sum(axis=axes)[:, None, None]) / m)
    else:
        dx_mag = scale * abs_g
    assert deviation(x.grad, dx_ref, dx_mag) <= TOL
    assert deviation(bn.gamma.grad, dgamma_ref, (abs_g * spread).sum(axis=axes)) <= TOL
    assert deviation(bn.beta.grad, dbeta_ref, abs_g.sum(axis=axes)) <= TOL
