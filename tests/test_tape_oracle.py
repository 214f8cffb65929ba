"""The tape keeps each array once, and every gradient keeps its bytes.

``conv2d`` keeps its input rather than a padded copy and lowers a chunk of
samples at a time rather than the whole batch, ``BatchNorm2d`` keeps
``mu`` and ``inv_std`` rather than ``xhat``, runs the conv before it and
releases its output for the backward to rebuild, and ends in a block's
residual add and ReLU, the max pool takes a running maximum tap by tap and
its backward hands ``_fold`` one tap at a time rather than a float64 window
buffer, and ``backward`` pops each node off its list, the hidden linear
layer ends in its ReLU, and the model releases the stem's, each bn1's and
each projection's outputs the same way.  Test-only copies of
the earlier ops, ``_fold`` and backward loop are the oracle, and so is the
network run on them, every conv output and every batch norm output kept:
every output and ``.grad`` must be equal in bytes.
"""

import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import identity_kernel, leaf
from replaycm import autodiff as ad
from replaycm import objectives
from replaycm.autodiff import BN_EPS, BN_MOMENTUM, BatchNorm2d, Tensor
from replaycm.errors import ShapeError
from replaycm.model import ResNet, ResNetConfig, saliency_map, score_batch
from replaycm.training import AdamW
from test_network_reference import CONV_CASES


def assert_same_bytes(got: list, want: list):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def oracle_backward(out, grad):
    """The earlier loop: it walks the topological list, which holds every
    node until the pass returns."""
    topo, seen, stack = [], set(), [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    for node in topo:
        node.grad = None
    ad._accum(out, np.asarray(grad))
    for node in reversed(topo):
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, ad._released, ()


def oracle_add(a, b):
    """The engine's earlier ``add``.  Its one caller, the basic block, now
    adds the shortcut inside ``BatchNorm2d``."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs operands of one shape, got {a.data.shape} and {b.data.shape}")
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            ad._accum(a, g)
        if b.requires_grad:
            ad._accum(b, g)

    return ad._result(data, (a, b), bwd)


def oracle_relu(a):
    """The engine's earlier ``relu``.  Its callers now end a batch norm or
    the hidden linear layer in it."""
    data = np.maximum(a.data, 0)

    def bwd(g):
        ad._accum(a, g * (a.data > 0))

    return ad._result(data, (a,), bwd)


def oracle_fold(dwin, xp_shape, stride, dtype):
    """The earlier ``_fold``: scatter-add (n, c, ho, wo, kh, kw) window
    gradients back onto a zero array of the padded shape, tap by tap."""
    _, _, ho, wo, kh, kw = dwin.shape
    dxp = np.zeros(xp_shape, dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dwin[..., i, j]
    return dxp


def oracle_conv2d(x, weight, stride, pad):
    """The earlier conv: it lowers the whole batch to one im2col buffer, and
    its closure keeps the padded, cast input.  Its column gradient is laid
    out tap by tap, (kh, kw, c), as the engine's is."""
    n, c, h, w = x.data.shape
    co, _, kh, kw = weight.data.shape
    ho = ad._conv_out_size(h, kh, stride, pad)
    wo = ad._conv_out_size(w, kw, stride, pad)
    out_dtype = ad._promote(x, weight)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    xp = xp.astype(out_dtype, copy=False)

    def im2col():
        win = ad._windows(xp, kh, kw, stride)
        return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)

    w2 = weight.data.reshape(co, c * kh * kw).astype(out_dtype, copy=False)
    data = np.matmul(w2, im2col()).reshape(n, co, ho, wo)

    def bwd(g):
        g2 = g.reshape(n, co, ho * wo).astype(out_dtype, copy=False)
        if weight.requires_grad:
            dw = np.matmul(g2, im2col().transpose(0, 2, 1)).sum(axis=0, dtype=np.float64)
            ad._accum(weight, dw.reshape(weight.data.shape))
        if x.requires_grad:
            taps = w2.T.reshape(c, kh, kw, co).transpose(1, 2, 0, 3).reshape(kh * kw * c, co)
            dcols = np.matmul(taps, g2).reshape(n, kh, kw, c, ho, wo)
            dxp = oracle_fold(dcols.transpose(0, 3, 4, 5, 1, 2), xp.shape, stride, dcols.dtype)
            dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
            ad._accum(x, dx)

    return ad._result(data, (x, weight), bwd)


def oracle_maxpool2d(x, kernel, stride, pad):
    """The earlier max pool: its forward takes argmax over a copy of the
    windows, and its backward folds a float64 window buffer."""
    n, c, h, w = x.data.shape
    ho = ad._conv_out_size(h, kernel, stride, pad)
    wo = ad._conv_out_size(w, kernel, stride, pad)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                constant_values=-np.inf) if pad else x.data
    win = ad._windows(xp, kernel, kernel, stride).reshape(n, c, ho, wo, kernel * kernel)
    slot = win.argmax(axis=-1)[..., None].astype(np.min_scalar_type(kernel * kernel - 1))
    best = np.take_along_axis(win, slot, axis=-1)[..., 0]
    xp_shape, win_shape = xp.shape, win.shape

    def bwd(g):
        dwin = np.zeros(win_shape, dtype=np.float64)
        np.put_along_axis(dwin, slot, g[..., None], axis=-1)
        dxp = oracle_fold(dwin.reshape(n, c, ho, wo, kernel, kernel), xp_shape, stride, np.float64)
        dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
        ad._accum(x, dx)

    return ad._result(best, (x,), bwd)


class OracleBatchNorm2d(BatchNorm2d):
    """The earlier batch norm: it takes its conv's output as a tensor on the
    tape, its closure keeps xhat, and the residual add and the ReLU after it
    are ops of their own.  Its conv is the earlier one."""

    conv2d = staticmethod(oracle_conv2d)

    def __call__(self, x, weight, stride, pad, train, residual=None, relu=False):
        x = self.conv2d(x, weight, stride, pad)
        gamma, beta = self.gamma, self.beta
        dt = x.data.dtype
        if train:
            m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            mu = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
            var = (x.data.astype(np.float64) ** 2).mean(axis=(0, 2, 3)) - mu**2
            var = np.maximum(var, 0.0)
            unbiased = var * m / max(m - 1, 1)
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased
        else:
            mu = self.running_mean
            var = self.running_var
        inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(dt)
        xhat = (x.data - mu.astype(dt)[:, None, None]) * inv_std[:, None, None]
        data = gamma.data.astype(dt)[:, None, None] * xhat + beta.data.astype(dt)[:, None, None]

        def bwd(g):
            if gamma.requires_grad:
                ad._accum(gamma, (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64))
            if beta.requires_grad:
                ad._accum(beta, g.sum(axis=(0, 2, 3), dtype=np.float64))
            if x.requires_grad:
                gx = g * gamma.data.astype(dt)[:, None, None]
                if train:
                    m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                    sum_gx = gx.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
                    sum_gx_xhat = (gx * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
                    dx = (inv_std[:, None, None]
                          * (gx - (sum_gx[:, None, None] + xhat * sum_gx_xhat[:, None, None]) / m))
                else:
                    dx = gx * inv_std[:, None, None]
                ad._accum(x, dx)

        out = ad._result(data, (x, gamma, beta), bwd)
        if residual is not None:
            out = oracle_add(out, residual)
        return oracle_relu(out) if relu else out


ENGINES = {
    "change": (BatchNorm2d, ad.maxpool2d, ad.backward),
    "oracle": (OracleBatchNorm2d, oracle_maxpool2d, oracle_backward),
}


@st.composite
def graphs(draw):
    """A conv, batch norm, relu, residual add and max pool, with its sizes,
    dtype, mode and which tensors take gradients."""
    k = draw(st.integers(1, 3))
    pad = draw(st.integers(0, k - 1))
    pool = draw(st.integers(1, 3))
    return dict(
        n=draw(st.integers(1, 3)), c=draw(st.integers(1, 3)), co=draw(st.integers(1, 4)),
        h=draw(st.integers(k + 2 * pool, 12)), w=draw(st.integers(k + 2 * pool, 12)),
        k=k, stride=draw(st.integers(1, 2)), pad=pad,
        pool=pool, pool_stride=draw(st.integers(1, 2)), pool_pad=draw(st.integers(0, pool // 2)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        train=draw(st.booleans()),
        params=draw(st.booleans()),  # False: the input alone, as a saliency map takes it
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def run(engine: str, g: dict) -> list:
    batch_norm, maxpool2d, backward = ENGINES[engine]
    rng = np.random.default_rng(g["seed"])
    x = leaf(rng.standard_normal((g["n"], g["c"], g["h"], g["w"])).astype(g["dtype"]))
    weight = Tensor(rng.standard_normal((g["co"], g["c"], g["k"], g["k"])).astype(np.float32))
    bn = batch_norm(g["co"])
    bn.gamma.data = rng.uniform(0.5, 1.5, g["co"]).astype(np.float32)
    bn.beta.data = rng.standard_normal(g["co"]).astype(np.float32)
    bn.running_mean = rng.standard_normal(g["co"])
    bn.running_var = rng.uniform(0.5, 2.0, g["co"])
    for p in (weight, bn.gamma, bn.beta):
        p.requires_grad = g["params"]
    y = bn(x, weight, g["stride"], g["pad"], train=g["train"])
    z = oracle_add(oracle_relu(y), y)  # y has two consumers
    out = maxpool2d(z, g["pool"], g["pool_stride"], g["pool_pad"])
    backward(out, rng.standard_normal(out.shape).astype(out.data.dtype))
    grads = [x.grad] + ([weight.grad, bn.gamma.grad, bn.beta.grad] if g["params"] else [])
    return [out.data] + grads + [bn.running_mean, bn.running_var]


# a wide conv, where the column gradient's row order shows in the bytes of
# the input gradient, over several samples
WIDE = dict(n=5, c=16, co=32, h=11, w=9, k=3, stride=1, pad=1, pool=2, pool_stride=1,
            pool_pad=0, dtype=np.float32, train=True, params=True, seed=0)


@settings(max_examples=200, deadline=None)
@given(graphs())
@example(WIDE)
def test_every_gradient_keeps_its_bytes(g):
    assert_same_bytes(run("change", g), run("oracle", g))


@settings(max_examples=100, deadline=None)
@given(graphs())
@example(WIDE)
def test_one_sample_per_chunk_keeps_every_byte(g):
    with mock.patch.object(ad, "COLS_BUDGET", 1):
        change = run("change", g)
    assert_same_bytes(change, run("oracle", g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 5, 16, 17, 33])
@pytest.mark.parametrize("c_in, c_out, kernel, stride, pad, bins, frames", CONV_CASES)
def test_a_conv_keeps_every_byte_across_its_chunks(c_in, c_out, kernel, stride, pad, bins,
                                                   frames, n, dtype):
    # at the module's budget, most of these batches span several chunks,
    # the last of them short
    rng = np.random.default_rng(c_in * 1000 + c_out * 10 + kernel + stride + n)
    x0 = np.maximum(rng.standard_normal((n, c_in, bins, frames)), 0.0).astype(dtype)
    w0 = rng.standard_normal((c_out, c_in, kernel, kernel)).astype(dtype)
    results = []
    for conv2d in (ad.conv2d, oracle_conv2d):
        x, w = leaf(x0.copy()), leaf(w0.copy())
        y = conv2d(x, w, stride, pad)
        ad.backward(y, np.random.default_rng(n).standard_normal(y.shape).astype(dtype))
        results.append([y.data, x.grad, w.grad])
    assert_same_bytes(*results)


@st.composite
def epilogues(draw):
    """A batch norm with or without a residual and a ReLU after it, with its
    sizes, dtype, mode and which tensors take gradients.  Its conv is the
    identity kernel, so the batch norm normalizes the drawn input itself."""
    return dict(
        shape=draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
                             st.integers(1, 5))),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        train=draw(st.booleans()),
        params=draw(st.booleans()),  # False: the inputs alone, as a saliency map takes them
        residual=draw(st.booleans()),
        relu=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def epilogue(fused: bool, e: dict) -> list:
    rng = np.random.default_rng(e["seed"])
    c = e["shape"][1]
    x = leaf(rng.standard_normal(e["shape"]).astype(e["dtype"]))
    residual = leaf(rng.standard_normal(e["shape"]).astype(e["dtype"])) if e["residual"] else None
    bn = BatchNorm2d(c)
    bn.gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
    bn.beta.data = rng.standard_normal(c).astype(np.float32)
    bn.running_mean = rng.standard_normal(c)
    bn.running_var = rng.uniform(0.5, 2.0, c)
    bn.gamma.requires_grad = bn.beta.requires_grad = e["params"]
    eye = identity_kernel(c)
    if fused:
        out = bn(x, eye, 1, 0, e["train"], residual, relu=e["relu"])
    else:
        out = bn(x, eye, 1, 0, e["train"])
        if residual is not None:
            out = oracle_add(out, residual)
        if e["relu"]:
            out = oracle_relu(out)
    ad.backward(out, rng.standard_normal(out.shape).astype(out.data.dtype))
    grads = [x.grad] + ([residual.grad] if e["residual"] else [])
    grads += [bn.gamma.grad, bn.beta.grad] if e["params"] else []
    return [out.data] + grads + [bn.running_mean, bn.running_var]


@settings(max_examples=200, deadline=None)
@given(epilogues())
def test_the_fused_epilogue_keeps_every_byte(e):
    assert_same_bytes(epilogue(True, e), epilogue(False, e))


# the values a linear layer's input and bias may hold beyond finite numbers
LINEAR_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]


@st.composite
def linears(draw):
    """A linear layer's sizes, dtypes, which tensors take gradients, and
    where its input and bias hold one of LINEAR_VALUES (a pick past the list
    keeps the random value)."""
    n, d, o = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    picks = st.integers(0, 2 * len(LINEAR_VALUES))
    return dict(
        n=n, d=d, o=o,
        x_dtype=draw(st.sampled_from([np.float32, np.float64])),
        w_dtype=draw(st.sampled_from([np.float32, np.float64])),
        params=draw(st.booleans()),  # False: the input alone, as a saliency map takes it
        x_picks=draw(hnp.arrays(np.int8, (n, d), elements=picks)),
        b_picks=draw(hnp.arrays(np.int8, (o,), elements=picks)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _with_values(values: np.ndarray, picks: np.ndarray) -> np.ndarray:
    hit = picks < len(LINEAR_VALUES)
    values[hit] = np.array(LINEAR_VALUES, values.dtype)[picks[hit]]
    return values


def linear_relu(fused: bool, e: dict) -> list:
    rng = np.random.default_rng(e["seed"])
    x = leaf(_with_values(rng.standard_normal((e["n"], e["d"])).astype(e["x_dtype"]),
                          e["x_picks"]))
    weight = Tensor(rng.standard_normal((e["o"], e["d"])).astype(e["w_dtype"]))
    bias = Tensor(_with_values(rng.standard_normal(e["o"]).astype(e["w_dtype"]), e["b_picks"]))
    weight.requires_grad = bias.requires_grad = e["params"]
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
        if fused:
            out = ad.linear(x, weight, bias, relu=True)
        else:
            out = oracle_relu(ad.linear(x, weight, bias, relu=False))
        ad.backward(out, rng.standard_normal(out.shape).astype(out.data.dtype))
    return [out.data, x.grad] + ([weight.grad, bias.grad] if e["params"] else [])


@settings(max_examples=200, deadline=None)
@given(linears())
def test_the_linear_relu_keeps_every_byte(e):
    assert_same_bytes(linear_relu(True, e), linear_relu(False, e))


# ties (1.0 twice, and 0.0 with -0.0), the max pool's -inf padding, and NaNs
# of both signs: argmax takes the first NaN of a window, bytes and all
POOL_VALUES = [0.0, -0.0, 1.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan]


@st.composite
def pools(draw):
    kernel = draw(st.integers(1, 3))
    shape = draw(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(kernel, 7),
                           st.integers(kernel, 7)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    picks = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, len(POOL_VALUES) - 1)))
    return dict(x=np.array(POOL_VALUES, dtype)[picks], kernel=kernel,
                stride=draw(st.integers(1, 2)), pad=draw(st.integers(0, kernel // 2)),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(pools())
def test_the_max_pool_takes_argmaxs_tap(p):
    # the gradient lands on each window's tap, so it shows the slot
    results = []
    for maxpool2d in (ad.maxpool2d, oracle_maxpool2d):
        x = leaf(p["x"].copy())
        y = maxpool2d(x, p["kernel"], p["stride"], p["pad"])
        ad.backward(y, np.random.default_rng(p["seed"]).standard_normal(y.shape))
        results.append((y.data, x.grad))
    for a, b in zip(*results):
        assert a.dtype == b.dtype and a.shape == b.shape and a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


def test_a_detect_shaped_train_step_peaks_under_13_mb():
    # one 16-gram 65x50 step: with the padded conv inputs, each xhat, the
    # max-pool window buffer and every activation held until backward
    # returned, the traced peak was 77 MB; with each batch norm's output,
    # each residual sum and the stem's pre-activation kept for their ReLUs,
    # it was 48 MB; with each conv output kept for its batch norm, 30 MB;
    # with each conv's whole-batch im2col columns, 19 MB; with the stem's,
    # each bn1's and each projection's outputs kept, 17 MB; it is 10.3 MB now
    model = ResNet(ResNetConfig(input_bins=65, input_frames=50), seed=0)
    AdamW(model.parameters(), lr=1e-3, betas=(0.9, 0.999), weight_decay=0.0)
    x = Tensor(np.random.default_rng(0).standard_normal((16, 1, 65, 50)).astype(np.float32))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        lp = model.forward(x, train=True)
        ad.backward(lp, np.full((16, 2), 1 / 32))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 13e6


def test_a_32_gram_score_batch_peaks_under_12_mb():
    # each conv lowers a chunk of samples at a time: with one im2col buffer
    # for the whole batch, the traced peak was 20.1 MB
    model = ResNet(ResNetConfig(input_bins=65, input_frames=50), seed=0)
    grams = np.random.default_rng(0).standard_normal((32, 65, 50)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        score_batch(model, grams)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def _tape(out):
    """Every tensor reachable from ``out`` through its parent links."""
    seen, stack = {}, [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return seen.values()


def test_an_identity_block_keeps_one_array_of_its_output_size():
    cfg = ResNetConfig(input_bins=65, input_frames=50)
    n, chans = 16, cfg.stage_channels
    model = ResNet(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).standard_normal((n, 1, 65, 50)).astype(np.float32))
    lp = model.forward(x, train=True)
    # the arrays themselves: reading .data would rebuild a released output
    kept = sum(t._data.nbytes for t in _tape(lp)
               if t._backward is not None and isinstance(t._data, np.ndarray))
    # float32 interior arrays: the max pool's output, and per block bn2's
    # (shortcut and ReLU fused).  Each batch norm runs the conv before it, so
    # no conv output is kept: with them, a block kept four.  The stem's batch
    # norm output, each bn1's and each projection's are released once their
    # one forward reader has run: with them, a block kept two.  A separate
    # ReLU and add would keep three more per block
    h, w = 65, 50
    expected = n * chans[0] * h * w * 4
    for stage, (ch, count) in enumerate(zip(chans, cfg.block_counts)):
        if stage:
            h, w = (h + 1) // 2, (w + 1) // 2
        expected += count * n * ch * h * w * 4
    # the head: average pool, hidden layer (ReLU fused), logits, log-probabilities
    expected += n * (chans[3] + cfg.fc_width + 2 * 2) * 4
    assert kept == expected


def test_an_interior_tensor_goes_once_its_consumers_have_run(rng):
    x = leaf(rng.standard_normal((2, 3)))
    h1 = oracle_relu(x)
    h2 = oracle_relu(h1)
    out = oracle_relu(h2)
    h2_ref = weakref.ref(h2)
    gone = []
    h1_backward = h1._backward

    def probe(g):  # h1's closure runs after out's and h2's
        gone.append(h2_ref() is None)
        h1_backward(g)

    h1._backward = probe
    del h1, h2
    ad.backward(out, np.ones(out.shape))
    assert gone == [True]
    assert np.array_equal(x.grad, (x.data > 0).astype(x.data.dtype))


# odd sizes, so that a stride-2 conv's last window reaches into the padding
ODD = ResNetConfig(channels=2, fc_width=8, input_bins=11, input_frames=9)
# (model, parameter dtype, batch, steps): the odd toy, and detect's shapes
ORACLE_CASES = {
    "float32": (ODD, np.float32, 5, 3),
    "float64": (ODD, np.float64, 5, 3),
    "detect-float32": (ResNetConfig(input_bins=65, input_frames=50), np.float32, 16, 1),
}


def steps_then_eval(cfg, dtype, n, steps) -> list:
    """Log-probabilities, gradients, parameters and running statistics of
    training steps, then an eval score batch and a saliency map."""
    model = ResNet(cfg, seed=3)
    params = model.parameters()
    for p in params.values():
        p.data = p.data.astype(dtype)
    opt = AdamW(params, lr=1e-2, betas=(0.9, 0.999), weight_decay=1e-4)
    rng = np.random.default_rng(4)
    shape = (cfg.input_bins, cfg.input_frames)
    arrays = []
    for _ in range(steps):
        x = Tensor(rng.standard_normal((n, 1, *shape)).astype(np.float32))
        lp = model.forward(x, train=True)
        _, grad = objectives.bfl(lp.data, rng.integers(0, 2, n), (0.5, 1.5), 2.0)
        ad.backward(lp, grad)
        arrays += [lp.data] + [p.grad.copy() for p in params.values()]
        opt.step()
    arrays += list(model.state().values())
    grams = rng.standard_normal((4, *shape)).astype(np.float32)
    return arrays + [score_batch(model, grams), saliency_map(model, grams[0])]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_absorbing_every_conv_output_keeps_every_byte(case, monkeypatch):
    # the oracle: every batch norm of the network is the earlier one after
    # the earlier conv, which lowers the whole batch at once, so it keeps
    # that conv's output and its own on the tape, releases none, and
    # backpropagates into the conv output.  The engine runs at its own
    # budget, then at one sample per chunk
    with monkeypatch.context() as m:
        m.setattr(BatchNorm2d, "__call__", OracleBatchNorm2d.__call__)
        m.setattr(BatchNorm2d, "conv2d", staticmethod(oracle_conv2d), raising=False)
        every_output_kept = steps_then_eval(*ORACLE_CASES[case])
    assert_same_bytes(steps_then_eval(*ORACLE_CASES[case]), every_output_kept)
    monkeypatch.setattr(ad, "COLS_BUDGET", 1)
    assert_same_bytes(steps_then_eval(*ORACLE_CASES[case]), every_output_kept)
