"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float32 by default; linear and convolution GEMMs run in the
promoted dtype of their operands, and reductions accumulate in float64 before
casting back.  Every primitive records a backward closure on the implicit
tape (the parent links); ``backward`` on a scalar loss topologically sorts
the graph and fills ``.grad`` on every tensor that requires gradients.

Only tensors whose gradient someone consumes record a tape: an op records
nothing when none of its inputs requires gradients.  Tensors are built
without gradients; the optimizer turns them on for the parameters it steps,
and a saliency map for its input only.  So scoring a fresh or loaded model
records no tape, and a backward pass computes no weight gradient nobody
reads.

Convolution and max pooling read their windows through one strided view
(``_windows``); ``_fold`` is its adjoint and holds the only loop over kernel
taps.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _promote(*tensors):
    return np.float64 if any(t.data.dtype == np.float64 for t in tensors) else np.float32


def _accum(tensor: Tensor, grad: np.ndarray):
    grad = grad.astype(tensor.data.dtype, copy=False)
    if tensor.grad is None:
        tensor.grad = grad.copy()
    else:
        tensor.grad = tensor.grad + grad


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Populate ``.grad`` of every requires_grad tensor reachable from loss."""
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not require gradients; nothing to backpropagate")

    topo = []
    seen = set()
    stack = [(loss, False)]
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
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _result(data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accum(a, -g)

    return _result(-a.data, (a,), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), bwd)


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    data = np.power(a.data, exponent)

    def bwd(g):
        # d/dx x**p = p * x**(p-1); guarded at x == 0 for p >= 1 where the
        # derivative is 0 (p == 1) or 0**(p-1) == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            deriv = exponent * np.power(a.data, exponent - 1.0)
        deriv = np.where(np.isfinite(deriv), deriv, 0.0)
        _accum(a, g * deriv)

    return _result(data, (a,), bwd)


def expm1(a: Tensor) -> Tensor:
    data = np.expm1(a.data)

    def bwd(g):
        _accum(a, g * np.exp(a.data))

    return _result(data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def bwd(g):
        _accum(a, g * (a.data > 0))

    return _result(data, (a,), bwd)


def tmean(a: Tensor) -> Tensor:
    data = np.asarray(a.data.mean(dtype=np.float64), dtype=a.data.dtype)

    def bwd(g):
        _accum(a, np.broadcast_to(g / a.data.size, a.data.shape))

    return _result(data, (a,), bwd)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Pick one column per row: a[i, index[i]] for a 2-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows expects 2-D input, got {a.data.shape}")
    index = np.asarray(index, dtype=np.int64)
    if index.shape != (a.data.shape[0],):
        raise ShapeError(
            f"index shape {index.shape} does not match rows of {a.data.shape}"
        )
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, index]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[rows, index] = g
        _accum(a, full)

    return _result(data, (a,), bwd)


def log_softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"log_softmax expects (batch, classes), got {a.data.shape}")
    x = a.data.astype(np.float64)
    m = x.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
    data = (x - lse).astype(a.data.dtype)

    def bwd(g):
        p = np.exp(data.astype(np.float64))
        _accum(a, g - p * g.sum(axis=1, keepdims=True))

    return _result(data, (a,), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x (N, D) @ weight (O, D) transposed, plus bias (O,)."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(f"linear mismatch: input {x.data.shape}, weight {weight.data.shape}")
    dt = _promote(x, weight)
    xd = x.data.astype(dt, copy=False)
    wd = weight.data.astype(dt, copy=False)
    data = xd @ wd.T + bias.data.astype(dt, copy=False)

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ wd)
        if weight.requires_grad:
            _accum(weight, g.T.astype(np.float64) @ xd.astype(np.float64))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0, dtype=np.float64))

    return _result(data, (x, weight, bias), bwd)


# ---------------------------------------------------------------------------
# 2-D network primitives (NCHW layout)


def _conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(n, c, ho, wo, kh, kw) view of every kh x kw window of NCHW ``xp``,
    taken every ``stride`` rows and columns."""
    return np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]


def _fold(dwin: np.ndarray, xp_shape, stride: int, dtype) -> np.ndarray:
    """Adjoint of ``_windows``: scatter-add (n, c, ho, wo, kh, kw) window
    gradients back onto a zero array of ``xp_shape``, tap by tap."""
    _, _, ho, wo, kh, kw = dwin.shape
    dxp = np.zeros(xp_shape, dtype=dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dwin[..., i, j]
    return dxp


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with OIHW kernels (no bias)."""
    if x.data.ndim != 4 or weight.data.ndim != 4 or x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(f"conv2d mismatch: input {x.data.shape}, kernel {weight.data.shape}")
    n, c, h, w = x.data.shape
    co, _, kh, kw = weight.data.shape
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(w, kw, stride, pad)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv2d: kernel {weight.data.shape} too large for input {x.data.shape}")
    # GEMMs and the cols buffer run in the promoted tensor dtype: float32
    # training batches stay in sgemm, float64 tensors (gradient checks) get
    # 64-bit end to end
    out_dtype = _promote(x, weight)
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    win = _windows(xp.astype(out_dtype, copy=False), kh, kw, stride)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, ho * wo)
    w2 = weight.data.reshape(co, c * kh * kw).astype(out_dtype, copy=False)
    data = np.matmul(w2, cols).reshape(n, co, ho, wo)
    xp_shape = xp.shape  # the tape keeps cols, not the padded input

    def bwd(g):
        g2 = g.reshape(n, co, ho * wo).astype(out_dtype, copy=False)
        if weight.requires_grad:
            dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0, dtype=np.float64)
            _accum(weight, dw.reshape(weight.data.shape))
        if x.requires_grad:
            dcols = np.matmul(w2.T, g2).reshape(n, c, kh, kw, ho, wo)
            dxp = _fold(dcols.transpose(0, 1, 4, 5, 2, 3), xp_shape, stride, dcols.dtype)
            dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
            _accum(x, dx)

    return _result(data, (x, weight), bwd)


def maxpool2d(x: Tensor, kernel: int = 3, stride: int = 1, pad: int = 1) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    ho = _conv_out_size(h, kernel, stride, pad)
    wo = _conv_out_size(w, kernel, stride, pad)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"maxpool2d: window {kernel} too large for input {x.data.shape}")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf) if pad else x.data
    win = _windows(xp, kernel, kernel, stride).reshape(n, c, ho, wo, kernel * kernel)
    # argmax keeps the first maximal tap in row-major order; the tape keeps
    # only that slot, in the smallest integer type (uint8 for 3x3 windows)
    slot = win.argmax(axis=-1)[..., None].astype(np.min_scalar_type(kernel * kernel - 1))
    best = np.take_along_axis(win, slot, axis=-1)[..., 0]
    # the tape keeps slot only, not the padded input or its window copy
    xp_shape, win_shape = xp.shape, win.shape

    def bwd(g):
        dwin = np.zeros(win_shape, dtype=np.float64)
        np.put_along_axis(dwin, slot, g[..., None], axis=-1)
        dxp = _fold(dwin.reshape(n, c, ho, wo, kernel, kernel), xp_shape, stride, np.float64)
        dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
        _accum(x, dx)

    return _result(best, (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3), dtype=np.float64).astype(x.data.dtype)

    def bwd(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape))

    return _result(data, (x,), bwd)


class BatchNorm2d:
    """Per-channel batch normalization with running statistics.

    Not a primitive function because it owns state: gamma/beta parameters and
    running mean/var buffers (updated with momentum 0.1 in training mode,
    frozen affine map in eval mode).
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32))
        self.beta = Tensor(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if x.data.ndim != 4 or x.data.shape[1] != self.gamma.data.shape[0]:
            raise ShapeError(
                f"batchnorm2d: input {x.data.shape} does not carry "
                f"{self.gamma.data.shape[0]} channels"
            )
        gamma, beta = self.gamma, self.beta
        dt = x.data.dtype
        if train:
            # statistics accumulate in float64; elementwise math stays in dt
            m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
            mu = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
            var = (x.data.astype(np.float64) ** 2).mean(axis=(0, 2, 3)) - mu**2
            var = np.maximum(var, 0.0)
            unbiased = var * m / max(m - 1, 1)
            self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mu
            self.running_var = (1 - self.momentum) * self.running_var + self.momentum * unbiased
        else:
            mu = self.running_mean
            var = self.running_var
        inv_std = (1.0 / np.sqrt(var + self.eps)).astype(dt)
        xhat = (x.data - mu.astype(dt)[:, None, None]) * inv_std[:, None, None]
        data = gamma.data.astype(dt)[:, None, None] * xhat + beta.data.astype(dt)[:, None, None]

        def bwd(g):
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64))
            if beta.requires_grad:
                _accum(beta, g.sum(axis=(0, 2, 3), dtype=np.float64))
            if x.requires_grad:
                gx = g * gamma.data.astype(dt)[:, None, None]
                if train:
                    m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                    sum_gx = gx.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
                    sum_gx_xhat = (gx * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
                    dx = (
                        inv_std[:, None, None]
                        * (gx - (sum_gx[:, None, None] + xhat * sum_gx_xhat[:, None, None]) / m)
                    )
                else:
                    dx = gx * inv_std[:, None, None]
                _accum(x, dx)

        return _result(data, (x, gamma, beta), bwd)
