"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float32 by default; linear and convolution GEMMs run in the
promoted dtype of their operands, and reductions accumulate in float64 before
casting back.  Every primitive records a backward closure on the implicit
tape (the parent links).  ``backward(out, grad)`` takes the gradient of a
loss with respect to ``out``, topologically sorts the graph and fills
``.grad`` on its leaves only: the tensors that require gradients but were
made by no op, such as the optimizer's parameters and a saliency map's
input.  A pass first resets the gradient of every tensor it reaches, so a
leaf's ``.grad`` is this pass's alone and nothing else has to zero it.  It
frees the graph behind it: each interior tensor loses its gradient, closure
and parent links as soon as its closure has run, so the graph can be
backpropagated once, and a second pass raises ContractError.  The pass pops
each node off its topological list, so an interior tensor, data and all, goes
as soon as its own closure and its consumers' have run, unless the caller
holds it.

The tape keeps each array once.  A closure keeps its parents, which are alive
anyway, and what it cannot rebuild from them cheaply: ``conv2d`` keeps its
input, not a padded copy or its im2col buffer, and pads, casts and builds the
columns again for the weight gradient; ``BatchNorm2d`` keeps the per-channel
``mu`` and ``inv_std`` and rebuilds the normalized input only where a gradient
reads it; ``maxpool2d`` keeps the slot of each window's maximum, and its
backward adds the gradient tap by tap.  Each rebuilt value is the same bytes
as the one the forward used.  ``BatchNorm2d`` ends in a block's residual add
and ReLU.

The tape drops an array one way: ``release(t)`` swaps a tensor's data for
its shape and dtype alone once its forward readers have run, and its first
read rebuilds it by ``t._rebuild`` and keeps it until it is released again.
A batch norm convolves its own input and releases that conv output once it
has its statistics, so no caller sees it: the conv output is an ordinary
parent of the batch norm's node, rebuilt at its first read in the backward,
and the backward pass runs the conv's closure on the gradient the batch
norm hands it.  A conv is lowered three times a step: forward, rebuild and
weight gradient.  Reading a released tensor's ``shape`` or ``dtype``
rebuilds nothing, and reading its data once the backward pass has freed its
graph raises ContractError.  A tensor records a rebuild only on the tape, so
a scoring forward releases nothing and chains no closures.  The model also
releases the stem's batch norm output and each block's first and projection
outputs, so a basic block keeps one array of its output's size.

No array of a whole batch's im2col columns is ever built: the conv's forward,
its rebuild and its backward each lower a chunk of samples at a time, as many
as fit ``COLS_BUDGET`` bytes of columns.  numpy's batched ``matmul`` makes one
GEMM per sample, and the weight gradient adds each sample's term in sample
order, so every byte is the one a whole-batch conv gives.  A 16-gram 65x50
step traces 10.3 MB, and a 32-gram 65x50 scoring batch 7.6 MB.

The engine holds the ops the ResNet runs, and no other: ``log_softmax``,
``linear``, ``maxpool2d``, ``global_avg_pool`` and ``BatchNorm2d``, which
runs ``conv2d``; each ReLU ends a batch norm or the hidden ``linear``.  The
training loss is not on the tape: ``objectives.bfl`` returns its gradient
with respect to the log-probabilities, and a saliency map seeds a one-hot one.

Only tensors whose gradient someone consumes record a tape: an op records
nothing when none of its inputs requires gradients.  Tensors are built
without gradients; the model's train-mode forward turns them on for its
parameters and its eval-mode forward turns them off, and a saliency map turns
them on for its input only.  So scoring records no tape, even between
training steps, and a backward pass computes no weight gradient nobody
reads.

Convolution reads its windows through one strided view (``_windows``); its
adjoint ``_fold`` adds window gradients back tap by tap for the conv and the
max pool alike, straight into the unpadded input gradient.  The conv lays its
column gradient out tap by tap, so each tap's is one block.  The max-pool
forward walks the taps itself, copying no window.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import ContractError, ShapeError


class _Shell:
    """A released tensor's data until its first read: the shape and dtype
    alone, no bytes."""
    __slots__ = ("shape", "dtype")

    def __init__(self, data: np.ndarray):
        self.shape, self.dtype = data.shape, data.dtype


class Tensor:
    __slots__ = ("_data", "grad", "requires_grad", "_parents", "_backward", "_rebuild",
                 "__weakref__")

    def __init__(self, data):
        if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            self._data = data
        else:
            self._data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = False
        self._parents = ()
        self._backward = None
        self._rebuild = None  # a tensor's way to compute its data again, kept on the tape

    @property
    def data(self) -> np.ndarray:
        if type(self._data) is _Shell:  # rebuilt at its first read, the same bytes
            self._data = self._rebuild()
        return self._data

    @data.setter
    def data(self, value: np.ndarray):
        self._data = value

    @property
    def shape(self):
        return self._data.shape  # a released tensor's too: nothing is rebuilt

    @property
    def dtype(self):
        return self._data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data, parents, backward_fn, rebuild=None) -> Tensor:
    """An op's output; on the tape, when a parent requires gradients, with
    its closure, its parents and its ``rebuild``."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
        out._rebuild = rebuild
    return out


def release(t: Tensor) -> None:
    """Let ``t``'s data go once its forward readers have run: its first read
    rebuilds it.  A tensor that records no rebuild keeps its data."""
    if t._rebuild is not None:
        t._data = _Shell(t._data)


def _promote(*tensors):
    return np.float64 if any(t.dtype == np.float64 for t in tensors) else np.float32


def _accum(tensor: Tensor, grad: np.ndarray, owned: bool = False):
    """Add ``grad`` to ``tensor.grad``.  An ``owned`` gradient is a new array
    that nothing else holds, so the first one becomes ``.grad`` uncopied."""
    grad = grad.astype(tensor.dtype, copy=False)
    if tensor.grad is None:
        tensor.grad = grad if owned else grad.copy()
    else:
        tensor.grad = tensor.grad + grad


def _released(*_):
    """Stands in for the closure and the rebuild of an interior tensor once a
    backward pass has run it and freed the graph behind it."""
    raise ContractError("backward: the graph was freed by an earlier backward pass")


def backward(out: Tensor, grad: np.ndarray) -> None:
    """Populate ``.grad`` of every leaf tensor reachable from ``out``, given
    ``grad``, a loss's gradient with respect to ``out``, and free the graph."""
    if np.shape(grad) != out.shape:
        raise ContractError(f"backward: gradient of shape {np.shape(grad)} "
                            f"for an output of shape {out.shape}")
    if not out.requires_grad:
        raise ContractError("output does not require gradients; nothing to backpropagate")

    topo = []
    seen = set()
    stack = [(out, False)]
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
    _accum(out, np.asarray(grad))
    # popped, not iterated: once its consumers and it have run, nothing here
    # holds an interior tensor, so its data goes before the pass ends
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents, node._rebuild = None, _released, (), _released


# ---------------------------------------------------------------------------
# dense primitives


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


def linear(x: Tensor, weight: Tensor, bias: Tensor, relu: bool) -> Tensor:
    """x (N, D) @ weight (O, D) transposed, plus bias (O,), clipped at 0 in
    place if ``relu``: the backward masks with ``out > 0``, as a batch norm's."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[1]:
        raise ShapeError(f"linear mismatch: input {x.data.shape}, weight {weight.data.shape}")
    dt = _promote(x, weight)
    xd = x.data.astype(dt, copy=False)
    wd = weight.data.astype(dt, copy=False)
    data = xd @ wd.T + bias.data.astype(dt, copy=False)
    if relu:
        np.maximum(data, 0, out=data)

    def bwd(g):
        if relu:
            g = g * (data > 0)
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


def _inside(offset: int, stride: int, n_out: int, size: int):
    """(first, stop, cell): the outputs o in [first, stop) whose input cell
    ``offset + stride * o`` lies in [0, size), and the first one's cell."""
    first = max(0, -(offset // stride))
    stop = min(n_out, (size - 1 - offset) // stride + 1)
    return first, stop, offset + stride * first


def _fold(tap, dx: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of ``_windows`` on an input of ``dx``'s shape padded by ``pad``:
    add ``tap(i, j)``, the (n, c, ho, wo) gradient of every window's tap (i,
    j), into ``dx`` in row-major tap order, and return it.  Cells of a window
    that land in the padding are left out, so no padded array is built."""
    n, c, h, w = dx.shape
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(w, kw, stride, pad)
    rows = [_inside(i - pad, stride, ho, h) for i in range(kh)]
    cols = [_inside(j - pad, stride, wo, w) for j in range(kw)]
    for i, (o0, o1, r) in enumerate(rows):
        for j, (p0, p1, q) in enumerate(cols):
            if o1 > o0 and p1 > p0:
                dx[:, :, r : r + stride * (o1 - o0) : stride, q : q + stride * (p1 - p0) : stride] \
                    += tap(i, j)[:, :, o0:o1, p0:p1]
    return dx


def _padded(x: np.ndarray, pad: int, fill, dtype) -> np.ndarray:
    """``x`` cast to ``dtype`` inside a border of ``pad`` cells of ``fill``."""
    if not pad:
        return x.astype(dtype, copy=False)
    n, c, h, w = x.shape
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), fill, dtype=dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


# bytes of im2col columns a conv builds at once: it lowers as many samples
# as fit, at least one, so no column buffer grows with the batch
COLS_BUDGET = 1 << 20


def conv2d(x: Tensor, weight: Tensor, stride: int, pad: int) -> Tensor:
    """Cross-correlation of NCHW input with OIHW kernels (no bias).  On the
    tape its output carries a rebuild, so the batch norm that runs it can
    release it (see ``BatchNorm2d``)."""
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
    k = c * kh * kw
    step = max(1, min(n, COLS_BUDGET // (k * ho * wo * np.dtype(out_dtype).itemsize)))
    chunks = [slice(s, s + step) for s in range(0, n, step)]
    w2 = weight.data.reshape(co, k).astype(out_dtype, copy=False)

    def lowered():
        # each chunk's im2col columns, in one buffer the pass refills: the
        # tape keeps x, the parent, and neither its padded copy nor its
        # columns (kh * kw times its size), so each pass pads, casts and
        # builds them again, the same bytes
        xp = np.zeros((step, c, h + 2 * pad, w + 2 * pad), dtype=out_dtype) if pad else None
        cols = np.empty((step, c, kh, kw, ho, wo), dtype=out_dtype)
        for chunk in chunks:
            xs = x.data[chunk]
            m = len(xs)
            if pad:
                xp[:m, :, pad : pad + h, pad : pad + w] = xs
                xs = xp[:m]
            np.copyto(cols[:m], _windows(xs, kh, kw, stride).transpose(0, 1, 4, 5, 2, 3))
            yield chunk, cols[:m].reshape(m, k, ho * wo)

    def forward():
        # matmul makes one GEMM per sample, so a chunk's outputs are the
        # bytes a whole batch's would be; the batch norm rebuilds by this too
        y = np.empty((n, co, ho * wo), dtype=out_dtype)
        for chunk, cols in lowered():
            np.matmul(w2, cols, out=y[chunk])
        return y.reshape(n, co, ho, wo)

    def weight_grad(g2):
        # each sample's term added in sample order from +0.0, as the sum
        # over a whole batch's terms adds them
        dw = np.zeros((co, k), dtype=np.float64)
        for chunk, cols in lowered():
            for term in np.matmul(g2[chunk], cols.transpose(0, 2, 1)):
                dw += term
        return dw.reshape(weight.data.shape)

    def input_grad(g2):
        # w2.T's rows permuted from (c, kh, kw) to (kh, kw, c), so that each
        # tap's gradient is one (m, c, ho, wo) block of a chunk's dcols
        taps = w2.T.reshape(c, kh, kw, co).transpose(1, 2, 0, 3).reshape(kh * kw * c, co)
        dx = np.zeros(x.shape, dtype=out_dtype)
        dcols = np.empty((step, kh * kw * c, ho * wo), dtype=out_dtype)
        for chunk in chunks:
            gs = g2[chunk]
            d = np.matmul(taps, gs, out=dcols[: len(gs)]).reshape(-1, kh, kw, c, ho, wo)
            _fold(lambda i, j: d[:, i, j], dx[chunk], kh, kw, stride, pad)
        return dx

    def bwd(g):
        g2 = g.reshape(n, co, ho * wo).astype(out_dtype, copy=False)
        if weight.requires_grad:
            _accum(weight, weight_grad(g2), owned=True)
        if x.requires_grad:
            _accum(x, input_grad(g2), owned=True)

    return _result(forward(), (x, weight), bwd, forward)


def maxpool2d(x: Tensor, kernel: int, stride: int, pad: int) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d expects NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    ho = _conv_out_size(h, kernel, stride, pad)
    wo = _conv_out_size(w, kernel, stride, pad)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"maxpool2d: window {kernel} too large for input {x.data.shape}")
    xp = _padded(x.data, pad, -np.inf, x.data.dtype)
    # a running maximum by argmax's rule: a later tap takes a window only if
    # greater, or a NaN over a number, and takes it bit for bit, so -0.0 and
    # NaN keep their bytes.  The tape keeps the slot, in the smallest int type
    best = xp[:, :, : stride * ho : stride, : stride * wo : stride].copy()
    slot = np.zeros(best.shape, np.min_scalar_type(kernel * kernel - 1))
    bits = best.view(f"u{xp.itemsize}")
    for k in range(1, kernel * kernel):
        i, j = divmod(k, kernel)
        tap = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
        take = ~(tap <= best) & (best == best)
        slot += take * (k - slot)
        bits ^= (bits ^ tap.view(bits.dtype)) * take

    def bwd(g):
        # a window's tap gets g where its maximum sits and 0 elsewhere, one
        # tap at a time rather than one (n, c, ho, wo, k*k) buffer
        _accum(x, _fold(lambda i, j: np.where(slot == i * kernel + j, g, 0),
                        np.zeros(x.shape, dtype=np.float64), kernel, kernel, stride, pad),
               owned=True)

    return _result(best, (x,), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool expects NCHW input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3), dtype=np.float64).astype(x.data.dtype)

    def bwd(g):
        _accum(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.shape))

    return _result(data, (x,), bwd)


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class BatchNorm2d:
    """Per-channel batch normalization with running statistics.

    Not a primitive function because it owns state: gamma/beta parameters and
    running mean/var buffers (updated with momentum BN_MOMENTUM in training
    mode, frozen affine map in eval mode).

    A call can end in a block's epilogue, in place on the output: add
    ``residual``, then clip at 0 if ``relu``.  The backward masks with
    ``out > 0``, so no pre-activation array reaches the tape.

    A call convolves ``x`` with ``weight`` first, by ``conv2d``, releases
    that output and normalizes its array in place, so no caller sees it and
    the tape keeps only its shape.  The conv output is the node's first
    parent.  The backward reads it only where a gradient reads ``xhat``,
    normalizes it in place after releasing it again, and hands its gradient
    to it: the backward pass then runs the conv's closure, which builds its
    columns again, a chunk of samples at a time.

    The output's own rebuild normalizes a copy of the conv output and
    applies the epilogue in the forward's order, the same bytes.  The conv
    output it read stays for the backward, which then rebuilds nothing
    more, so a released output costs no extra conv lowering.
    """

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels, dtype=np.float32))
        self.beta = Tensor(np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def __call__(self, x: Tensor, weight: Tensor, stride: int, pad: int, train: bool,
                 residual: Tensor | None = None, relu: bool = False) -> Tensor:
        conv = conv2d(x, weight, stride, pad)
        y = conv.data
        if y.shape[1] != self.gamma.data.shape[0]:
            raise ShapeError(f"batchnorm2d: conv output {y.shape} does not carry "
                             f"{self.gamma.data.shape[0]} channels")
        gamma, beta = self.gamma, self.beta
        dt = y.dtype
        if residual is not None and (residual.shape, residual.dtype) != (y.shape, dt):
            raise ShapeError(f"batchnorm2d: residual {residual.shape} {residual.dtype} "
                             f"does not match conv output {y.shape} {dt}")
        m = y.shape[0] * y.shape[2] * y.shape[3]
        if train:
            # statistics accumulate in float64; elementwise math stays in dt
            mu = y.mean(axis=(0, 2, 3), dtype=np.float64)
            var = (y.astype(np.float64) ** 2).mean(axis=(0, 2, 3)) - mu**2
            var = np.maximum(var, 0.0)
            unbiased = var * m / max(m - 1, 1)
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mu
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * unbiased
        else:
            mu = self.running_mean
            var = self.running_var
        mu = mu.astype(dt)[:, None, None]
        inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(dt)[:, None, None]

        def normalized(xhat):
            # in place: a conv output becomes its xhat
            xhat -= mu
            xhat *= inv_std
            return xhat

        scale = gamma.data.astype(dt)[:, None, None]
        shift = beta.data.astype(dt)[:, None, None]

        def finished(data):
            # the epilogue, in place: scale, shift, residual, ReLU
            data *= scale
            data += shift
            if residual is not None:
                data += residual.data
            if relu:
                np.maximum(data, 0, out=data)
            return data

        release(conv)  # y is this call's own now: its backward rebuilds the conv output
        # off the tape the conv output stays: gamma's gradient may read it as it stood
        frozen = not conv.requires_grad and gamma.requires_grad
        data = finished(normalized(y.copy() if frozen else y))

        def bwd(g):
            if relu:
                g *= own().data > 0  # g is this output's own gradient
            if residual is not None and residual.requires_grad:
                _accum(residual, g)
            # the tape keeps mu and inv_std, not xhat: the conv output is
            # rebuilt at its first read, once, here or by this output's rebuild
            reads_xhat = gamma.requires_grad or (train and conv.requires_grad)
            xhat = normalized(conv.data) if reads_xhat else None
            release(conv)  # xhat is this closure's alone
            if gamma.requires_grad:
                _accum(gamma, (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64))
            if beta.requires_grad:
                _accum(beta, g.sum(axis=(0, 2, 3), dtype=np.float64))
            if conv.requires_grad:
                dx = g * scale
                if train:
                    # inv_std * (gx - (sum_gx + xhat * sum_gx_xhat) / m), in place
                    sum_gx = dx.sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
                    sum_gx_xhat = (dx * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(dt)
                    xhat *= sum_gx_xhat[:, None, None]
                    xhat += sum_gx[:, None, None]
                    xhat /= m
                    dx -= xhat
                dx *= inv_std
                _accum(conv, dx, owned=True)  # the backward pass runs the conv's closure next

        parents = (conv, gamma, beta) if residual is None else (conv, gamma, beta, residual)
        # a released output: the conv output rebuilt, normalized and finished
        # in the forward's order, the same bytes
        out = _result(data, parents, bwd, lambda: finished(normalized(conv.data.copy())))
        own = weakref.ref(out)  # weak: the output holds this closure
        return out
