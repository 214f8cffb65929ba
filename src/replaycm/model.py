"""Residual-network countermeasure classifier and its checkpoint format.

Stem: 3x3 conv -> batchnorm/ReLU -> 3x3 max pool (stride 1, so the printed
input shape is preserved).  Four stages of two-conv basic blocks with 1x1
projection shortcuts at each stride-2 stage transition, then global average
pooling, a hidden fully-connected layer and a 2-class output read out as
log-probabilities.  ``channels`` is stage 0's width, doubled at each later
stage: 16 in the paper, 4 by default for desk-scale runs.  Each batch norm
runs the conv before it on its own input and releases that conv output
(``autodiff.release``), and each but a projection's ends in its ReLU, a
block's second after the shortcut add.  The stem's batch norm output, a
block's first and a projection's are released the same way once their one
forward reader has run, and the backward rebuilds what it reads of them, so
the tape keeps one array of a block's output size.
"""

from __future__ import annotations

import json
import operator
import os
import struct
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm2d, Tensor
from .errors import FormatError, ParameterError, ShapeError, atomic_open
from .features import KIND_CODES

# the output layer's width: spoof and bonafide, read by score_batch and saliency_map
N_CLASSES = 2


@dataclass
class ResNetConfig:
    block_counts: tuple = (3, 4, 6, 3)
    channels: int = 4  # stage 0's width; the paper's network has 16
    fc_width: int = 32
    input_bins: int = 513
    input_frames: int = 500

    def __post_init__(self):
        counts = self.block_counts
        try:
            parts = counts.split(",") if isinstance(counts, str) else counts
            self.block_counts = tuple(int(b) if isinstance(b, str) else operator.index(b)
                                      for b in parts)  # a header's 3.5 is an error, not 3
        except (TypeError, ValueError):
            self.block_counts = ()
        if len(self.block_counts) != 4 or any(b < 1 for b in self.block_counts):
            raise ParameterError(f"block_counts must be four positive ints, got {counts!r}")
        for name in ("channels", "fc_width", "input_bins", "input_frames"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ParameterError(f"{name} must be a positive int, got {value!r}")

    @property
    def stage_channels(self) -> tuple:
        return tuple(self.channels * 2**i for i in range(4))

    @property
    def state_bytes(self) -> int:
        """Bytes of the arrays of ``ResNet(self).state()``: float32 weights,
        and per batch-norm channel two float32 parameters and two float64
        buffers.  A block has a projection where its channels double."""
        chans = self.stage_channels
        weights = 9 * chans[0] + self.fc_width * (chans[3] + 1) + N_CLASSES * (self.fc_width + 1)
        norm_channels = in_ch = chans[0]
        for out_ch, n_blocks in zip(chans, self.block_counts):
            proj = out_ch != in_ch
            # 3x3 convs: in -> out, then 2 * n_blocks - 1 of out -> out; a 1x1 projection
            weights += 9 * out_ch * (in_ch + (2 * n_blocks - 1) * out_ch) + proj * out_ch * in_ch
            norm_channels += out_ch * (2 * n_blocks + proj)
            in_ch = out_ch
        return 4 * weights + 24 * norm_channels


def _kaiming(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """He-normal float32 weights of ``shape``, (out, in, ...): fan-in ``prod(shape[1:])``."""
    std = np.sqrt(2.0 / np.prod(shape[1:]))
    return (rng.standard_normal(shape) * std).astype(np.float32)


def _zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


class BasicBlock:
    def __init__(self, init, in_ch: int, out_ch: int, stride: int):
        self.stride = stride
        self.conv1 = Tensor(init(out_ch, in_ch, 3, 3))
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Tensor(init(out_ch, out_ch, 3, 3))
        self.bn2 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.proj = Tensor(init(out_ch, in_ch, 1, 1))
            self.proj_bn = BatchNorm2d(out_ch)
        else:
            self.proj = None
            self.proj_bn = None

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        if self.proj is not None:
            shortcut = self.proj_bn(x, self.proj, self.stride, 0, train)
        else:
            shortcut = x
        h = self.bn1(x, self.conv1, self.stride, 1, train, relu=True)
        out = self.bn2(h, self.conv2, 1, 1, train, shortcut, relu=True)
        # read by bn2 alone: bn1's output is rebuilt in the backward, and a
        # projection's is never read again, its gradient all bn2 hands it
        ad.release(h)
        if self.proj is not None:
            ad.release(shortcut)
        return out


def _named_arrays(prefix: str, owner):
    for attr, value in vars(owner).items():
        if isinstance(value, BatchNorm2d):
            yield from _named_arrays(f"{prefix}{attr}_", value)
        elif isinstance(value, (Tensor, np.ndarray)):
            yield prefix + attr, owner, attr


class ResNet:
    def __init__(self, cfg: ResNetConfig, seed: int | None):
        """He-normal weights drawn from ``seed``; with ``seed=None``, zero
        weights for ``load_state`` to set, so nothing is drawn."""
        # the arrays' bytes, claimed at once: a config past memory fails here,
        # not after building blocks for seconds
        np.empty(cfg.state_bytes, dtype=np.uint8)
        self.cfg = cfg
        if seed is None:
            init = _zeros
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5245534E]))
            init = partial(_kaiming, rng)
        chans = cfg.stage_channels
        self.stem_conv = Tensor(init(chans[0], 1, 3, 3))
        self.stem_bn = BatchNorm2d(chans[0])
        self.stages = []
        in_ch = chans[0]
        for stage_idx, (out_ch, n_blocks) in enumerate(zip(chans, cfg.block_counts)):
            blocks = []
            for b in range(n_blocks):
                stride = 2 if (stage_idx > 0 and b == 0) else 1
                blocks.append(BasicBlock(init, in_ch, out_ch, stride))
                in_ch = out_ch
            self.stages.append(blocks)
        self.fc_w = Tensor(init(cfg.fc_width, chans[3]))
        self.fc_b = Tensor(np.zeros(cfg.fc_width, dtype=np.float32))
        self.out_w = Tensor(init(N_CLASSES, cfg.fc_width))
        self.out_b = Tensor(np.zeros(N_CLASSES, dtype=np.float32))

    def forward(self, x: Tensor, train: bool) -> Tensor:
        """(N, 1, bins, frames) batch to (N, N_CLASSES) log-probabilities.  A
        train-mode forward turns the parameters' gradients on and an eval-mode
        one turns them off, so scoring records no tape."""
        if x.data.ndim != 4 or x.data.shape[1] != 1:
            raise ShapeError(f"expected (N, 1, bins, frames) input, got {x.data.shape}")
        if x.data.shape[2] != self.cfg.input_bins or x.data.shape[3] != self.cfg.input_frames:
            raise ShapeError(
                f"input {x.data.shape[2:]} does not match configured "
                f"({self.cfg.input_bins}, {self.cfg.input_frames})"
            )
        for p in self.parameters().values():
            p.requires_grad = train
        stem = self.stem_bn(x, self.stem_conv, 1, 1, train, relu=True)
        h = ad.maxpool2d(stem, kernel=3, stride=1, pad=1)
        ad.release(stem)  # the max pool's backward reads only its slots
        del stem  # so that off the tape, as in scoring, it goes now
        for blocks in self.stages:
            for block in blocks:
                h = block(h, train)
        h = ad.global_avg_pool(h)
        h = ad.linear(h, self.fc_w, self.fc_b, relu=True)
        logits = ad.linear(h, self.out_w, self.out_b, relu=False)
        return ad.log_softmax(logits)

    # --- parameters and buffers ----------------------------------------

    def _arrays(self):
        """(name, owner, attribute) of every parameter tensor and batch-norm
        buffer, named by its attribute path: ``stem_conv``, ``stem_bn_gamma``,
        ``s1b0_proj_bn_running_var``, ``fc_w``; block j of stage i is ``s<i>b<j>``."""
        yield from _named_arrays("", self)
        for si, blocks in enumerate(self.stages):
            for bi, blk in enumerate(blocks):
                yield from _named_arrays(f"s{si}b{bi}_", blk)

    def parameters(self) -> dict:
        return {name: getattr(owner, attr) for name, owner, attr in self._arrays()
                if isinstance(getattr(owner, attr), Tensor)}

    def state(self) -> dict:
        """A copy of every parameter and buffer array, keyed ``param/<name>``
        and ``buffer/<name>`` as a checkpoint keys them."""
        state = {}
        for name, owner, attr in self._arrays():
            value = getattr(owner, attr)
            if isinstance(value, Tensor):
                state[f"param/{name}"] = value.data.copy()
            else:
                state[f"buffer/{name}"] = value.copy()
        return state

    def load_state(self, arrays: dict) -> None:
        """Set every parameter (as float32) and buffer (as float64) from
        ``arrays``, keyed and shaped as ``state`` gives them."""
        for name, owner, attr in self._arrays():
            current = getattr(owner, attr)
            is_param = isinstance(current, Tensor)
            key = f"param/{name}" if is_param else f"buffer/{name}"
            value = np.array(arrays[key], dtype=np.float32 if is_param else np.float64)
            if is_param:
                current.data = value
            else:
                setattr(owner, attr, value)


def score_batch(model: ResNet, grams: np.ndarray) -> np.ndarray:
    """Log-likelihood-ratio scores log p(bonafide) - log p(spoof) for a
    (N, bins, frames) stack of feature grams."""
    x = Tensor(np.asarray(grams, dtype=np.float32)[:, None, :, :])
    lp = model.forward(x, train=False).data
    return (lp[:, 1] - lp[:, 0]).astype(np.float64)


# the class whose log-probability a saliency map differentiates: bonafide
SALIENCY_CLASS = 1


def saliency_map(model: ResNet, gram: np.ndarray) -> np.ndarray:
    """|d log p(SALIENCY_CLASS) / d input| for a (bins, frames) gram, in its shape."""
    x = Tensor(np.asarray(gram, dtype=np.float32)[None, None, :, :])
    x.requires_grad = True  # the input is the only tensor whose gradient is read
    lp = model.forward(x, train=False)
    seed = np.zeros_like(lp.data)
    seed[0, SALIENCY_CLASS] = 1
    ad.backward(lp, seed)
    return np.abs(x.grad[0, 0])


# ---------------------------------------------------------------------------
# checkpoint format, version 2: magic, version and header length, a json
# header {"config", "extra"}, then the arrays of the model's ``state()`` in
# name order, little-endian; the model the config builds fixes their layout.
# ``extra["kind"]`` names the kind of gram the model was trained on.

_CKPT_MAGIC = b"RCMC"
_CKPT_VERSION = 2
_CKPT_HEAD = struct.Struct("<4sHI")


def save_checkpoint(path, model: ResNet, extra: dict) -> None:
    header = json.dumps({"config": asdict(model.cfg), "extra": extra},
                        sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_HEAD.pack(_CKPT_MAGIC, _CKPT_VERSION, len(header)))
        fh.write(header)
        for _, array in sorted(model.state().items()):
            fh.write(array.astype(array.dtype.newbyteorder("<"), copy=False).tobytes())


def load_checkpoint(path):
    """Returns (model, extra)."""
    with open(path, "rb") as fh:
        head = fh.read(_CKPT_HEAD.size)
        if len(head) != _CKPT_HEAD.size:
            raise FormatError(f"{path}: truncated checkpoint header")
        magic, version, header_len = _CKPT_HEAD.unpack(head)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint (magic {magic!r})")
        if version != _CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            cfg = ResNetConfig(**header["config"])
            extra = header["extra"]
            if extra["kind"] not in KIND_CODES:
                raise ValueError(f"unknown gram kind {extra['kind']!r}")
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        except ParameterError as exc:  # a well-formed config no model can take
            raise FormatError(f"{path}: {exc}") from exc
        # checked against the file before the model is built, so no claimed size is allocated
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if cfg.state_bytes != left:
            raise FormatError(f"{path}: config needs {cfg.state_bytes} array bytes, "
                              f"file holds {left}")
        model = ResNet(cfg, seed=None)  # the layout alone: load_state sets every array
        arrays = {}
        for name, array in sorted(model.state().items()):
            raw = fh.read(array.nbytes)
            arrays[name] = np.frombuffer(raw, array.dtype.newbyteorder("<")).reshape(array.shape)
            if not np.all(np.isfinite(arrays[name])):
                raise FormatError(f"{path}: non-finite values in array {name!r}")
    model.load_state(arrays)
    return model, extra
