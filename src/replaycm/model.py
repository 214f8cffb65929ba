"""Residual-network countermeasure classifier and its checkpoint format.

Stem: 3x3 conv -> batchnorm/ReLU -> 3x3 max pool (stride 1, so the printed
input shape is preserved).  Four stages of two-conv basic blocks with 1x1
projection shortcuts at each stride-2 stage transition, then global average
pooling, a hidden fully-connected layer and a 2-class output read out as
log-probabilities.  ``scale`` divides all channel widths for desk-scale runs.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm2d, Tensor
from .errors import FormatError, ParameterError, ShapeError, atomic_open


@dataclass
class ResNetConfig:
    block_counts: tuple = (3, 4, 6, 3)
    base_channels: int = 16
    fc_width: int = 32
    n_classes: int = 2  # spoof and bonafide; kept in checkpoint headers
    input_bins: int = 513
    input_frames: int = 500
    scale: int = 4  # a quarter-width network unless a config says otherwise

    def __post_init__(self):
        counts = self.block_counts
        try:
            self.block_counts = tuple(int(b) for b in
                                      (counts.split(",") if isinstance(counts, str) else counts))
        except (TypeError, ValueError):
            self.block_counts = ()
        if len(self.block_counts) != 4 or any(b < 1 for b in self.block_counts):
            raise ParameterError(f"block_counts must be four positive ints, got {counts!r}")
        if self.scale < 1 or self.base_channels % self.scale != 0:
            raise ParameterError(
                f"scale {self.scale} must divide base_channels {self.base_channels}"
            )
        for name in ("base_channels", "fc_width", "input_bins", "input_frames"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive")
        if self.n_classes != 2:  # score_batch and saliency_map read both classes
            raise ParameterError(f"n_classes must be 2 (spoof, bonafide), got {self.n_classes}")

    @property
    def stage_channels(self) -> tuple:
        c = self.base_channels // self.scale
        return (c, 2 * c, 4 * c, 8 * c)


def _kaiming_conv(rng: np.random.Generator, co: int, ci: int, k: int) -> np.ndarray:
    fan_in = ci * k * k
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal((co, ci, k, k)) * std).astype(np.float32)


def _kaiming_linear(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    std = np.sqrt(2.0 / in_dim)
    return (rng.standard_normal((out_dim, in_dim)) * std).astype(np.float32)


class BasicBlock:
    def __init__(self, rng, in_ch: int, out_ch: int, stride: int):
        self.stride = stride
        self.conv1 = Tensor(_kaiming_conv(rng, out_ch, in_ch, 3))
        self.bn1 = BatchNorm2d(out_ch)
        self.conv2 = Tensor(_kaiming_conv(rng, out_ch, out_ch, 3))
        self.bn2 = BatchNorm2d(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.proj = Tensor(_kaiming_conv(rng, out_ch, in_ch, 1))
            self.proj_bn = BatchNorm2d(out_ch)
        else:
            self.proj = None
            self.proj_bn = None

    def __call__(self, x: Tensor, train: bool) -> Tensor:
        out = ad.relu(self.bn1(ad.conv2d(x, self.conv1, stride=self.stride, pad=1), train))
        out = self.bn2(ad.conv2d(out, self.conv2, stride=1, pad=1), train)
        if self.proj is not None:
            shortcut = self.proj_bn(ad.conv2d(x, self.proj, stride=self.stride, pad=0), train)
        else:
            shortcut = x
        return ad.relu(ad.add(out, shortcut))


def _named_arrays(prefix: str, owner):
    for attr, value in vars(owner).items():
        if isinstance(value, BatchNorm2d):
            yield from _named_arrays(f"{prefix}{attr}_", value)
        elif isinstance(value, (Tensor, np.ndarray)):
            yield prefix + attr, owner, attr


class ResNet:
    def __init__(self, cfg: ResNetConfig, seed: int):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5245534E]))
        chans = cfg.stage_channels
        self.stem_conv = Tensor(_kaiming_conv(rng, chans[0], 1, 3))
        self.stem_bn = BatchNorm2d(chans[0])
        self.stages = []
        in_ch = chans[0]
        for stage_idx, (out_ch, n_blocks) in enumerate(zip(chans, cfg.block_counts)):
            blocks = []
            for b in range(n_blocks):
                stride = 2 if (stage_idx > 0 and b == 0) else 1
                blocks.append(BasicBlock(rng, in_ch, out_ch, stride))
                in_ch = out_ch
            self.stages.append(blocks)
        self.fc_w = Tensor(_kaiming_linear(rng, cfg.fc_width, chans[3]))
        self.fc_b = Tensor(np.zeros(cfg.fc_width, dtype=np.float32))
        self.out_w = Tensor(_kaiming_linear(rng, cfg.n_classes, cfg.fc_width))
        self.out_b = Tensor(np.zeros(cfg.n_classes, dtype=np.float32))

    def forward(self, x: Tensor, train: bool) -> Tensor:
        """(N, 1, bins, frames) batch to (N, n_classes) log-probabilities."""
        if x.data.ndim != 4 or x.data.shape[1] != 1:
            raise ShapeError(f"expected (N, 1, bins, frames) input, got {x.data.shape}")
        if x.data.shape[2] != self.cfg.input_bins or x.data.shape[3] != self.cfg.input_frames:
            raise ShapeError(
                f"input {x.data.shape[2:]} does not match configured "
                f"({self.cfg.input_bins}, {self.cfg.input_frames})"
            )
        h = ad.relu(self.stem_bn(ad.conv2d(x, self.stem_conv, stride=1, pad=1), train))
        h = ad.maxpool2d(h, kernel=3, stride=1, pad=1)
        for blocks in self.stages:
            for block in blocks:
                h = block(h, train)
        h = ad.global_avg_pool(h)
        h = ad.relu(ad.linear(h, self.fc_w, self.fc_b))
        logits = ad.linear(h, self.out_w, self.out_b)
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
        ``arrays``, keyed as ``state`` keys them; KeyError names a missing
        one, ShapeError one whose shape is not the model's."""
        for name, owner, attr in self._arrays():
            current = getattr(owner, attr)
            is_param = isinstance(current, Tensor)
            key = f"param/{name}" if is_param else f"buffer/{name}"
            value = np.array(arrays[key], dtype=np.float32 if is_param else np.float64)
            if value.shape != current.shape:
                raise ShapeError(f"array {key!r} has shape {list(value.shape)}, "
                                 f"the model's is {list(current.shape)}")
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
# checkpoint format: magic, version and header length, json header (config +
# array directory + extras), then the raw little-endian buffers in directory
# order

_CKPT_MAGIC = b"RCMC"
_CKPT_VERSION = 1
_CKPT_HEAD = struct.Struct("<4sHI")


def save_checkpoint(path, model: ResNet, extra: dict) -> None:
    arrays = model.state()
    directory = [
        {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
        for name, arr in sorted(arrays.items())
    ]
    header = json.dumps(
        {
            "config": asdict(model.cfg),
            "arrays": directory,
            "optimizer": {},  # version-1 readers look this key up
            "extra": extra,
        },
        sort_keys=True,
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_HEAD.pack(_CKPT_MAGIC, _CKPT_VERSION, len(header)))
        fh.write(header)
        for entry in directory:
            fh.write(arrays[entry["name"]].tobytes())


def _array_entry(e: dict) -> tuple:
    """(name, dtype, shape) of a directory entry; save_checkpoint writes only
    float arrays."""
    dtype, shape = np.dtype(e["dtype"]), [int(n) for n in e["shape"]]
    if dtype.kind != "f" or any(n < 0 for n in shape):
        raise ValueError(f"array entry {e!r} is not a float array of a valid shape")
    return e["name"], dtype, shape


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
            directory = [_array_entry(e) for e in header["arrays"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        except ParameterError as exc:  # a well-formed config no model can take
            raise FormatError(f"{path}: {exc}") from exc
        # checked against the file before any read, so no claimed size is ever allocated
        need = sum(dtype.itemsize * math.prod(shape) for _, dtype, shape in directory)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need != left:
            raise FormatError(f"{path}: directory claims {need} array bytes, file holds {left}")
        arrays = {}
        for name, dtype, shape in directory:
            if name in arrays:
                raise FormatError(f"{path}: array {name!r} is listed twice")
            raw = fh.read(dtype.itemsize * math.prod(shape))
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            if not np.all(np.isfinite(arrays[name])):
                raise FormatError(f"{path}: non-finite values in array {name!r}")

    model = ResNet(cfg, seed=0)
    try:
        model.load_state(arrays)
    except KeyError as exc:
        raise FormatError(f"{path}: checkpoint lacks array {exc}") from exc
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    unknown = sorted(set(arrays) - set(model.state()))
    if unknown:
        raise FormatError(f"{path}: array {unknown[0]!r} is not one of the model's")
    return model, header.get("extra", {})
