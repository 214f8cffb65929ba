"""Residual-network countermeasure classifier and its checkpoint format.

Stem: 3x3 conv -> batchnorm/ReLU -> 3x3 max pool (stride 1, so the printed
input shape is preserved).  Four stages of two-conv basic blocks with 1x1
projection shortcuts at each stride-2 stage transition, then global average
pooling, a hidden fully-connected layer and a 2-class output read out as
log-probabilities.  ``scale`` divides all channel widths for desk-scale runs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm2d, Tensor
from .errors import FormatError, ParameterError, ShapeError


@dataclass
class ResNetConfig:
    block_counts: tuple = (3, 4, 6, 3)
    base_channels: int = 16
    fc_width: int = 32
    n_classes: int = 2
    input_bins: int = 513
    input_frames: int = 500
    scale: int = 1

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
        for name in ("base_channels", "fc_width", "n_classes", "input_bins", "input_frames"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive")

    @property
    def stage_channels(self) -> tuple:
        c = self.base_channels // self.scale
        return (c, 2 * c, 4 * c, 8 * c)

    def to_dict(self) -> dict:
        return {
            "block_counts": list(self.block_counts),
            "base_channels": self.base_channels,
            "fc_width": self.fc_width,
            "n_classes": self.n_classes,
            "input_bins": self.input_bins,
            "input_frames": self.input_frames,
            "scale": self.scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ResNetConfig":
        return cls(**{**d, "block_counts": tuple(d["block_counts"])})


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

    def conv_param_count(self) -> int:
        n = self.conv1.data.size + self.conv2.data.size
        if self.proj is not None:
            n += self.proj.data.size
        return n


class ResNet:
    def __init__(self, cfg: ResNetConfig, seed: int = 0):
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

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
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

    def stage_output_shapes(self) -> list:
        """(channels, bins, frames) after the stem and after each stage."""
        shapes = []
        h, w = self.cfg.input_bins, self.cfg.input_frames
        chans = self.cfg.stage_channels
        shapes.append((chans[0], h, w))  # stem conv + max pool keep the size
        for stage_idx, out_ch in enumerate(chans):
            if stage_idx > 0:
                h = (h - 1) // 2 + 1
                w = (w - 1) // 2 + 1
            shapes.append((out_ch, h, w))
        return shapes

    # --- parameters and buffers ----------------------------------------

    def _bn_modules(self):
        mods = [("stem_bn", self.stem_bn)]
        for si, blocks in enumerate(self.stages):
            for bi, blk in enumerate(blocks):
                mods.append((f"s{si}b{bi}_bn1", blk.bn1))
                mods.append((f"s{si}b{bi}_bn2", blk.bn2))
                if blk.proj_bn is not None:
                    mods.append((f"s{si}b{bi}_proj_bn", blk.proj_bn))
        return mods

    def parameters(self) -> dict:
        params = {"stem_conv": self.stem_conv}
        for si, blocks in enumerate(self.stages):
            for bi, blk in enumerate(blocks):
                params[f"s{si}b{bi}_conv1"] = blk.conv1
                params[f"s{si}b{bi}_conv2"] = blk.conv2
                if blk.proj is not None:
                    params[f"s{si}b{bi}_proj"] = blk.proj
        for name, bn in self._bn_modules():
            params[f"{name}_gamma"] = bn.gamma
            params[f"{name}_beta"] = bn.beta
        params["fc_w"] = self.fc_w
        params["fc_b"] = self.fc_b
        params["out_w"] = self.out_w
        params["out_b"] = self.out_b
        return params

    def buffers(self) -> dict:
        bufs = {}
        for name, bn in self._bn_modules():
            bufs[f"{name}_running_mean"] = bn.running_mean
            bufs[f"{name}_running_var"] = bn.running_var
        return bufs

    def load_buffers(self, bufs: dict) -> None:
        for name, bn in self._bn_modules():
            bn.running_mean = np.array(bufs[f"{name}_running_mean"], dtype=np.float64)
            bn.running_var = np.array(bufs[f"{name}_running_var"], dtype=np.float64)


def build_resnet(cfg: ResNetConfig, seed: int = 0) -> ResNet:
    return ResNet(cfg, seed)


def score_batch(model: ResNet, grams: np.ndarray) -> np.ndarray:
    """Log-likelihood-ratio scores log p(bonafide) - log p(spoof) for a
    (N, bins, frames) stack of feature grams."""
    x = Tensor(np.asarray(grams, dtype=np.float32)[:, None, :, :])
    lp = model.forward(x, train=False).data
    return (lp[:, 1] - lp[:, 0]).astype(np.float64)


def _gram_data(gram) -> np.ndarray:
    return np.asarray(gram.data if not isinstance(gram, np.ndarray) else gram)


def score_utterance(model: ResNet, gram) -> float:
    return float(score_batch(model, _gram_data(gram)[None, :, :])[0])


def saliency_map(model: ResNet, gram, class_index: int = 1) -> np.ndarray:
    """|d log p(class) / d input| with the same shape as the input gram."""
    data = _gram_data(gram)
    x = Tensor(np.asarray(data, dtype=np.float32)[None, None, :, :], requires_grad=True)
    lp = model.forward(x, train=False)
    ad.backward(ad.gather_rows(lp, np.array([class_index])))
    return np.abs(x.grad[0, 0])


# ---------------------------------------------------------------------------
# checkpoint format: magic, version and header length, json header (config +
# array directory + extras), then the raw little-endian buffers in directory
# order

_CKPT_MAGIC = b"RCMC"
_CKPT_VERSION = 1
_CKPT_HEAD = struct.Struct("<4sHI")


def save_checkpoint(path, model: ResNet, extra: dict | None = None) -> None:
    arrays = {}
    for name, p in model.parameters().items():
        arrays[f"param/{name}"] = np.ascontiguousarray(p.data)
    for name, b in model.buffers().items():
        arrays[f"buffer/{name}"] = np.ascontiguousarray(b)
    directory = [
        {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
        for name, arr in sorted(arrays.items())
    ]
    header = json.dumps(
        {
            "config": model.cfg.to_dict(),
            "arrays": directory,
            "optimizer": {},  # version-1 readers look this key up
            "extra": extra or {},
        },
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEAD.pack(_CKPT_MAGIC, _CKPT_VERSION, len(header)))
        fh.write(header)
        for entry in directory:
            fh.write(arrays[entry["name"]].tobytes())


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
            cfg = ResNetConfig.from_dict(header["config"])
            directory = [(e["name"], np.dtype(e["dtype"]), [int(n) for n in e["shape"]])
                         for e in header["arrays"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed checkpoint header: {exc!r}") from exc
        arrays = {}
        for name, dtype, shape in directory:
            nbytes = dtype.itemsize * int(np.prod(shape))
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise FormatError(f"{path}: truncated array {name}")
            arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    model = ResNet(cfg, seed=0)
    try:
        for name, p in model.parameters().items():
            p.data = arrays[f"param/{name}"].astype(np.float32)
        model.load_buffers({n: arrays[f"buffer/{n}"] for n in model.buffers()})
    except KeyError as exc:
        raise FormatError(f"{path}: checkpoint lacks array {exc}") from exc
    return model, header.get("extra", {})
