"""Line-oriented ``key = value`` configuration with sections.

DEFAULTS maps each section to the defaults of the dataclass or signature that
owns them, so every value a config file may set is one the toolkit reads.  A
section is built from its owner the first time it is read, so a command
imports only the owners of the sections it reads, and the owners of the
sections its config file names.  Unknown sections or keys are rejected when
the file loads; values are coerced to the type of the default they override;
a float must be finite.
"""

from __future__ import annotations

import configparser
import inspect
import math
from collections.abc import Mapping
from dataclasses import asdict

from .errors import ParameterError


class _Sections(Mapping):
    """section -> {key: value}; a section is built by ``build(section)`` the
    first time it is read, and kept."""

    def __init__(self, names: tuple, build):
        self._names = names
        self._build = build
        self._built = {}

    def __getitem__(self, section) -> dict:
        if section not in self._built:
            if section not in self._names:
                raise KeyError(section)
            self._built[section] = self._build(section)
        return self._built[section]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _keyword_defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def _owner_defaults(section: str) -> dict:
    """The defaults of ``section``, read from the module that owns them."""
    if section == "audio":
        from .replay_sim import generate_corpus
        return {"sample_rate": _keyword_defaults(generate_corpus)["sample_rate"]}
    if section == "stft":
        from .features import FrameSpec
        return _keyword_defaults(FrameSpec.from_ms)
    if section == "mgd":
        from .features import MgdParams
        mgd = MgdParams()
        return {"rho": mgd.rho, "lambda": mgd.lam, "lifter_len": mgd.lifter_len}
    if section == "cqt":
        from .features import cqt_gram
        cqt = _keyword_defaults(cqt_gram)
        del cqt["bin_stride"], cqt["frame_stride"]  # extract's flags are their only source
        return cqt
    if section == "model":
        from .model import ResNetConfig
        model = ResNetConfig()
        return {"block_counts": ",".join(str(b) for b in model.block_counts),
                "channels": model.channels, "fc_width": model.fc_width}
    if section == "train":
        from .training import TrainConfig
        train = asdict(TrainConfig())
        del train["gamma"]  # train --gamma and --objective bce are its only sources
        return train
    from .metrics import TdcfParams
    return asdict(TdcfParams())


SECTIONS = ("audio", "stft", "mgd", "cqt", "model", "train", "tdcf")
DEFAULTS = _Sections(SECTIONS, _owner_defaults)


def load_config(path) -> Mapping:
    """Defaults overridden by the INI-style file at ``path``, if it is not None."""
    cfg = _Sections(SECTIONS, lambda section: dict(DEFAULTS[section]))
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(str(path))
        items = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser messages can span lines; the CLI prints one
        raise ParameterError(f"config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ParameterError(f"config file {path} not found or unreadable")
    if parser.defaults():
        raise ParameterError(f"config file {path}: keys under [DEFAULT] are not supported")
    for section, pairs in items.items():
        if section not in cfg:
            raise ParameterError(f"unknown config section [{section}]")
        values = cfg[section]  # built from its owner now, so the file is checked as it loads
        for key, raw in pairs:
            if key not in values:
                raise ParameterError(f"unknown config key {key!r} in [{section}]")
            default = values[key]
            try:
                value = raw.strip() if isinstance(default, str) else type(default)(raw)
            except ValueError as exc:
                raise ParameterError(f"bad value for {section}.{key}: {raw!r}") from exc
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{section}.{key} must be a finite number, got {raw!r}")
            values[key] = value
    return cfg
