"""Line-oriented ``key = value`` configuration with sections.

DEFAULTS is built from the dataclasses and signatures that own each default,
so every value a config file may set is one the toolkit reads.  Unknown
sections or keys are rejected; values are coerced to the type of the
default they override.
"""

from __future__ import annotations

import configparser
import copy
import inspect
from dataclasses import asdict

from .errors import ParameterError
from .features import FrameSpec, MgdParams, cqt_gram
from .metrics import TdcfParams
from .model import ResNetConfig
from .replay_sim import generate_corpus
from .training import TrainConfig


def _keyword_defaults(fn) -> dict:
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def _defaults() -> dict:
    mgd = MgdParams()
    model = ResNetConfig()
    train = asdict(TrainConfig())
    del train["objective"]  # chosen per run by ``train --objective``
    train["beta1"], train["beta2"] = train.pop("betas")
    return {
        "audio": {"sample_rate": _keyword_defaults(generate_corpus)["sample_rate"]},
        "stft": _keyword_defaults(FrameSpec.from_ms),
        "mgd": {"rho": mgd.rho, "lambda": mgd.lam, "lifter_len": mgd.lifter_len},
        "cqt": _keyword_defaults(cqt_gram),
        "model": {
            "block_counts": ",".join(str(b) for b in model.block_counts),
            "base_channels": model.base_channels,
            "fc_width": model.fc_width,
            # the CLI trains a quarter-width network unless a config says otherwise
            "scale": 4,
        },
        "train": train,
        "tdcf": asdict(TdcfParams()),
    }


DEFAULTS = _defaults()


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def load_config(path=None) -> dict:
    """Defaults overridden by an INI-style file (if given)."""
    cfg = default_config()
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
    for section, pairs in items.items():
        if section not in cfg:
            raise ParameterError(f"unknown config section [{section}]")
        for key, raw in pairs:
            if key not in cfg[section]:
                raise ParameterError(f"unknown config key {key!r} in [{section}]")
            default = cfg[section][key]
            try:
                if isinstance(default, int):
                    cfg[section][key] = int(raw)
                elif isinstance(default, float):
                    cfg[section][key] = float(raw)
                else:
                    cfg[section][key] = raw.strip()
            except ValueError as exc:
                raise ParameterError(f"bad value for {section}.{key}: {raw!r}") from exc
    return cfg


def dump_config(cfg: dict) -> str:
    lines = []
    for section, values in cfg.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
