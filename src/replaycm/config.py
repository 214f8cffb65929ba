"""Line-oriented ``key = value`` configuration with sections.

DEFAULTS is built from the dataclasses and signatures that own each default,
so every value a config file may set is one the toolkit reads.  Unknown
sections or keys are rejected; values are coerced to the type of the
default they override; a float must be finite.
"""

from __future__ import annotations

import configparser
import copy
import inspect
import math
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
    del train["gamma"]  # train --gamma and --objective bce are its only sources
    cqt = _keyword_defaults(cqt_gram)
    del cqt["bin_stride"], cqt["frame_stride"]  # extract's flags are their only source
    return {
        "audio": {"sample_rate": _keyword_defaults(generate_corpus)["sample_rate"]},
        "stft": _keyword_defaults(FrameSpec.from_ms),
        "mgd": {"rho": mgd.rho, "lambda": mgd.lam, "lifter_len": mgd.lifter_len},
        "cqt": cqt,
        "model": {
            "block_counts": ",".join(str(b) for b in model.block_counts),
            "channels": model.channels,
            "fc_width": model.fc_width,
        },
        "train": train,
        "tdcf": asdict(TdcfParams()),
    }


DEFAULTS = _defaults()


def load_config(path) -> dict:
    """Defaults overridden by the INI-style file at ``path``, if it is not None."""
    cfg = copy.deepcopy(DEFAULTS)
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
        for key, raw in pairs:
            if key not in cfg[section]:
                raise ParameterError(f"unknown config key {key!r} in [{section}]")
            default = cfg[section][key]
            try:
                value = raw.strip() if isinstance(default, str) else type(default)(raw)
            except ValueError as exc:
                raise ParameterError(f"bad value for {section}.{key}: {raw!r}") from exc
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{section}.{key} must be a finite number, got {raw!r}")
            cfg[section][key] = value
    return cfg
