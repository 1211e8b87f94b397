"""Flat key = value run configuration.

One schema covers model, training, data and ablation settings. Its model keys,
their types and defaults are the fields of ``model.ModelConfig``; the rest are
listed here. A config resolves in layers: schema defaults, then the profile's
values from ``model.PROFILES``, then the config file, then explicit flags.
Unknown keys are rejected, as are values out of range and t_obs and t_pred
other than the window the data pipeline cuts. The fully resolved config is
echoed into every output directory, with the model keys a command took from
its cache or checkpoint and without those that ``sctn ablate`` sets per grid
cell, so a run can always be reproduced from its artifacts.
"""
from __future__ import annotations

import io
import math
from dataclasses import fields
from typing import get_type_hints

from .data import SYNTH_KINDS, UNITS, check_split_fractions
from .errors import ConfigError, read_text
from .model import PROFILES, T_OBS, T_PRED, ModelConfig

_MODEL_TYPES = get_type_hints(ModelConfig)

# key -> (type, default) for each ModelConfig field, in field order
MODEL_SCHEMA = {f.name: (_MODEL_TYPES[f.name], f.default) for f in fields(ModelConfig)}

# key -> (type, default); bools are written as true/false
SCHEMA = {
    "profile": (str, "desk"),
    **MODEL_SCHEMA,
    "epochs": (int, 50),
    "batch_size": (int, 16),
    "lr": (float, 0.01),
    "units": (str, "meters"),
    "stride": (int, 5),
    "train_fraction": (float, 0.7),
    "val_fraction": (float, 0.1),
    "test_fraction": (float, 0.2),
    "synth_count": (int, 8),
    "synth_kind": (str, "linear"),
    "synth_agents": (int, 3),
    "synth_noise": (float, 0.0),
    "ablation_neighbors": (str, "5,10,15"),
    "ablation_epochs": (int, 2),
}

_FRACTION_KEYS = ("train_fraction", "val_fraction", "test_fraction")


def _parse_value(where, typ, text):
    """A value written as text, read as typ (int, float, bool or str); where
    names its file, line and key in an error."""
    text = text.strip()
    if typ is bool:
        if text.lower() in ("true", "on", "1", "yes"):
            return True
        if text.lower() in ("false", "off", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {text!r}")
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"{where}: expected {typ.__name__}, got {text!r}") from None


def parse_config_file(path, schema=SCHEMA):
    """Parse a UTF-8 key = value file with '#' comments into a plain dict.

    Every key must be in schema, which maps it to (type, default)."""
    values = {}
    text = read_text(path, ConfigError)
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(f"{path}:{lineno}: config key {key}",
                                   schema[key][0], value)
    return values


def resolve(file_values=None, overrides=None):
    """defaults -> profile -> config file -> explicit flag overrides."""
    file_values = file_values or {}
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    for key in [*file_values, *flags]:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    profile = flags.get("profile", file_values.get("profile", SCHEMA["profile"][1]))
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    for layer in (PROFILES[profile], file_values, flags):
        cfg.update(layer)
    if (cfg["t_obs"], cfg["t_pred"]) != (T_OBS, T_PRED):
        raise ConfigError(f"t_obs = {cfg['t_obs']}, t_pred = {cfg['t_pred']}: the data "
                          f"pipeline cuts windows of t_obs = {T_OBS}, t_pred = {T_PRED}")
    for key, allowed in (("units", UNITS), ("synth_kind", SYNTH_KINDS)):
        if cfg[key] not in allowed:
            raise ConfigError(f"{key} must be one of {', '.join(allowed)}, got {cfg[key]!r}")
    for key in ("batch_size", "stride", "synth_count", "synth_agents"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {cfg[key]}")
    for key in ("epochs", "ablation_epochs"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {cfg[key]}")
    if not (math.isfinite(cfg["synth_noise"]) and cfg["synth_noise"] >= 0):
        raise ConfigError(f"synth_noise must be finite and >= 0, got {cfg['synth_noise']}")
    if not (math.isfinite(cfg["lr"]) and cfg["lr"] > 0):
        raise ConfigError(f"lr must be finite and > 0, got {cfg['lr']}")
    check_split_fractions(tuple(cfg[key] for key in _FRACTION_KEYS), ConfigError,
                          ", ".join(_FRACTION_KEYS))
    neighbor_counts(cfg)
    return cfg


def neighbor_counts(cfg):
    """The ablation_neighbors list, e.g. "5,10,15" -> [5, 10, 15]."""
    try:
        counts = [int(tok) for tok in cfg["ablation_neighbors"].split(",")]
        if min(counts) >= 1:
            return counts
    except ValueError:
        pass
    raise ConfigError("ablation_neighbors must be a comma list of integers >= 1, "
                      f"got {cfg['ablation_neighbors']!r}")


def model_config_from(cfg, **extra):
    return ModelConfig(**{**{key: cfg[key] for key in MODEL_SCHEMA}, **extra})


def echo(cfg):
    """The keys of cfg, in its order, as key = value lines."""
    lines = [f"{key} = {str(value).lower() if isinstance(value, bool) else value}"
             for key, value in cfg.items()]
    return "\n".join(lines) + "\n"
