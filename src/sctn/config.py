"""Flat key = value run configuration.

One schema covers model, training, data and ablation settings; unknown keys
are rejected and the fully resolved config is echoed into every output
directory so a run can always be reproduced from its artifacts.
"""
from __future__ import annotations

from .errors import ConfigError

# key -> (type, default); bools are written as true/false
SCHEMA = {
    "profile": (str, "desk"),
    "n_agents": (int, 10),
    "t_obs": (int, 15),
    "t_pred": (int, 25),
    "model_dim": (int, 0),        # 0 -> from profile
    "heads": (int, 0),            # 0 -> from profile
    "layers": (int, 2),
    "ffn_dim": (int, 0),
    "dropout": (float, -1.0),     # < 0 -> from profile
    "se_reduction": (int, 2),
    "se_enabled": (bool, True),
    "embed_hidden": (bool, False),
    "predict_offsets": (bool, False),
    "dtype": (str, "float32"),
    "seed": (int, 0),
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

_PROFILE_DEFAULTS = {
    "desk": dict(model_dim=64, heads=4, dropout=0.0),
    "paper": dict(model_dim=512, heads=8, dropout=0.1),
}


def _parse_value(key, text):
    typ, _ = SCHEMA[key]
    text = text.strip()
    if typ is bool:
        if text.lower() in ("true", "on", "1", "yes"):
            return True
        if text.lower() in ("false", "off", "0", "no"):
            return False
        raise ConfigError(f"config key {key}: expected a boolean, got {text!r}")
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"config key {key}: expected {typ.__name__}, got {text!r}") from None


def parse_config_file(path):
    """Parse a key = value file with '#' comments into a plain dict."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, value)
    return values


def resolve(file_values=None, overrides=None):
    """defaults -> profile -> config file -> explicit flag overrides."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    if file_values:
        cfg.update(file_values)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    profile = cfg["profile"]
    if profile not in _PROFILE_DEFAULTS:
        raise ConfigError(f"unknown profile {profile!r}")
    for key, value in _PROFILE_DEFAULTS[profile].items():
        sentinel = SCHEMA[key][1]
        if cfg[key] == sentinel:
            cfg[key] = value
    if cfg["units"] not in ("feet", "meters"):
        raise ConfigError(f"units must be feet or meters, got {cfg['units']!r}")
    return cfg


def model_config_from(cfg, **extra):
    from .model import ModelConfig

    kwargs = dict(
        n_agents=cfg["n_agents"], t_obs=cfg["t_obs"], t_pred=cfg["t_pred"],
        model_dim=cfg["model_dim"], heads=cfg["heads"], layers=cfg["layers"],
        ffn_dim=cfg["ffn_dim"], dropout=cfg["dropout"],
        se_reduction=cfg["se_reduction"], se_enabled=cfg["se_enabled"],
        embed_hidden=cfg["embed_hidden"],
        predict_offsets=cfg["predict_offsets"], seed=cfg["seed"], dtype=cfg["dtype"])
    kwargs.update(extra)
    return ModelConfig(**kwargs)


def echo(cfg):
    lines = [f"{key} = {str(cfg[key]).lower() if isinstance(cfg[key], bool) else cfg[key]}"
             for key in SCHEMA]
    return "\n".join(lines) + "\n"
