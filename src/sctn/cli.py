"""Command-line front end.

Subcommands: synth, prepare, train, evaluate, predict, ablate, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric error.
All randomness is governed by --seed; identical flags and seed produce
byte-identical primary outputs.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import ablation as ablation_mod
from . import checkpoint, config as config_mod, data as data_mod, metrics, model, optim
from .autodiff import finite_difference_check
from .errors import DataError, NumericError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# argparse settings of each flag, whose dest is the config key it sets if it
# sets one; _SUBCOMMANDS, after the commands, says which subcommands register it
_FLAG_ARGS = {
    "data": dict(type=Path, required=True, help="input CSV (prepare) or segment cache"),
    "seed": dict(type=int, help="master random seed"),
    "profile": dict(choices=("desk", "paper")),
    "neighbors": dict(type=int, dest="n_agents", metavar="NEIGHBORS",
                      help="agent channel count N"),
    "se": dict(choices=("on", "off"), dest="se_enabled", help="channel attention toggle"),
    "epochs": dict(type=int),
    "batch": dict(type=int, dest="batch_size", metavar="BATCH"),
    "count": dict(type=int, dest="synth_count", metavar="COUNT"),
    "kind": dict(choices=data_mod.SYNTH_KINDS, dest="synth_kind"),
    "units": dict(choices=data_mod.UNITS),
    "checkpoint": dict(type=Path, required=True),
    "segment": dict(type=int, default=0),
}


def _build_parser():
    parser = _Parser(prog="sctn", description="trajectory prediction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAG_ARGS[flag])
    return parser


def _resolve(args):
    overrides = {key: value for key, value in vars(args).items() if key in config_mod.SCHEMA}
    if overrides.get("se_enabled") is not None:
        overrides["se_enabled"] = overrides["se_enabled"] == "on"
    file_values = config_mod.parse_config_file(args.config) if args.config else None
    return config_mod.resolve(file_values, overrides)


def _cmd_synth(args, cfg):
    _echo(args, cfg)
    samples = data_mod.synthesize_scenes(
        cfg["synth_count"], kind=cfg["synth_kind"], seed=cfg["seed"],
        n_agents=cfg["synth_agents"], noise=cfg["synth_noise"])
    split = data_mod.split_dataset(samples, seed=cfg["seed"], fractions=(
        cfg["train_fraction"], cfg["val_fraction"], cfg["test_fraction"]))
    checkpoint.save_segment_cache(args.out / "segments.sctn", split)
    print(f"wrote {len(samples)} synthetic segments to {args.out / 'segments.sctn'}")
    return 0


def _cmd_prepare(args, cfg):
    records = data_mod.parse_trajectory_csv(args.data, units=cfg["units"])
    samples = data_mod.build_segments(data_mod.resample(records), cfg["n_agents"],
                                      stride=cfg["stride"],
                                      source_file=str(args.data))
    if not samples:
        raise DataError(f"{args.data}: no vehicle has a full {data_mod.WINDOW}-frame "
                        f"{data_mod.FRAMES_PER_SECOND} Hz window")
    _echo(args, cfg)
    split = data_mod.split_dataset(samples, seed=cfg["seed"], fractions=(
        cfg["train_fraction"], cfg["val_fraction"], cfg["test_fraction"]))
    checkpoint.save_segment_cache(args.out / "segments.sctn", split)
    print(f"wrote {len(samples)} segments to {args.out / 'segments.sctn'}")
    return 0


def _echo(args, cfg):
    """Write config.txt; each command calls it once its inputs have loaded."""
    (args.out / "config.txt").write_text(config_mod.echo(cfg))


def _echo_model(args, cfg, mcfg):
    """Rewrite the echo with the model keys the command took from its input,
    and with the profile whose every key they match, if one does."""
    cfg.update((key, getattr(mcfg, key)) for key in config_mod.MODEL_SCHEMA)
    cfg["profile"] = next((name for name, values in model.PROFILES.items()
                           if all(cfg[key] == value for key, value in values.items())),
                          cfg["profile"])
    _echo(args, cfg)


def _cmd_train(args, cfg):
    split = checkpoint.load_segment_cache(args.data)
    cfg["n_agents"] = split.all_samples()[0].scene.n_agents
    _echo(args, cfg)
    mcfg = config_mod.model_config_from(cfg)
    weights = model.ModelWeights(mcfg)
    result = optim.train(split.train, split.validation, weights, mcfg,
                         epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                         seed=cfg["seed"], lr=cfg["lr"],
                         log=lambda r: print(
                             f"epoch {r['epoch']}: train {r['train_loss']:.6f} "
                             f"val {r['val_loss']:.6f} ({r['wall_ms']:.0f} ms)"))
    weights.load_state_dict(result.best_state)
    checkpoint.save_model_checkpoint(args.out / "model.sctn", weights)
    with open(args.out / "run_log.csv", "w") as fh:
        fh.write("epoch,train_loss,val_loss,wall_ms\n")
        for r in result.trace:
            fh.write(f"{r['epoch']},{r['train_loss']:.9f},"
                     f"{r['val_loss']:.9f},{r['wall_ms']:.3f}\n")
    print(f"best validation loss {result.best_val_loss:.6f}; "
          f"checkpoint at {args.out / 'model.sctn'}")
    return 0


def _held_out(split, path):
    """The test split, the only segments a score is taken on."""
    if not split.test:
        raise DataError(f"the test split of {path} is empty; "
                        f"only held-out segments are scored")
    return split.test


def _load_checkpoint_for(split, args):
    """The model of --checkpoint, which must have as many agent channels as
    the segments of split (from --data), which all have the same count."""
    weights = checkpoint.load_model_checkpoint(args.checkpoint)
    n_agents = split.all_samples()[0].scene.n_agents
    if n_agents != weights.config.n_agents:
        raise DataError(f"{args.data} has {n_agents} agent channels, but the checkpoint "
                        f"{args.checkpoint} has n_agents = {weights.config.n_agents}")
    return weights


def _cmd_evaluate(args, cfg):
    split = checkpoint.load_segment_cache(args.data)
    weights = _load_checkpoint_for(split, args)
    _echo_model(args, cfg, weights.config)
    report = metrics.evaluate(weights, _held_out(split, args.data), weights.config)
    csv_text = report.to_csv()
    (args.out / "metrics.csv").write_text(csv_text)
    print(csv_text, end="")
    return 0


def _cmd_predict(args, cfg):
    split = checkpoint.load_segment_cache(args.data)
    samples = split.all_samples()
    if not 0 <= args.segment < len(samples):
        raise UsageError(f"--segment {args.segment} outside 0..{len(samples) - 1}")
    weights = _load_checkpoint_for(split, args)
    mcfg = weights.config
    _echo_model(args, cfg, mcfg)
    sample = samples[args.segment]
    scene = sample.scene
    pred = model.predict(scene, weights, mcfg)
    lines = ["segment_id,agent,role,t,x,y"]

    def emit(points, role, t0):
        for agent in range(scene.n_agents):
            if not scene.channel_mask[agent]:
                continue
            for i in range(points.shape[1]):
                x, y = data_mod.denormalize_points(points[agent, i], scene.origin)
                lines.append(f"{args.segment},{agent},{role},{t0 + i},{x:.6f},{y:.6f}")

    emit(scene.observed(mcfg.t_obs), "obs", 0)
    emit(scene.future(mcfg.t_obs), "gt", mcfg.t_obs)
    emit(pred, "pred", mcfg.t_obs)
    text = "\n".join(lines) + "\n"
    (args.out / "trajectories.csv").write_text(text)
    print(f"wrote trajectory dump to {args.out / 'trajectories.csv'}")
    return 0


def _cmd_ablate(args, cfg):
    split = checkpoint.load_segment_cache(args.data)
    _held_out(split, args.data)
    # every grid cell sets its own agent count and channel-attention toggle
    _echo(args, {key: value for key, value in cfg.items()
                 if key not in ("n_agents", "se_enabled")})
    cells = ablation_mod.ablate(split, config_mod.model_config_from(cfg),
                                config_mod.neighbor_counts(cfg), cfg["ablation_epochs"],
                                cfg["batch_size"], cfg["lr"])
    text = ablation_mod.grid_csv(cells)
    (args.out / "ablation.csv").write_text(text)
    print(text, end="")
    failed = [c for c in cells if not c.ok]
    if failed:
        print(f"{len(failed)} of {len(cells)} cells failed", file=sys.stderr)
    return 0


def _cmd_gradcheck(args, cfg):
    _echo(args, cfg)
    mcfg = model.ModelConfig(**model.TOY_DIMS)
    weights = model.ModelWeights(mcfg)
    synth = data_mod.synthesize_scenes(1, kind="linear", seed=cfg["seed"],
                                       n_agents=mcfg.n_agents)[0].scene
    scene = model.Scene(positions=synth.positions[:, :mcfg.t_obs + mcfg.t_pred],
                        channel_mask=synth.channel_mask)
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0

    def f(_param):
        return optim.l2_loss(model.teacher_forced_forward(scene, weights, mcfg, training=False),
                             scene.future(mcfg.t_obs), scene.channel_mask)

    for param in weights.registry.values():
        # a step of 1e-3 can straddle a ReLU kink and fail on a correct gradient
        worst = max(worst, finite_difference_check(f, param, step=1e-5, sample=8, rng=rng))
    print(f"max relative gradient error: {worst:.3e}")
    if worst >= 1e-4:
        raise NumericError(f"gradient check failed: {worst:.3e} >= 1e-4")
    return 0


# subcommand -> (function, help, the flags it reads besides --config and --out)
_SUBCOMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic segment cache", ("seed", "count", "kind")),
    "prepare": (_cmd_prepare, "CSV track log -> segment cache",
                ("data", "seed", "neighbors", "units")),
    "train": (_cmd_train, "train on a segment cache",
              ("data", "seed", "profile", "se", "epochs", "batch")),
    "evaluate": (_cmd_evaluate, "metrics report on the test split", ("data", "checkpoint")),
    "predict": (_cmd_predict, "dump trajectories for one segment",
                ("data", "checkpoint", "segment")),
    "ablate": (_cmd_ablate, "neighbour x SE ablation grid",
               ("data", "seed", "profile", "batch")),
    "gradcheck": (_cmd_gradcheck, "finite-difference gradient check", ("seed",)),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        # a non-finite result raises NumericError at the op that made it, so
        # numpy's warnings would only repeat it ahead of the exit-3 message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cfg = _resolve(args)
            try:
                args.out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"--out {args.out} cannot be the output directory "
                                 f"({exc.strerror})") from None
            return _SUBCOMMANDS[args.command][0](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
