import argparse
import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sctn
from sctn import autodiff as ad
from sctn import checkpoint, cli, config as config_mod, model
from sctn import data as data_mod
from sctn.cli import main
from sctn.errors import DataError


SMALL_CFG = """\
model_dim = 16
heads = 2
layers = 1
epochs = 2
batch_size = 4
synth_count = 6
ablation_neighbors = 2,3
ablation_epochs = 1
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG)
    return path


def run(argv):
    return main([str(a) for a in argv])


def synth(tmp_path, small_cfg, name="cache", seed=0):
    out = tmp_path / name
    assert run(["synth", "--config", small_cfg, "--out", out,
                "--seed", seed]) == 0
    return out / "segments.sctn"


def untrained_checkpoint(tmp_path, small_cfg):
    cache = synth(tmp_path, small_cfg)
    train_out = tmp_path / "train"
    assert run(["train", "--config", small_cfg, "--data", cache,
                "--out", train_out, "--epochs", "0"]) == 0
    return cache, train_out / "model.sctn"


class TestPipeline:
    def test_synth_writes_cache_and_config_echo(self, tmp_path, small_cfg):
        cache = synth(tmp_path, small_cfg)
        assert cache.exists()
        assert (cache.parent / "segments.sctn.manifest").exists()
        echo = (cache.parent / "config.txt").read_text()
        assert "model_dim = 16" in echo
        assert "seed = 0" in echo

    def test_train_evaluate_predict(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        train_out = tmp_path / "train"
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", train_out]) == 0
        ckpt = train_out / "model.sctn"
        assert ckpt.exists() and (train_out / "run_log.csv").exists()
        log = (train_out / "run_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_loss,wall_ms"
        assert len(log) == 3  # header + 2 epochs

        eval_out = tmp_path / "eval"
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", eval_out]) == 0
        metrics_csv = (eval_out / "metrics.csv").read_text()
        assert metrics_csv.splitlines()[0].startswith("horizon_s,")
        assert "reference" in metrics_csv
        out = capsys.readouterr().out
        assert "reference" in out

        pred_out = tmp_path / "pred"
        assert run(["predict", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--segment", 1,
                    "--out", pred_out]) == 0
        rows = (pred_out / "trajectories.csv").read_text().splitlines()
        assert rows[0] == "segment_id,agent,role,t,x,y"
        roles = {line.split(",")[2] for line in rows[1:]}
        assert roles == {"obs", "gt", "pred"}

    def test_prepare_from_csv(self, tmp_path, small_cfg):
        csv = tmp_path / "tracks.csv"
        lines = ["vehicle_id,frame_id,local_x,local_y"]
        for vid in (1, 2, 3):
            for frame in range(100):
                lines.append(f"{vid},{frame},{10 * vid + frame},{5 * vid}")
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "prep"
        assert run(["prepare", "--config", small_cfg, "--data", csv,
                    "--out", out, "--neighbors", "3", "--units", "feet"]) == 0
        split = checkpoint.load_segment_cache(out / "segments.sctn")
        assert len(split.all_samples()) > 0
        assert split.all_samples()[0].scene.n_agents == 3

    def test_ablate_grid(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        out = tmp_path / "abl"
        assert run(["ablate", "--config", small_cfg, "--data", cache,
                    "--out", out]) == 0
        text = (out / "ablation.csv").read_text()
        body = text.splitlines()[1:]
        cells = {tuple(line.split(",")[:2]) for line in body}
        assert cells == {("2", "on"), ("2", "off"), ("3", "on"), ("3", "off")}
        assert len(body) == 4 * 5  # each cell reports five horizons
        assert capsys.readouterr().err == ""

    def test_gradcheck_passes(self, tmp_path, capsys):
        assert run(["gradcheck", "--out", tmp_path / "gc", "--seed", 0]) == 0
        assert "max relative gradient error" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(12))
    def test_gradcheck_passes_across_seeds(self, tmp_path, seed):
        # a finite-difference step that straddles a ReLU kink would fail here
        assert run(["gradcheck", "--out", tmp_path / "gc", "--seed", seed]) == 0

    def test_gradcheck_catches_planted_gradient_error(self, tmp_path, capsys,
                                                      monkeypatch):
        matmul = ad.matmul

        def planted(a, w, b=None):
            out = matmul(a, w, b)
            backward_fn = out._backward_fn
            if backward_fn is not None:
                def off_by_one_percent():
                    out.grad = out.grad * 1.01
                    backward_fn()
                out._backward_fn = off_by_one_percent
            return out

        monkeypatch.setattr(ad, "matmul", planted)
        assert run(["gradcheck", "--out", tmp_path / "gc", "--seed", 0]) == 3
        assert "gradient check failed" in capsys.readouterr().err


# every flag of each subcommand besides --config and --out
FLAGS = {
    "synth": {"--seed", "--count", "--kind"},
    "prepare": {"--data", "--seed", "--neighbors", "--units"},
    "train": {"--data", "--seed", "--profile", "--se", "--epochs", "--batch"},
    "evaluate": {"--data", "--checkpoint"},
    "predict": {"--data", "--checkpoint", "--segment"},
    "ablate": {"--data", "--seed", "--profile", "--batch"},
    "gradcheck": {"--seed"},
}


def resolved(argv):
    return cli._resolve(cli._build_parser().parse_args([str(a) for a in argv]))


class TestFlags:
    def test_each_subcommand_registers_only_the_flags_it_reads(self):
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        assert set(subparsers) == set(FLAGS)
        for command, flags in FLAGS.items():
            options = {opt for action in subparsers[command]._actions
                       for opt in action.option_strings}
            assert options == flags | {"--config", "--out", "-h", "--help"}, command

    def test_removed_flag_is_usage_error(self, tmp_path, small_cfg, capsys):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        assert run(["evaluate", "--data", cache, "--checkpoint", ckpt,
                    "--se", "off", "--out", tmp_path / "e"]) == 1
        assert "unrecognized arguments: --se off" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_profile_flag_selects_profile(self, tmp_path):
        for command in ("train", "ablate"):
            desk = resolved([command, "--data", tmp_path / "c"])
            paper = resolved([command, "--data", tmp_path / "c", "--profile", "paper"])
            assert (desk["model_dim"], desk["heads"], desk["dropout"]) == (64, 4, 0.0)
            assert (paper["model_dim"], paper["heads"], paper["dropout"]) == (512, 8, 0.1)

    @pytest.mark.parametrize("flag", ["on", "off"])
    def test_se_flag_reaches_checkpoint(self, tmp_path, small_cfg, flag):
        cache = synth(tmp_path, small_cfg)
        out = tmp_path / "t"
        assert run(["train", "--config", small_cfg, "--data", cache, "--epochs", "0",
                    "--se", flag, "--out", out]) == 0
        weights = checkpoint.load_model_checkpoint(out / "model.sctn")
        assert weights.config.se_enabled == (flag == "on")
        assert (weights.se_enc is not None) == (flag == "on")

    def test_count_and_kind_flags_shape_the_cache(self, tmp_path, small_cfg):
        out = tmp_path / "s"
        assert run(["synth", "--config", small_cfg, "--count", "9", "--kind", "turn",
                    "--out", out]) == 0
        samples = checkpoint.load_segment_cache(out / "segments.sctn").all_samples()
        assert len(samples) == 9
        assert {s.source_file for s in samples} == {"synth:turn"}
        default = checkpoint.load_segment_cache(synth(tmp_path, small_cfg)).all_samples()
        assert len(default) == 6 and {s.source_file for s in default} == {"synth:linear"}

    def test_synth_noise_moves_positions(self, tmp_path, small_cfg):
        noisy_cfg = tmp_path / "noisy.cfg"
        noisy_cfg.write_text(SMALL_CFG + "synth_noise = 0.5\n")
        clean = checkpoint.load_segment_cache(synth(tmp_path, small_cfg, "clean"))
        noisy = checkpoint.load_segment_cache(synth(tmp_path, noisy_cfg, "noisy"))
        for a, b in zip(clean.all_samples(), noisy.all_samples()):
            assert a.scene.positions.shape == b.scene.positions.shape
            assert not np.array_equal(a.scene.positions, b.scene.positions)


class TestConfigEcho:
    def test_train_echoes_agent_count_of_cache(self, tmp_path, small_cfg):
        cfg = tmp_path / "seven.cfg"
        cfg.write_text(SMALL_CFG + "n_agents = 7\n")
        cache = synth(tmp_path, small_cfg)
        out = tmp_path / "t"
        assert run(["train", "--config", cfg, "--data", cache, "--epochs", "0",
                    "--out", out]) == 0
        echo = (out / "config.txt").read_text().splitlines()
        assert "n_agents = 3" in echo
        assert "n_agents = 3" in Path(f"{out / 'model.sctn'}.config").read_text()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_echo_model_keys_of_checkpoint(self, tmp_path, small_cfg, command):
        cache = synth(tmp_path, small_cfg)
        train_out = tmp_path / "t"
        assert run(["train", "--config", small_cfg, "--data", cache, "--epochs", "0",
                    "--se", "off", "--out", train_out]) == 0
        out = tmp_path / "e"
        extra = ["--checkpoint", train_out / "model.sctn"]
        assert run([command, "--data", cache, "--out", out] + extra) == 0
        echo = (out / "config.txt").read_text().splitlines()
        # a checkpoint that matches no profile keeps the resolved one
        for key in ("profile = desk", "se_enabled = false", "n_agents = 3",
                    "model_dim = 16", "heads = 2"):
            assert key in echo

    def test_ablate_echo_leaves_out_keys_each_cell_sets(self, tmp_path, small_cfg):
        cache = synth(tmp_path, small_cfg)
        out = tmp_path / "abl"
        assert run(["ablate", "--config", small_cfg, "--data", cache, "--out", out]) == 0
        echo = (out / "config.txt").read_text().splitlines()
        assert not [line for line in echo
                    if line.startswith(("n_agents =", "se_enabled ="))]
        assert "ablation_neighbors = 2,3" in echo

    def test_echo_names_profile_of_paper_checkpoint(self, tmp_path, small_cfg):
        cache = synth(tmp_path, small_cfg)
        ckpt = tmp_path / "paper.sctn"
        mcfg = model.config_for_profile("paper", n_agents=3, layers=1)
        checkpoint.save_model_checkpoint(ckpt, model.ModelWeights(mcfg))
        out = tmp_path / "p"
        assert run(["predict", "--data", cache, "--checkpoint", ckpt, "--out", out]) == 0
        echo = (out / "config.txt").read_text().splitlines()
        for key in ("profile = paper", "model_dim = 512", "heads = 8", "dropout = 0.1"):
            assert key in echo

    def test_no_echo_when_cache_fails_to_load(self, tmp_path, small_cfg):
        _, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        assert run(["synth", "--config", small_cfg, "--count", 10,
                    "--out", tmp_path / "ten"]) == 0
        cache = tmp_path / "ten" / "segments.sctn"
        tensors = checkpoint.load_tensors(cache)
        tensors["positions"] = np.delete(tensors["positions"], 4, axis=0)
        checkpoint.save_tensors(cache, tensors)
        out = tmp_path / "e"
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", out]) == 2
        assert not (out / "config.txt").exists()

    def test_no_echo_when_log_has_no_full_window(self, tmp_path, small_cfg):
        csv = tmp_path / "short.csv"
        csv.write_text("vehicle_id,frame_id,local_x,local_y\n" +
                       "".join(f"1,{frame},{frame},0\n" for frame in range(31)))
        out = tmp_path / "prep"
        assert run(["prepare", "--config", small_cfg, "--data", csv, "--out", out]) == 2
        assert not (out / "config.txt").exists()


class TestDeterminism:
    def test_synth_is_byte_identical(self, tmp_path, small_cfg):
        a = synth(tmp_path, small_cfg, "a", seed=7)
        b = synth(tmp_path, small_cfg, "b", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path, small_cfg):
        a = synth(tmp_path, small_cfg, "a", seed=7)
        b = synth(tmp_path, small_cfg, "b", seed=8)
        assert a.read_bytes() != b.read_bytes()

    def test_train_is_byte_identical(self, tmp_path, small_cfg):
        cache = synth(tmp_path, small_cfg)
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run(["train", "--config", small_cfg, "--data", cache,
                        "--out", out]) == 0
            outs.append((out / "model.sctn").read_bytes())
        assert outs[0] == outs[1]

    def test_checkpoint_round_trip_predicts_identically(self, tmp_path, small_cfg):
        cache = synth(tmp_path, small_cfg)
        train_out = tmp_path / "train"
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", train_out]) == 0
        dumps = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert run(["predict", "--config", small_cfg, "--data", cache,
                        "--checkpoint", train_out / "model.sctn",
                        "--out", out]) == 0
            dumps.append((out / "trajectories.csv").read_bytes())
        assert dumps[0] == dumps[1]


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run(["train", "--out", tmp_path / "x"]) == 1

    def test_segment_out_of_range_is_usage_error(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        train_out = tmp_path / "train"
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", train_out, "--epochs", "0"]) == 0
        assert run(["predict", "--config", small_cfg, "--data", cache,
                    "--checkpoint", train_out / "model.sctn",
                    "--segment", "99", "--out", tmp_path / "p"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", [
        ("manifest", 2), ("sidecar", 2), ("config", 1), ("log", 2)])
    def test_file_that_is_not_utf8_names_its_offset(self, tmp_path, small_cfg, capsys,
                                                    kind, code):
        # a 0xff byte before each file's final newline
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        log = tmp_path / "log.csv"
        log.write_text("vehicle_id,frame_id,local_x,local_y\n1,0,0,0\n1,1,0,0\n")
        bad = {"manifest": Path(f"{cache}.manifest"), "sidecar": Path(f"{ckpt}.config"),
               "config": small_cfg, "log": log}[kind]
        blob = bytearray(bad.read_bytes())
        at = len(blob) - 2
        blob[at] = 0xff
        bad.write_bytes(bytes(blob))
        argv = (["prepare", "--data", log] if kind == "log" else
                ["evaluate", "--data", cache, "--checkpoint", ckpt])
        assert run([*argv, "--config", small_cfg, "--out", tmp_path / "o"]) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error:" if code == 1 else "data error:")
        assert err.rstrip().endswith(
            f"{bad}: not UTF-8 text: byte 0xff at offset {at} (invalid start byte)")

    def test_malformed_csv_is_data_error(self, tmp_path, small_cfg, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("vehicle_id,frame_id,local_x,local_y\n1,1,oops,3\n")
        assert run(["prepare", "--config", small_cfg, "--data", csv,
                    "--out", tmp_path / "prep"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_log_without_a_full_window_is_data_error(self, tmp_path, small_cfg, capsys):
        # one vehicle over 31 frames at 10 Hz gives 16 frames at 5 Hz, short of 40
        csv = tmp_path / "short.csv"
        csv.write_text("vehicle_id,frame_id,local_x,local_y\n" +
                       "".join(f"1,{frame},{frame},0\n" for frame in range(31)))
        assert run(["prepare", "--config", small_cfg, "--data", csv,
                    "--out", tmp_path / "prep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(csv) in err
        assert "no vehicle has a full 40-frame 5 Hz window" in err
        assert not (tmp_path / "prep" / "segments.sctn").exists()

    @pytest.mark.parametrize("case, code, what, reason", [
        pytest.param(case, *rest, id=case) for case, *rest in [
            ("prepare-missing-data", 2, "track log missing", errno.ENOENT),
            ("evaluate-missing-data", 2, "tensor container missing", errno.ENOENT),
            ("missing-config", 1, "config file missing", errno.ENOENT),
            ("train-data-is-a-directory", 2, "tensor container cannot be opened",
             errno.EISDIR),
            ("out-is-a-file", 1, "cannot be the output directory", errno.EEXIST)]])
    def test_path_that_cannot_be_opened_is_worded(self, tmp_path, small_cfg, capsys, case,
                                                  code, what, reason):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        missing, out, config = tmp_path / "missing", tmp_path / "o", small_cfg
        argv, bad = {
            "prepare-missing-data": (["prepare", "--data", missing], missing),
            "evaluate-missing-data": (["evaluate", "--data", missing, "--checkpoint", ckpt],
                                      missing),
            "missing-config": (["train", "--data", cache], missing),
            "train-data-is-a-directory": (["train", "--data", tmp_path], tmp_path),
            "out-is-a-file": (["train", "--data", cache], out),
        }[case]
        if case == "missing-config":
            config = missing
        if case == "out-is-a-file":
            out.write_text("not a directory\n")
        capsys.readouterr()
        assert run([*argv, "--config", config, "--out", out]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error:" if code == 1 else "data error:")
        assert str(bad) in err[0] and f"{what} ({os.strerror(reason)})" in err[0]
        assert not (out / "config.txt").exists()

    def test_missing_cache_is_data_error(self, tmp_path, small_cfg):
        missing = tmp_path / "nope.sctn"
        missing.write_bytes(b"garbage payload")
        assert run(["train", "--config", small_cfg, "--data", missing,
                    "--out", tmp_path / "t"]) == 2

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_non_finite_checkpoint_weight_is_data_error(self, tmp_path, small_cfg, capsys,
                                                        command):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        state = checkpoint.load_tensors(ckpt)
        state["dec0/ffn/w2"][0, 0] = np.nan
        checkpoint.save_tensors(ckpt, state)
        out = tmp_path / "o"
        capsys.readouterr()
        assert run([command, "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert f"{ckpt}: parameter dec0/ffn/w2 is not finite" in err[0]
        assert not (out / "config.txt").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_training_is_numeric_error(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMALL_CFG + "lr = 1e20\nepochs = 4\n")
        assert run(["train", "--config", cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 3
        assert "numeric error" in capsys.readouterr().err

    def test_nan_weight_names_op_and_segment(self, tmp_path, small_cfg, capsys,
                                             monkeypatch):
        cache = synth(tmp_path, small_cfg)
        build = model.ModelWeights._build

        def planted(self):
            build(self)
            self.registry["dec0/ffn/w1"].data[0, 0] = np.nan

        monkeypatch.setattr(model.ModelWeights, "_build", planted)
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 3
        err = capsys.readouterr().err
        assert "numeric error" in err and "matmul output" in err
        first = checkpoint.load_segment_cache(cache).train[0]
        assert f"vehicle {first.vehicle_id}," in err

    def test_empty_test_split_is_data_error(self, tmp_path, small_cfg, capsys):
        cfg = tmp_path / "notest.cfg"
        cfg.write_text(SMALL_CFG + "train_fraction = 0.8\nval_fraction = 0.2\n"
                       "test_fraction = 0\n")
        cache = synth(tmp_path, cfg)
        assert checkpoint.load_segment_cache(cache).test == []
        train_out = tmp_path / "train"
        assert run(["train", "--config", cfg, "--data", cache,
                    "--out", train_out, "--epochs", "0"]) == 0
        assert run(["evaluate", "--config", cfg, "--data", cache,
                    "--checkpoint", train_out / "model.sctn",
                    "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "test split" in err
        assert not (tmp_path / "e" / "metrics.csv").exists()
        assert run(["ablate", "--config", cfg, "--data", cache, "--out", tmp_path / "a"]) == 2
        assert "test split" in capsys.readouterr().err
        assert not (tmp_path / "a" / "ablation.csv").exists()

    def test_negative_split_fraction_is_usage_error(self, tmp_path, small_cfg, capsys):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(SMALL_CFG + "synth_count = 8\ntrain_fraction = 1.0\n"
                       "val_fraction = -0.25\ntest_fraction = 0.25\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "s"]) == 1
        assert ("usage error: train_fraction, val_fraction, test_fraction must lie in "
                "[0, 1] and sum to 1" in capsys.readouterr().err)
        assert not (tmp_path / "s" / "segments.sctn").exists()

    @staticmethod
    def plant_nan(cache, split_name, frame):
        """Write NaN into the first segment of split_name at one frame."""
        tensors = checkpoint.load_tensors(cache)
        code = ("train", "validation", "test").index(split_name)
        idx = int(np.flatnonzero(tensors["meta"][:, 5] == code)[0])
        tensors["positions"][idx, 0, frame] = np.nan
        checkpoint.save_tensors(cache, tensors)
        return idx

    def test_nan_in_test_future_is_data_error(self, tmp_path, small_cfg, capsys):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        idx = self.plant_nan(cache, "test", -1)
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"segment {idx}:" in err
        assert "non-finite" in err

    def test_nan_in_train_segment_is_data_error(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        idx = self.plant_nan(cache, "train", 3)
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"segment {idx}:" in err
        assert not (tmp_path / "t" / "model.sctn").exists()

    def test_mixed_agent_counts_are_data_error(self, tmp_path):
        # a cache holds one channel count, so a mixed split is refused at save
        three = data_mod.synthesize_scenes(2, "linear", seed=0, n_agents=3)
        four = data_mod.synthesize_scenes(2, "linear", seed=1, n_agents=4)
        split = data_mod.DatasetSplit(train=three, validation=four[:1],
                                      test=four[1:])
        cache = tmp_path / "mixed.sctn"
        with pytest.raises(DataError, match=r"^segment 2 \(synth:linear, vehicle 0, start 0\) "
                                            r"has 4 agent channels, segment 0 has 3$"):
            checkpoint.save_segment_cache(cache, split)
        assert not cache.exists() and not Path(f"{cache}.manifest").exists()

    @pytest.mark.parametrize("which", ["checkpoint", "cache"])
    def test_truncated_file_is_data_error(self, tmp_path, small_cfg, capsys, which):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        cut = ckpt if which == "checkpoint" else cache
        cut.write_bytes(cut.read_bytes()[:-7])
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "past the end" in err

    @pytest.mark.parametrize("se", ["on", "off"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_cache_agent_count_differing_from_checkpoint_is_data_error(
            self, tmp_path, small_cfg, capsys, se, command):
        cache = synth(tmp_path, small_cfg)
        ckpt = tmp_path / "t" / "model.sctn"
        assert run(["train", "--config", small_cfg, "--data", cache, "--epochs", "0",
                    "--se", se, "--out", tmp_path / "t"]) == 0
        five = tmp_path / "five.cfg"
        five.write_text(SMALL_CFG + "synth_agents = 5\n")
        other = synth(tmp_path, five, name="five")
        assert run([command, "--config", small_cfg, "--data", other,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(other) in err and str(ckpt) in err
        assert "5 agent channels" in err and "n_agents = 3" in err
        assert not list((tmp_path / "e").glob("*.csv"))

    @pytest.mark.parametrize("line, names", [
        ("heads = two", "heads"),
        ("bogus_key = 1", "bogus_key"),
        ("heads = 0", "heads"),
        ("embed_hidden = True", "embed_hidden"),
        ("se_on_decoder = True", "se_on_decoder"),
        ("embed_hidden = False", "unknown config key 'embed_hidden'"),
        ("se_on_decoder = False", "unknown config key 'se_on_decoder'"),
        ("ffn_dim = 256", "unknown config key 'ffn_dim'"),
        ("se_reduction = 2", "unknown config key 'se_reduction'"),
        ("predict_offsets = true", "unknown config key 'predict_offsets'"),
    ])
    def test_bad_sidecar_line_is_data_error(self, tmp_path, small_cfg, capsys,
                                            line, names):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        sidecar = Path(f"{ckpt}.config")
        sidecar.write_text(sidecar.read_text() + line + "\n")
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "model.sctn.config" in err
        assert names in err

    @pytest.mark.parametrize("key", list(config_mod.MODEL_SCHEMA))
    def test_sidecar_missing_a_model_key_is_data_error(self, tmp_path, small_cfg, capsys,
                                                       key):
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        sidecar = Path(f"{ckpt}.config")
        lines = sidecar.read_text().splitlines(keepends=True)
        sidecar.write_text("".join(line for line in lines
                                   if not line.startswith(f"{key} = ")))
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(sidecar) in err
        assert err.rstrip().endswith(f"no line for model key {key}")

    @pytest.mark.parametrize("line, key", [
        ("batch_size = 0", "batch_size"),
        ("stride = 0", "stride"),
        ("synth_count = 0", "synth_count"),
        ("synth_agents = 0", "synth_agents"),
        ("ablation_neighbors =", "ablation_neighbors"),
        ("ablation_neighbors = 5,x", "ablation_neighbors"),
        ("ablation_neighbors = 5,0", "ablation_neighbors"),
        ("synth_kind = bogus", "synth_kind"),
        ("units = yards", "units"),
        ("train_fraction = 0.9", "train_fraction"),
        ("test_fraction = 1.1", "test_fraction"),
        ("synth_noise = nan", "synth_noise"),
        ("synth_noise = -1", "synth_noise"),
        ("synth_noise = inf", "synth_noise"),
        ("lr = -1", "lr"),
        ("lr = 0", "lr"),
        ("lr = nan", "lr"),
        ("epochs = -1", "epochs"),
        ("ablation_epochs = -1", "ablation_epochs"),
    ])
    def test_run_key_out_of_range_is_usage_error(self, tmp_path, small_cfg, capsys,
                                                 line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path / "s"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and key in err
        assert not (tmp_path / "s" / "config.txt").exists()

    def test_zero_batch_flag_is_usage_error(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        assert run(["train", "--config", small_cfg, "--data", cache, "--batch", "0",
                    "--out", tmp_path / "t"]) == 1
        assert "batch_size must be >= 1" in capsys.readouterr().err

    def test_corrupt_segment_is_data_error(self, tmp_path, small_cfg, capsys):
        cache = synth(tmp_path, small_cfg)
        tensors = checkpoint.load_tensors(cache)
        tensors["meta"][2, 5] = 7.0
        checkpoint.save_tensors(cache, tensors)
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "segment 2: split code 7" in err

    def test_cache_missing_a_segment_is_data_error(self, tmp_path, small_cfg, capsys):
        _, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        assert run(["synth", "--config", small_cfg, "--count", 10,
                    "--out", tmp_path / "ten"]) == 0
        cache = tmp_path / "ten" / "segments.sctn"
        tensors = checkpoint.load_tensors(cache)
        tensors["positions"] = np.delete(tensors["positions"], 4, axis=0)
        checkpoint.save_tensors(cache, tensors)
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {cache}: entry 'positions' has shape (9, 3, 40, 2), "
                              f"not 10 x 3 x 40 x 2 as 'segments total: 10' implies")

    def test_missing_head_of_per_head_checkpoint_is_data_error(self, tmp_path, small_cfg,
                                                               capsys):
        # the retired layout stored one tensor per head: .../wq0, wq1, ...
        cache, ckpt = untrained_checkpoint(tmp_path, small_cfg)
        tensors = checkpoint.load_tensors(ckpt)
        w_q = tensors.pop("enc0/attn/wq")
        tensors["enc0/attn/wq0"] = w_q[:, :8]
        checkpoint.save_tensors(ckpt, tensors)
        assert run(["evaluate", "--config", small_cfg, "--data", cache,
                    "--checkpoint", ckpt, "--out", tmp_path / "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: ")
        assert err.rstrip().endswith("checkpoint is missing parameter enc0/attn/wq")

    @pytest.mark.parametrize("line", ["se_reduction = 0", "heads = 0",
                                      "model_dim = -512\nheads = -8",
                                      "embed_hidden = false"])
    def test_bad_model_config_line_is_usage_error(self, tmp_path, small_cfg, capsys,
                                                 line):
        cache = synth(tmp_path, small_cfg)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CFG + line + "\n")
        assert run(["train", "--config", cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_diverged_training_prints_only_the_numeric_error(self, tmp_path, small_cfg):
        cache = synth(tmp_path, small_cfg)
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(SMALL_CFG + "lr = 1e20\nepochs = 4\n")
        env = dict(os.environ, PYTHONPATH=str(Path(sctn.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "sctn.cli", "train", "--config", str(cfg),
             "--data", str(cache), "--out", str(tmp_path / "t")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric error:"), proc.stderr
        # the first step moves the weights to 1e20, whose squares overflow float32
        assert lines[0].startswith("numeric error: Adam step 1 diverged:"), proc.stderr
        assert lines[0].endswith(", at epoch 0"), proc.stderr

    def test_window_geometry_differing_from_data_is_usage_error(self, tmp_path, small_cfg,
                                                               capsys):
        cache = synth(tmp_path, small_cfg)
        cfg = tmp_path / "window.cfg"
        cfg.write_text(SMALL_CFG + "t_obs = 20\nt_pred = 20\n")
        assert run(["train", "--config", cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "t_obs = 20, t_pred = 20" in err and "t_obs = 15, t_pred = 25" in err
