import numpy as np
import pytest

from sctn import checkpoint, model
from sctn import data as data_mod
from sctn.cli import main


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

    def test_malformed_csv_is_data_error(self, tmp_path, small_cfg, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("vehicle_id,frame_id,local_x,local_y\n1,1,oops,3\n")
        assert run(["prepare", "--config", small_cfg, "--data", csv,
                    "--out", tmp_path / "prep"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_cache_is_data_error(self, tmp_path, small_cfg):
        missing = tmp_path / "nope.sctn"
        missing.write_bytes(b"garbage payload")
        assert run(["train", "--config", small_cfg, "--data", missing,
                    "--out", tmp_path / "t"]) == 2

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

    def test_mixed_agent_counts_are_data_error(self, tmp_path, small_cfg, capsys):
        three = data_mod.synthesize_scenes(2, "linear", seed=0, n_agents=3)
        four = data_mod.synthesize_scenes(2, "linear", seed=1, n_agents=4)
        split = data_mod.DatasetSplit(train=three, validation=four[:1],
                                      test=four[1:])
        cache = tmp_path / "mixed.sctn"
        checkpoint.save_segment_cache(cache, split)
        assert run(["train", "--config", small_cfg, "--data", cache,
                    "--out", tmp_path / "t"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "segment 2 " in err
        assert "4 agent channels" in err
