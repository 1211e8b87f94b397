import re
import struct
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from sctn import checkpoint, config as config_mod, data as data_mod, model
from sctn.cli import main
from sctn.errors import ConfigError, DataError
from sctn.model import ModelConfig, ModelWeights, TOY_DIMS, predict


def overflow_dims(path, name):
    """Write a one-entry container for name whose dims (2**31, 2**31, 4) claim
    2**64 elements, with 16 payload bytes."""
    checkpoint.save_tensors(path, {name: np.zeros((1, 1, 4), dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    # magic, version, count, name length, name, rank, then the dims
    struct.pack_into("<II", blob, 4 + 2 + 4 + 2 + len(name) + 1, 2**31, 2**31)
    path.write_bytes(bytes(blob))


def _with(array, index, value):
    """A copy of array with array[index] = value."""
    out = array.copy()
    out[index] = value
    return out


class TestTensorContainer:
    def test_round_trip_values_and_order(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a/w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=(2, 2, 2)).astype(np.float32),
            "scalar": np.float32(1.5),
            "vec": np.arange(5, dtype=np.float32),
        }
        path = tmp_path / "t.sctn"
        checkpoint.save_tensors(path, tensors)
        loaded = checkpoint.load_tensors(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            got = loaded[name]
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, np.asarray(tensors[name]))

    def test_float32_storage_is_bit_exact(self, tmp_path):
        arr = np.array([0.1, 1e-30, -3e8], dtype=np.float32)
        path = tmp_path / "t.sctn"
        checkpoint.save_tensors(path, {"x": arr})
        np.testing.assert_array_equal(checkpoint.load_tensors(path)["x"], arr)

    def test_identical_input_identical_bytes(self, tmp_path):
        tensors = {"w": np.ones((2, 3), dtype=np.float32)}
        a, b = tmp_path / "a.sctn", tmp_path / "b.sctn"
        checkpoint.save_tensors(a, tensors)
        checkpoint.save_tensors(b, tensors)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sctn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            checkpoint.load_tensors(path)

    @pytest.mark.parametrize("keep", [6, 12, 20, -1])
    def test_truncated_container_rejected(self, tmp_path, keep):
        # cut inside the header, the manifest, and the last payload
        path = tmp_path / "t.sctn"
        checkpoint.save_tensors(path, {"layer/w": np.ones((3, 4), dtype=np.float32),
                                       "b": np.ones(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(DataError, match="truncated|past the end"):
            checkpoint.load_tensors(path)

    def test_dims_whose_product_overflows_rejected(self, tmp_path):
        # 2**31 * 2**31 * 4 elements wrap to 0 in int64
        path = tmp_path / "t.sctn"
        overflow_dims(path, "layer/w")
        with pytest.raises(DataError, match="payload of layer/w runs past the end"):
            checkpoint.load_tensors(path)

    def test_entries_are_aligned_writable_and_independent(self, tmp_path):
        # odd name lengths put the payload at an odd byte of the file
        rng = np.random.default_rng(1)
        tensors = {"a": rng.normal(size=(3,)), "bcd": rng.normal(size=(2, 5)),
                   "e": rng.normal(size=(1,)), "fg": rng.normal(size=(4, 1, 3))}
        path = tmp_path / "t.sctn"
        checkpoint.save_tensors(path, tensors)
        loaded = checkpoint.load_tensors(path)
        for name, arr in loaded.items():
            assert arr.flags.aligned and arr.flags.writeable, name
        for name in loaded:
            loaded[name][...] = -1.0
            for other, arr in loaded.items():
                if other != name:
                    np.testing.assert_array_equal(
                        arr, tensors[other].astype(np.float32), err_msg=other)
            loaded[name][...] = tensors[name]

    @pytest.mark.parametrize("offset, message", [
        (5, "payload of b starts at byte 5 of the payload, not a multiple of 4"),
        (12, "payload of b runs past the end of the file"),
        (2**63, "payload of b runs past the end of the file"),
    ], ids=["odd", "past-end", "far-past-end"])
    def test_bad_entry_offset_rejected(self, tmp_path, offset, message):
        path = tmp_path / "t.sctn"
        checkpoint.save_tensors(path, {"a": np.ones(2, np.float32),
                                       "b": np.ones(2, np.float32)})
        blob = bytearray(path.read_bytes())
        # b's offset is the manifest's last field, just before the 16 payload bytes
        struct.pack_into("<Q", blob, len(blob) - 16 - 8, offset)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            checkpoint.load_tensors(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "t.sctn"
        checkpoint.save_tensors(path, {"x": np.zeros(1, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            checkpoint.load_tensors(path)


class TestModelCheckpoint:
    def test_round_trip_weights_and_config(self, tmp_path):
        cfg = ModelConfig(dtype="float32", **{k: v for k, v in TOY_DIMS.items()
                                              if k != "dtype"})
        weights = ModelWeights(cfg)
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, weights)
        loaded = checkpoint.load_model_checkpoint(path)
        assert loaded.config == cfg
        state_a, state_b = weights.state_dict(), loaded.state_dict()
        assert list(state_a) == list(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name].astype(np.float32),
                                          state_b[name])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_loads_the_saved_weights_bit_for_bit(self, tmp_path, dtype):
        cfg = ModelConfig(**{**TOY_DIMS, "dtype": dtype})
        weights = ModelWeights(cfg)
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, weights)
        loaded = checkpoint.load_model_checkpoint(path)
        assert list(loaded.registry) == list(weights.registry)
        for name, t in loaded.registry.items():
            # the container stores float32, which a float64 model widens back
            saved = weights.registry[name].data.astype(np.float32).astype(cfg.np_dtype)
            assert t.data.dtype == cfg.np_dtype and t.data.shape == saved.shape
            assert t.data.tobytes() == saved.tobytes(), name

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        cfg = ModelConfig(**TOY_DIMS)
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, ModelWeights(cfg))

        class NoDraws(np.random.Generator):
            def uniform(self, *args, **kwargs):
                raise AssertionError("a checkpoint load drew a random init")

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: NoDraws(np.random.PCG64(seed)))
        loaded = checkpoint.load_model_checkpoint(path)
        assert loaded.config == cfg
        with pytest.raises(AssertionError, match="drew a random init"):
            ModelWeights(cfg)

    def test_load_holds_the_payload_about_once(self, tmp_path):
        weights = ModelWeights(ModelConfig(n_agents=4, model_dim=128, heads=4))
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, weights)
        payload = sum(4 * t.data.size for t in weights.parameters())
        tracemalloc.start()
        try:
            checkpoint.load_model_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * payload, f"peak {peak / payload:.2f}x the payload"

    def test_save_holds_the_payload_about_once(self, tmp_path):
        cfg = ModelConfig(n_agents=4, model_dim=128, heads=4, dtype="float32")
        weights = ModelWeights(cfg)
        payload = sum(4 * t.data.size for t in weights.parameters())
        tracemalloc.start()
        try:
            checkpoint.save_model_checkpoint(tmp_path / "model.sctn", weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * payload, f"peak {peak / payload:.2f}x the payload"

    def test_loaded_model_predicts_identically(self, tmp_path):
        cfg = ModelConfig(dtype="float32", **{k: v for k, v in TOY_DIMS.items()
                                              if k != "dtype"})
        weights = ModelWeights(cfg)
        sample = data_mod.synthesize_scenes(1, "turn", seed=5,
                                            n_agents=cfg.n_agents)[0]
        window = cfg.t_obs + cfg.t_pred
        from sctn.model import Scene
        scene = Scene(positions=sample.scene.positions[:, :window],
                      channel_mask=sample.scene.channel_mask, target_index=0)
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, weights)
        loaded = checkpoint.load_model_checkpoint(path)
        np.testing.assert_array_equal(predict(scene, weights, cfg),
                                      predict(scene, loaded, cfg))

    def test_overflowing_checkpoint_entry_exits_2(self, tmp_path, capsys):
        cfg = ModelConfig(**TOY_DIMS)
        ckpt = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(ckpt, ModelWeights(cfg))
        overflow_dims(ckpt, "embed/w")
        cache = tmp_path / "segments.sctn"
        samples = data_mod.synthesize_scenes(3, seed=0, n_agents=cfg.n_agents)
        checkpoint.save_segment_cache(cache, data_mod.split_dataset(samples))
        assert main(["evaluate", "--data", str(cache), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "payload of embed/w" in err

    def test_missing_sidecar_rejected(self, tmp_path):
        cfg = ModelConfig(**TOY_DIMS)
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, ModelWeights(cfg))
        (tmp_path / "model.sctn.config").unlink()
        with pytest.raises(DataError, match="sidecar"):
            checkpoint.load_model_checkpoint(path)

    @pytest.mark.parametrize("line, names", [
        ("heads = two", ":3: .*heads"),
        ("bogus_key = 1", ":3: .*bogus_key"),
        ("heads", ":3: expected key = value"),
        ("heads = 0", "heads must be >= 1"),
        ("ffn_dim = 256", ":3: unknown config key 'ffn_dim'"),
        ("se_reduction = 2", ":3: unknown config key 'se_reduction'"),
        ("embed_hidden = False", ":3: unknown config key 'embed_hidden'"),
        ("se_on_decoder = False", ":3: unknown config key 'se_on_decoder'"),
        ("predict_offsets = true", ":3: unknown config key 'predict_offsets'"),
    ])
    def test_bad_sidecar_line_is_data_error(self, tmp_path, line, names):
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, ModelWeights(ModelConfig(**TOY_DIMS)))
        sidecar = tmp_path / "model.sctn.config"
        key = line.split("=")[0].strip()
        lines = [old for old in sidecar.read_text().splitlines()
                 if not old.startswith(f"{key} = ")]
        lines.insert(2, line)
        sidecar.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"model\.sctn\.config.*" + names):
            checkpoint.load_model_checkpoint(path)

    def test_misshapen_tensor_names_checkpoint(self, tmp_path):
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, ModelWeights(ModelConfig(**TOY_DIMS)))
        tensors = checkpoint.load_tensors(path)
        tensors["out/w"] = tensors["out/w"][:-1]
        checkpoint.save_tensors(path, tensors)
        message = re.escape(f"{path}: parameter out/w shape (15, 2) != expected (16, 2)")
        with pytest.raises(DataError, match="^" + message):
            checkpoint.load_model_checkpoint(path)

    def test_sidecar_lists_every_field_in_order(self, tmp_path):
        cfg = ModelConfig(**TOY_DIMS)
        path = tmp_path / "model.sctn"
        checkpoint.save_model_checkpoint(path, ModelWeights(cfg))
        keys = [line.split(" = ")[0] for line in
                (tmp_path / "model.sctn.config").read_text().splitlines()]
        assert keys == list(config_mod.MODEL_SCHEMA)

    def test_sidecar_writes_bools_as_config_echo_does(self, tmp_path):
        path = tmp_path / "model.sctn"
        for value in ("true", "false"):
            cfg = ModelConfig(**TOY_DIMS, se_enabled=value == "true")
            checkpoint.save_model_checkpoint(path, ModelWeights(cfg))
            lines = (tmp_path / "model.sctn.config").read_text().splitlines()
            assert f"se_enabled = {value}" in lines


class TestSegmentCache:
    def make_split(self):
        samples = data_mod.synthesize_scenes(6, "linear", seed=2)
        return data_mod.split_dataset(samples, seed=1)

    def test_round_trip(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, split)
        loaded = checkpoint.load_segment_cache(path)
        assert loaded.seed == split.seed
        for name in ("train", "validation", "test"):
            orig, back = getattr(split, name), getattr(loaded, name)
            assert len(orig) == len(back)
            for a, b in zip(orig, back):
                np.testing.assert_allclose(b.scene.positions, a.scene.positions,
                                           atol=1e-6)
                np.testing.assert_array_equal(b.scene.channel_mask,
                                              a.scene.channel_mask)
                assert b.scene.target_index == a.scene.target_index

    def test_manifest_counts(self, tmp_path):
        split = self.make_split()
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, split)
        text = (tmp_path / "cache.sctn.manifest").read_text()
        for name in ("train", "validation", "test"):
            assert f"segments {name}: {len(getattr(split, name))}" in text

    @pytest.mark.parametrize("entry, corrupt, message", [
        ("meta", lambda m: _with(m, (1, 5), 7.0), "segment 1: split code 7 "),
        ("mask", None, "no entry 'mask'"),
        ("meta", None, "no entry 'meta'"),
        ("positions", None, "no entry 'positions'"),
        ("meta", lambda m: _with(m, (1, 0), 99.0), "segment 1: target channel 99 must be"),
        ("mask", lambda m: m[:, :-1],
         r"entry 'mask' has shape \(6, 2\), not 6 x 3 as 'segments total: 6' implies"),
        ("positions", lambda p: p[..., :1], r"entry 'positions' has shape \(6, 3, 40, 1\)"),
        ("meta", lambda m: m[:, :6], r"entry 'meta' has shape \(6, 6\), not 6 x 7"),
    ], ids=["split-code", "no-mask", "no-meta", "no-positions", "target-index",
            "mask-length", "positions-shape", "meta-length"])
    def test_corrupt_segment_names_it(self, tmp_path, entry, corrupt, message):
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        tensors = checkpoint.load_tensors(path)
        if corrupt is None:
            del tensors[entry]
        else:
            tensors[entry] = corrupt(tensors[entry])
        checkpoint.save_tensors(path, tensors)
        with pytest.raises(DataError, match=f"cache.sctn: {message}"):
            checkpoint.load_segment_cache(path)

    @pytest.mark.parametrize("entry, index, value, message", [
        ("positions", (2, 1, 5, 0), np.nan, "positions hold non-finite"),
        ("meta", (2, 3), np.inf, "meta holds non-finite entries"),
        ("meta", (2, 6), 3.0, "no 'source 3:' line in the manifest"),
        ("mask", (2, 0), 0.0, "target channel 0 must be a real agent"),
    ], ids=["positions-nan", "meta-inf", "source", "target-padded"])
    def test_one_bad_row_names_its_segment(self, tmp_path, entry, index, value, message):
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        tensors = checkpoint.load_tensors(path)
        tensors[entry][index] = value
        checkpoint.save_tensors(path, tensors)
        with pytest.raises(DataError, match=f"cache.sctn: segment 2: {message}"):
            checkpoint.load_segment_cache(path)

    def test_empty_cache_rejected(self, tmp_path):
        path = tmp_path / "cache.sctn"
        with pytest.raises(DataError, match="cache.sctn: segment cache holds no segments"):
            checkpoint.save_segment_cache(path, data_mod.DatasetSplit())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("count", [1, 6, 69])
    def test_four_entries_whatever_the_segment_count(self, tmp_path, count):
        samples = data_mod.synthesize_scenes(count, "linear", seed=2)
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, data_mod.split_dataset(samples, seed=1))
        tensors = checkpoint.load_tensors(path)
        assert list(tensors) == ["positions", "mask", "meta", "split_seed"]
        assert tensors["positions"].shape == (count, 3, 40, 2)
        assert tensors["mask"].shape == (count, 3)
        assert tensors["meta"].shape == (count, 7)
        assert len(checkpoint.load_segment_cache(path).all_samples()) == count

    def test_two_sources_round_trip_membership_and_order(self, tmp_path):
        a = data_mod.synthesize_scenes(5, "turn", seed=3, n_agents=4)
        b = data_mod.synthesize_scenes(4, "interaction", seed=4, n_agents=4)
        for i, sample in enumerate(a + b):
            sample.source_file = "a.csv" if i < 5 else "b.csv"
            sample.vehicle_id, sample.start_frame = 100 + i, 7 * i
        split = data_mod.DatasetSplit(train=[a[3], b[0], a[0], b[2], a[4]],
                                      validation=[b[3]], test=[a[1], b[1], a[2]], seed=41)
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, split)
        loaded = checkpoint.load_segment_cache(path)
        assert loaded.seed == 41
        for name in ("train", "validation", "test"):
            orig, back = getattr(split, name), getattr(loaded, name)
            assert [(s.source_file, s.vehicle_id, s.start_frame) for s in back] == \
                [(s.source_file, s.vehicle_id, s.start_frame) for s in orig]
            for x, y in zip(orig, back):
                assert np.array_equal(y.scene.positions,
                                      x.scene.positions.astype(np.float32))
                assert np.array_equal(y.scene.channel_mask, x.scene.channel_mask)
                assert np.array_equal(y.scene.origin, x.scene.origin.astype(np.float32))
                assert y.scene.target_index == x.scene.target_index
        assert "source 0: a.csv\nsource 1: b.csv\n" in (tmp_path / "cache.sctn.manifest").read_text()

    def test_per_segment_layout_is_data_error(self, tmp_path):
        # the retired layout stored three entries per segment
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        tensors = checkpoint.load_tensors(path)
        old = {}
        for i in range(6):
            old[f"segment/{i:05d}/positions"] = tensors["positions"][i]
            old[f"segment/{i:05d}/mask"] = tensors["mask"][i]
            old[f"segment/{i:05d}/meta"] = tensors["meta"][i]
        old["split_seed"] = tensors["split_seed"]
        checkpoint.save_tensors(path, old)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no entry 'positions'$"):
            checkpoint.load_segment_cache(path)

    def test_missing_split_seed_rejected(self, tmp_path):
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        tensors = checkpoint.load_tensors(path)
        del tensors["split_seed"]
        checkpoint.save_tensors(path, tensors)
        with pytest.raises(DataError, match="cache.sctn: no entry 'split_seed'"):
            checkpoint.load_segment_cache(path)

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        (tmp_path / "cache.sctn.manifest").unlink()
        with pytest.raises(DataError, match="cache.sctn.manifest: segment cache "
                                            "manifest missing"):
            checkpoint.load_segment_cache(path)

    @pytest.mark.parametrize("dropped, message", [
        ("source 0: ", r"cache.sctn: segment 0: no 'source 0:' line in the manifest"),
        ("segments total: ", r"cache.sctn.manifest: no 'segments total' line"),
    ], ids=["source", "total"])
    def test_manifest_without_line_rejected(self, tmp_path, dropped, message):
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        manifest = tmp_path / "cache.sctn.manifest"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines
                                    if not line.startswith(dropped)))
        with pytest.raises(DataError, match=message):
            checkpoint.load_segment_cache(path)

    @pytest.mark.parametrize("split_name, replacement, message", [
        ("train", "segments train: 99\n",
         r"'segments train' reads '99', but \S*cache.sctn holds 4 train"),
        ("validation", "segments validation: 0\n",
         r"'segments validation' reads '0', but \S*cache.sctn holds 1 validation"),
        ("test", "", r"'segments test' reads None, but \S*cache.sctn holds 1 test"),
    ], ids=["train-wrong", "validation-wrong", "test-missing"])
    def test_split_count_mismatch_rejected(self, tmp_path, split_name, replacement, message):
        # the 6 segments load as 4/1/1; the manifest must say so
        path = tmp_path / "cache.sctn"
        checkpoint.save_segment_cache(path, self.make_split())
        manifest = tmp_path / "cache.sctn.manifest"
        manifest.write_text("".join(
            replacement if line.startswith(f"segments {split_name}:") else line
            for line in manifest.read_text().splitlines(keepends=True)))
        with pytest.raises(DataError, match=r"cache.sctn.manifest: " + message):
            checkpoint.load_segment_cache(path)


class TestConfigFile:
    def test_defaults_resolve_from_profile(self):
        cfg = config_mod.resolve()
        assert cfg["profile"] == "desk"
        assert cfg["model_dim"] == 64
        assert cfg["heads"] == 4
        assert cfg["dropout"] == 0.0

    def test_paper_profile(self):
        cfg = config_mod.resolve({"profile": "paper"})
        assert (cfg["model_dim"], cfg["heads"], cfg["dropout"]) == (512, 8, 0.1)

    def test_explicit_value_beats_profile(self):
        cfg = config_mod.resolve({"profile": "paper", "model_dim": 128})
        assert cfg["model_dim"] == 128

    def test_flag_override_beats_file(self):
        cfg = config_mod.resolve({"epochs": 3}, {"epochs": 9})
        assert cfg["epochs"] == 9

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nprofile = paper\nepochs = 7  # inline\n\n"
                        "se_enabled = false\nlr = 0.005\n")
        values = config_mod.parse_config_file(path)
        assert values == {"profile": "paper", "epochs": 7,
                          "se_enabled": False, "lr": 0.005}

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 3\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=r":2:.*bogus_key"):
            config_mod.parse_config_file(path)

    def test_bad_value_type_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            config_mod.parse_config_file(path)

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("se_enabled = maybe\n")
        with pytest.raises(ConfigError, match="boolean"):
            config_mod.parse_config_file(path)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="profile"):
            config_mod.resolve({"profile": "gpu"})

    def test_echo_round_trips(self, tmp_path):
        cfg = config_mod.resolve({"profile": "paper", "epochs": 5})
        path = tmp_path / "echo.cfg"
        path.write_text(config_mod.echo(cfg))
        back = config_mod.resolve(config_mod.parse_config_file(path))
        assert back == cfg

    def test_schema_holds_every_model_field_in_order(self):
        assert list(config_mod.SCHEMA) == [
            "profile", "n_agents", "t_obs", "t_pred", "model_dim", "heads",
            "layers", "dropout", "se_enabled", "dtype", "seed",
            "epochs", "batch_size", "lr",
            "units", "stride", "train_fraction", "val_fraction",
            "test_fraction", "synth_count", "synth_kind", "synth_agents",
            "synth_noise", "ablation_neighbors", "ablation_epochs"]
        assert {f.name for f in fields(ModelConfig)} <= set(config_mod.SCHEMA)

    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_profile_resolves_to_profile_config(self, profile):
        cfg = config_mod.model_config_from(config_mod.resolve({"profile": profile}))
        assert cfg == model.config_for_profile(profile)

    def test_profile_applies_before_file_and_flags(self):
        cfg = config_mod.resolve({"profile": "paper", "dropout": 0.0},
                                 {"profile": "desk", "heads": 2})
        assert (cfg["model_dim"], cfg["heads"], cfg["dropout"]) == (64, 2, 0.0)

    def test_removed_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for key in ("embed_hidden", "predict_offsets"):
            path.write_text(f"{key} = false\n")
            with pytest.raises(ConfigError, match=f":1: unknown config key '{key}'"):
                config_mod.parse_config_file(path)

    def test_model_config_from(self):
        cfg = config_mod.resolve({"profile": "desk", "n_agents": 5,
                                  "se_enabled": False})
        mc = config_mod.model_config_from(cfg)
        assert mc.n_agents == 5
        assert mc.model_dim == 64
        assert mc.se_enabled is False
