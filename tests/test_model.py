from dataclasses import replace

import numpy as np
import pytest

from sctn import autodiff as ad
from sctn import data as data_mod
from sctn import blocks, embedding, model, optim
from sctn.autodiff import finite_difference_check
from sctn.errors import ConfigError, DataError, UsageError
from sctn.model import ModelConfig, ModelWeights, Scene, TOY_DIMS


def toy_setup(seed=0, **overrides):
    kwargs = dict(TOY_DIMS)
    kwargs.update(overrides)
    cfg = ModelConfig(seed=seed, **kwargs)
    weights = ModelWeights(cfg)
    return cfg, weights


def toy_scene(cfg, seed=1, kind="linear"):
    sample = data_mod.synthesize_scenes(1, kind, seed=seed,
                                        n_agents=cfg.n_agents)[0]
    window = cfg.t_obs + cfg.t_pred
    return Scene(positions=sample.scene.positions[:, :window],
                 channel_mask=sample.scene.channel_mask, target_index=0)


def padded_scene(cfg, kind, seed=1, n_real=2):
    """A synthetic scene whose channels from n_real on are zero padding."""
    sample = data_mod.synthesize_scenes(1, kind, seed=seed, n_agents=n_real)[0]
    window = cfg.t_obs + cfg.t_pred
    positions = np.zeros((cfg.n_agents, window, 2))
    positions[:n_real] = sample.scene.positions[:, :window]
    return Scene(positions=positions, channel_mask=np.arange(cfg.n_agents) < n_real)


def recompute_rollout(scene, weights, cfg):
    """The rollout with the parallel decoder pass run over the whole prefix at
    every step: the oracle for the cached rollout of predict."""
    z = model.encode(scene, weights, cfg)
    buf = scene.observed(cfg.t_obs)[:, -1:, :].astype(cfg.np_dtype)
    for _ in range(cfg.t_pred):
        nxt = model._decode_sequence(buf, z, weights, cfg).data[:, -1:]
        buf = np.concatenate([buf, nxt], axis=1)
    return buf[:, 1:]


class TestConfig:
    def test_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(model_dim=10, heads=3)

    def test_profiles(self):
        desk = model.config_for_profile("desk")
        assert desk.model_dim == 64 and desk.heads == 4
        paper = model.config_for_profile("paper")
        assert paper.model_dim == 512 and paper.heads == 8 and paper.dropout == 0.1

    def test_ffn_default(self):
        weights = ModelWeights(ModelConfig(model_dim=16, heads=2))
        assert weights.registry["enc0/ffn/w1"].shape == (16, 64)

    def test_ffn_width_follows_replaced_model_dim(self):
        cfg = replace(model.config_for_profile("desk"), model_dim=128)
        assert ModelWeights(cfg).registry["enc0/ffn/w1"].shape == (128, 512)

    @pytest.mark.parametrize("bad", [
        dict(model_dim=0), dict(model_dim=-512, heads=-8), dict(heads=0),
        dict(layers=0), dict(n_agents=0), dict(t_obs=0),
        dict(t_pred=0), dict(dropout=-0.1), dict(dropout=1.0),
        dict(dtype="float16"),
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ModelConfig(**bad)

    def test_boundary_values_accepted(self):
        cfg = ModelConfig(model_dim=1, heads=1, layers=1, dropout=0.0)
        assert ModelWeights(cfg).registry["enc0/ffn/w1"].shape == (1, 4)


class TestEncode:
    def test_output_shape(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        z = model.encode(scene, weights, cfg)
        assert z.shape == (cfg.n_agents, cfg.t_obs, cfg.model_dim)

    def test_frame_count_checked(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        short = Scene(positions=scene.positions[:, :2],
                      channel_mask=scene.channel_mask, target_index=0)
        with pytest.raises(DataError):
            model.encode(short, weights, cfg)

    def test_channel_equivariance_without_se(self):
        # channel attention indexes channels by slot, so equivariance is
        # checked on the purely channel-wise path
        cfg, weights = toy_setup(se_enabled=False, n_agents=4)
        scene = toy_scene(cfg)
        z = model.encode(scene, weights, cfg).data
        perm = np.array([2, 0, 3, 1])
        permuted_scene = Scene(positions=scene.positions[perm],
                               channel_mask=scene.channel_mask[perm],
                               target_index=int(np.where(perm == 0)[0][0]))
        z_perm = model.encode(permuted_scene, weights, cfg).data
        np.testing.assert_allclose(z_perm, z[perm], atol=1e-12)


class TestDecode:
    def test_first_step_uses_seed_only(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        z = model.encode(scene, weights, cfg)
        seed_tok = scene.observed(cfg.t_obs)[:, -1:, :]
        out = model.decode_step(seed_tok, weights, cfg, model.DecoderCache(z, weights, cfg))
        assert out.shape == (cfg.n_agents, 1, 2)

    def test_causal_padding_insensitive(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        z = model.encode(scene, weights, cfg)
        seed_tok = scene.observed(cfg.t_obs)[:, -1:, :]
        two = np.concatenate([seed_tok, seed_tok + 1.0], axis=1)
        step1_from_two = model._decode_sequence(two, z, weights, cfg).data[:, 0]
        step1_direct = model.decode_step(seed_tok, weights, cfg,
                                         model.DecoderCache(z, weights, cfg))[:, 0]
        np.testing.assert_allclose(step1_from_two, step1_direct, atol=1e-10)

    def test_step_bounds(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        z = model.encode(scene, weights, cfg)
        too_long = np.zeros((cfg.n_agents, cfg.t_pred + 1, 2))
        with pytest.raises(UsageError):
            model.decode_step(too_long, weights, cfg, model.DecoderCache(z, weights, cfg))


class TestPredict:
    def test_shape_contract_paper_horizon(self):
        cfg = ModelConfig(n_agents=10, t_obs=15, t_pred=25, model_dim=16,
                          heads=2, layers=1, dropout=0.0)
        weights = ModelWeights(cfg)
        scene = toy_scene(cfg, seed=3)
        pred = model.predict(scene, weights, cfg)
        assert pred.shape == (10, 25, 2)

    def test_determinism(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        a = model.predict(scene, weights, cfg)
        b = model.predict(scene, weights, cfg)
        np.testing.assert_array_equal(a, b)

    def test_autoregressive_consistency(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        pred = model.predict(scene, weights, cfg)
        full = np.concatenate([scene.observed(cfg.t_obs), pred], axis=1)
        forced_scene = Scene(positions=full, channel_mask=scene.channel_mask,
                             target_index=0)
        forced = model.teacher_forced_forward(forced_scene, weights, cfg,
                                              training=False)
        np.testing.assert_allclose(forced.data, pred, atol=1e-5)


class TestCachedRollout:
    @pytest.mark.parametrize("dtype, tol", [("float64", 1e-12), ("float32", 1e-5)])
    @pytest.mark.parametrize("kind", ["linear", "turn", "interaction"])
    @pytest.mark.parametrize("variant", [
        dict(layers=1),
        dict(layers=2, dropout=0.1),
    ], ids=["L1", "L2-dropout"])
    def test_matches_recompute(self, dtype, tol, kind, variant):
        cfg, weights = toy_setup(n_agents=4, t_pred=8, dtype=dtype, **variant)
        scene = padded_scene(cfg, kind)
        np.testing.assert_allclose(model.predict(scene, weights, cfg),
                                   recompute_rollout(scene, weights, cfg),
                                   rtol=0, atol=tol)

    def test_prefix_must_extend_cache(self):
        cfg, weights = toy_setup(t_pred=4)
        scene = toy_scene(cfg)
        z = model.encode(scene, weights, cfg)
        points = np.concatenate([scene.observed(cfg.t_obs)[:, -1:],
                                 scene.future(cfg.t_obs)[:, :3]], axis=1)
        cache = model.DecoderCache(z, weights, cfg)
        with pytest.raises(UsageError):  # two new positions at once
            model.decode_step(points[:, :2], weights, cfg, cache)
        model.decode_step(points[:, :1], weights, cfg, cache)
        model.decode_step(points[:, :2], weights, cfg, cache)
        with pytest.raises(UsageError):  # no new position
            model.decode_step(points[:, :2], weights, cfg, cache)
        with pytest.raises(UsageError):  # a prefix that differs from the cached one
            model.decode_step(points[:, :3] + 1.0, weights, cfg, cache)
        with pytest.raises(UsageError):  # two new positions after cached ones
            model.decode_step(points, weights, cfg, cache)
        assert cache.length == 2

    def test_buffers_hold_plain_projections(self):
        # N x T_pred x D per layer, laid out as keys_values returns them
        cfg, weights = toy_setup(t_pred=4)
        scene = toy_scene(cfg)
        cache = model.DecoderCache(model.encode(scene, weights, cfg), weights, cfg)
        points = np.concatenate([scene.observed(cfg.t_obs)[:, -1:],
                                 scene.future(cfg.t_obs)[:, :1]], axis=1)
        for t in (1, 2):
            model.decode_step(points[:, :t], weights, cfg, cache)
        shape = (cfg.n_agents, cfg.t_pred, cfg.model_dim)
        assert [buf.shape for buf in cache.keys + cache.values] == [shape] * 2 * cfg.layers
        x = embedding.compose_input(points, weights.embed, weights.table, start_t=cfg.t_obs)
        kv = blocks.keys_values(x, weights.decoder[0]["self_attn"])
        for buf, projected in zip((cache.keys[0], cache.values[0]), kv):
            np.testing.assert_allclose(buf[:, :2], projected.data, rtol=0, atol=1e-12)

    def test_predict_records_no_graph(self, monkeypatch):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        made = []
        make = ad._make

        def recording(data, parents):
            made.append(make(data, parents))
            return made[-1]

        monkeypatch.setattr(ad, "_make", recording)
        model.predict(scene, weights, cfg)
        assert made
        assert not any(t.requires_grad or t._backward_fn is not None or t._parents
                       for t in made)


class TestTeacherForcing:
    def test_output_shape(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        out = model.teacher_forced_forward(scene, weights, cfg, training=False)
        assert out.shape == (cfg.n_agents, cfg.t_pred, 2)

    def test_missing_future_frames(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        obs_only = Scene(positions=scene.positions[:, :cfg.t_obs],
                         channel_mask=scene.channel_mask, target_index=0)
        with pytest.raises(DataError):
            model.teacher_forced_forward(obs_only, weights, cfg)

    def test_step1_matches_decode_step(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)
        forced = model.teacher_forced_forward(scene, weights, cfg, training=False)
        z = model.encode(scene, weights, cfg)
        seed_tok = scene.observed(cfg.t_obs)[:, -1:, :]
        step1 = model.decode_step(seed_tok, weights, cfg, model.DecoderCache(z, weights, cfg))
        np.testing.assert_allclose(forced.data[:, :1], step1, atol=1e-10)


class TestZeroHead:
    """With out/w and out/b zero, every step predicts no displacement, so
    each output is its step's input point, exactly."""

    @staticmethod
    def zero_head(dtype):
        cfg, weights = toy_setup(n_agents=4, t_pred=6, dtype=dtype)
        weights.out_w.data = np.zeros_like(weights.out_w.data)
        weights.out_b.data = np.zeros_like(weights.out_b.data)
        return cfg, weights, padded_scene(cfg, "turn", n_real=3)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_predict_repeats_the_seed_point(self, dtype):
        cfg, weights, scene = self.zero_head(dtype)
        seed_point = scene.observed(cfg.t_obs)[:, -1:].astype(cfg.np_dtype)
        assert np.array_equal(model.predict(scene, weights, cfg),
                              np.repeat(seed_point, cfg.t_pred, axis=1))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_teacher_forced_pass_returns_its_shifted_input(self, dtype):
        cfg, weights, scene = self.zero_head(dtype)
        shifted = scene.positions[:, cfg.t_obs - 1:-1].astype(cfg.np_dtype)
        out = model.teacher_forced_forward(scene, weights, cfg, training=False)
        assert out.data.dtype == cfg.np_dtype and np.array_equal(out.data, shifted)


class TestAttentionRoute:
    """Every attention of the model is one blocks.multi_head_attention call."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        attend = blocks.multi_head_attention

        def counted(*args, **kwargs):
            calls.append(1)
            return attend(*args, **kwargs)

        monkeypatch.setattr(blocks, "multi_head_attention", counted)
        return calls

    def test_predict_attends_once_per_layer_and_step(self, monkeypatch):
        cfg = model.config_for_profile("desk", n_agents=3)
        weights = ModelWeights(cfg)
        scene = padded_scene(cfg, "linear", n_real=3)
        calls = self.count_calls(monkeypatch)
        model.predict(scene, weights, cfg)
        # the encoder's layers, then self- and cross-attention per decoder
        # layer at every step
        assert len(calls) == cfg.layers + 2 * cfg.layers * cfg.t_pred == 102

    def test_teacher_forced_pass_attends_three_times_per_layer(self, monkeypatch):
        cfg = model.config_for_profile("desk", n_agents=3)
        weights = ModelWeights(cfg)
        scene = padded_scene(cfg, "linear", n_real=3)
        calls = self.count_calls(monkeypatch)
        model.teacher_forced_forward(scene, weights, cfg, training=False)
        assert len(calls) == 3 * cfg.layers == 6


class TestMaskInertia:
    def test_padding_values_inert(self):
        cfg, weights = toy_setup(n_agents=4)
        scene = toy_scene(cfg)
        mask = scene.channel_mask.copy()
        mask[3] = False
        positions = scene.positions.copy()
        positions[3] = 0.0
        base_scene = Scene(positions=positions, channel_mask=mask, target_index=0)
        base = model.predict(base_scene, weights, cfg)
        perturbed = positions.copy()
        perturbed[3] = np.random.default_rng(9).normal(scale=100, size=perturbed[3].shape)
        alt_scene = Scene(positions=perturbed, channel_mask=mask, target_index=0)
        alt = model.predict(alt_scene, weights, cfg)
        np.testing.assert_allclose(alt[:3], base[:3], atol=1e-6)


class TestGradients:
    def test_full_model_finite_difference(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)

        def f(_p):
            out = model.teacher_forced_forward(scene, weights, cfg, training=False)
            return optim.l2_loss(out, scene.future(cfg.t_obs), scene.channel_mask)

        rng = np.random.default_rng(0)
        worst = 0.0
        for param in weights.registry.values():
            worst = max(worst, finite_difference_check(f, param, sample=4, rng=rng))
        assert worst < 1e-4

    def test_encoder_mean_gradient(self):
        cfg, weights = toy_setup()
        scene = toy_scene(cfg)

        from sctn import autodiff as ad

        def f(_p):
            return ad.mean(model.encode(scene, weights, cfg))

        rng = np.random.default_rng(1)
        for name in ("embed/w", "se_enc/w1", "enc0/attn/wq", "enc0/ffn/w1"):
            err = finite_difference_check(f, weights.registry[name],
                                          sample=6, rng=rng)
            assert err < 1e-4, name


def test_checkpoint_state_roundtrip():
    cfg, weights = toy_setup(seed=5)
    state = weights.state_dict()
    other = ModelWeights(ModelConfig(seed=99, **TOY_DIMS))
    other.load_state_dict(state)
    scene = toy_scene(cfg)
    np.testing.assert_array_equal(model.predict(scene, weights, cfg),
                                  model.predict(scene, other, cfg))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("profile", ["desk", "paper"])
def test_seeded_weights_replay_per_head_draws(profile, dtype):
    # every 2-D weight is drawn uniform(+-1/sqrt(rows)) in registry order,
    # except that each attention draws D x d_k blocks head by head, q, k, v
    # of head 0 first; the blocks are the columns of wq, wk and wv
    cfg = model.config_for_profile(profile, dtype=dtype, layers=1, seed=7)
    weights = ModelWeights(cfg)
    rng = np.random.default_rng(cfg.seed)
    d, d_k = cfg.model_dim, cfg.model_dim // cfg.heads
    for name, param in weights.registry.items():
        prefix, kind = name.rsplit("/", 1)
        if param.ndim == 1 or kind in ("wk", "wv"):
            continue
        if kind == "wq":
            bound = 1.0 / np.sqrt(d)
            draws = [[rng.uniform(-bound, bound, size=(d, d_k)) for _ in "qkv"]
                     for _ in range(cfg.heads)]
            for j, proj in enumerate(("wq", "wk", "wv")):
                expected = np.concatenate([head[j] for head in draws], axis=1)
                np.testing.assert_array_equal(weights.registry[f"{prefix}/{proj}"].data,
                                              expected.astype(cfg.np_dtype))
            continue
        bound = 1.0 / np.sqrt(param.shape[0])
        expected = rng.uniform(-bound, bound, size=param.shape)
        np.testing.assert_array_equal(param.data, expected.astype(cfg.np_dtype))


def test_registry_names_unique_and_ordered():
    cfg, weights = toy_setup()
    names = list(weights.registry)
    assert len(names) == len(set(names))
    cfg2, weights2 = toy_setup()
    assert list(weights2.registry) == names
