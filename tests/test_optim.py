import gc
import weakref

import numpy as np
import pytest

from sctn import autodiff as ad
from sctn import data as data_mod
from sctn import optim
from sctn.autodiff import Tensor
from sctn.errors import DataError, NumericError, ShapeError, UsageError
from sctn.model import ModelConfig, ModelWeights, TOY_DIMS, Scene, teacher_forced_forward
from sctn.optim import adam_init, adam_step, train


def params_of(values):
    return [Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
            for v in values]


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = params_of([[1.0, 2.0]])
        state = adam_init(p)
        for t in p:
            t.grad = np.zeros_like(t.data)
        adam_step(p, state)
        np.testing.assert_array_equal(p[0].data, [1.0, 2.0])
        np.testing.assert_array_equal(state.m[0], 0.0)
        np.testing.assert_array_equal(state.v[0], 0.0)

    def test_first_step_magnitude_is_lr(self):
        p = params_of([[1.0, -1.0]])
        state = adam_init(p, lr=0.01)
        p[0].grad = np.array([0.5, -3.0])
        adam_step(p, state)
        # bias-corrected m_hat / sqrt(v_hat) = sign(g) on the first step
        np.testing.assert_allclose(p[0].data, [1.0 - 0.01, -1.0 + 0.01], atol=1e-6)

    def test_lr_zero_is_identity(self):
        p = params_of([np.arange(4.0)])
        state = adam_init(p, lr=0.0)
        p[0].grad = np.ones(4)
        adam_step(p, state)
        np.testing.assert_array_equal(p[0].data, np.arange(4.0))

    def test_gradients_zeroed_after_step(self):
        p = params_of([[1.0]])
        state = adam_init(p)
        p[0].grad = np.array([2.0])
        adam_step(p, state)
        assert p[0].grad is None

    def test_shape_mismatch(self):
        p = params_of([[1.0, 2.0]])
        state = adam_init(p)
        p[0].grad = np.ones(3)
        with pytest.raises(ShapeError):
            adam_step(p, state)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("grad", [np.nan, np.inf])
    def test_non_finite_update_names_step(self, grad):
        p = params_of([[1.0], [1.0, 2.0]])
        state = adam_init(p)
        adam_step(p, state)
        p[1].grad = np.array([1.0, grad])
        with pytest.raises(NumericError, match=r"^Adam step 2 diverged: parameter 1 \(2,\)"):
            adam_step(p, state)

    def test_step_counter(self):
        p = params_of([[0.0]])
        state = adam_init(p)
        for _ in range(3):
            p[0].grad = np.ones(1)
            adam_step(p, state)
        assert state.step_count == 3

    def test_deterministic_trajectory(self):
        def run():
            p = params_of([np.linspace(-1, 1, 5)])
            state = adam_init(p, lr=0.05)
            for step in range(10):
                p[0].grad = p[0].data * 2.0
                adam_step(p, state)
            return p[0].data

        np.testing.assert_array_equal(run(), run())


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_formula_bit_for_bit(self, dtype):
        gen = np.random.default_rng(5)
        init = [gen.normal(size=(3, 4)).astype(dtype), gen.normal(size=7).astype(dtype)]
        grads = [[gen.normal(size=x.shape).astype(dtype) for x in init] for _ in range(3)]
        params = [Tensor(x.copy(), requires_grad=True) for x in init]
        state = adam_init(params, lr=0.03)
        ref = [x.copy() for x in init]
        m = [np.zeros_like(x) for x in init]
        v = [np.zeros_like(x) for x in init]
        b1, b2, eps = optim.ADAM_BETA1, optim.ADAM_BETA2, optim.ADAM_EPS
        for t, step_grads in enumerate(grads, start=1):
            for p, g in zip(params, step_grads):
                p.grad = g.copy()
            adam_step(params, state)
            for i, g in enumerate(step_grads):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1 ** t)
                v_hat = v[i] / (1 - b2 ** t)
                ref[i] = ref[i] - (0.03 * m_hat / (np.sqrt(v_hat) + eps)).astype(dtype)
            for i, p in enumerate(params):
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, ref[i])
                assert np.array_equal(state.m[i], m[i])
                assert np.array_equal(state.v[i], v[i])


def toy_training_setup(n_samples=2, seed=0):
    cfg = ModelConfig(seed=seed, **TOY_DIMS)
    weights = ModelWeights(cfg)
    window = cfg.t_obs + cfg.t_pred
    samples = []
    for s in data_mod.synthesize_scenes(n_samples, "linear", seed=seed + 1,
                                        n_agents=cfg.n_agents):
        scene = Scene(positions=s.scene.positions[:, :window],
                      channel_mask=s.scene.channel_mask, target_index=0)
        samples.append(data_mod.SegmentSample(scene=scene))
    return cfg, weights, samples


class TestTrain:
    def test_zero_epochs_leaves_weights(self):
        cfg, weights, samples = toy_training_setup()
        before = weights.state_dict()
        result = train(samples, [], weights, cfg, epochs=0)
        assert result.trace == []
        for name, arr in weights.state_dict().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_zero_epochs_returns_initial_state_and_its_validation_loss(self):
        cfg, weights, samples = toy_training_setup()
        before = weights.state_dict()
        result = train(samples[:1], samples[1:], weights, cfg, epochs=0)
        assert list(result.best_state) == list(before)
        for name, arr in result.best_state.items():
            np.testing.assert_array_equal(arr, before[name])
        assert result.best_val_loss == optim.evaluate_loss(samples[1:], weights, cfg)

    def test_empty_split_rejected(self):
        cfg, weights, _ = toy_training_setup()
        with pytest.raises(DataError):
            train([], [], weights, cfg, epochs=1)

    def test_negative_epochs_rejected(self):
        cfg, weights, samples = toy_training_setup()
        with pytest.raises(UsageError):
            train(samples, [], weights, cfg, epochs=-1)

    def test_loss_decreases_on_overfit_smoke(self):
        cfg, weights, samples = toy_training_setup()
        result = train(samples, [], weights, cfg, epochs=30, batch_size=1,
                       seed=0, lr=1e-3)
        losses = [r["train_loss"] for r in result.trace]
        assert losses[-1] < losses[0]

    def test_best_checkpoint_tracks_running_minimum(self):
        cfg, weights, samples = toy_training_setup()
        result = train(samples, samples, weights, cfg, epochs=15, batch_size=1,
                       seed=0, lr=1e-3)
        vals = [r["val_loss"] for r in result.trace]
        assert result.best_val_loss == pytest.approx(min(vals))

    def test_bit_identical_traces_for_same_seed(self):
        def run():
            cfg, weights, samples = toy_training_setup(seed=3)
            result = train(samples, [], weights, cfg, epochs=10, batch_size=1,
                           seed=7, lr=1e-3)
            return [r["train_loss"] for r in result.trace], weights.state_dict()

        trace_a, state_a = run()
        trace_b, state_b = run()
        assert trace_a == trace_b
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

    def test_dropout_training_is_reproducible(self):
        def run():
            cfg, weights, samples = toy_training_setup(seed=4)
            cfg = ModelConfig(**{**TOY_DIMS, "dropout": 0.1, "seed": 4})
            weights = ModelWeights(cfg)
            result = train(samples, [], weights, cfg, epochs=5, batch_size=1,
                           seed=11, lr=1e-3)
            return [r["train_loss"] for r in result.trace]

        assert run() == run()

    def test_train_leaves_loaded_state_dict_unchanged(self):
        cfg, weights, samples = toy_training_setup()
        initial = weights.state_dict()
        kept = {name: arr.copy() for name, arr in initial.items()}
        weights.load_state_dict(initial)
        train(samples, [], weights, cfg, epochs=2, batch_size=1, lr=1e-2)
        assert any(not np.array_equal(weights.registry[name].data, kept[name])
                   for name in kept)
        for name, arr in initial.items():
            np.testing.assert_array_equal(arr, kept[name])

    def test_numeric_error_names_op_and_segment(self):
        cfg, weights, samples = toy_training_setup()
        samples[1] = data_mod.SegmentSample(scene=samples[1].scene,
                                            source_file="i80.csv", vehicle_id=4217,
                                            start_frame=360)
        weights.registry["dec0/ffn/w1"].data[0, 0] = np.nan
        with pytest.raises(NumericError) as info:
            train(samples[1:], [], weights, cfg, epochs=1)
        message = str(info.value)
        assert "matmul output" in message
        assert "epoch 0" in message
        assert "i80.csv" in message and "vehicle 4217" in message
        assert "start 360" in message

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_validation_names_segment_and_epoch(self):
        _, _, samples = toy_training_setup()
        cfg = ModelConfig(**{**TOY_DIMS, "dtype": "float32"})
        weights = ModelWeights(cfg)
        # coordinates of 1e30 m are finite in float32, but their attention
        # scores are not
        scene = samples[1].scene
        far = Scene(positions=scene.positions * 1e30, channel_mask=scene.channel_mask)
        val = [data_mod.SegmentSample(scene=far, source_file="us101.csv",
                                      vehicle_id=77, start_frame=5)]
        with pytest.raises(NumericError) as info:
            train(samples[:1], val, weights, cfg, epochs=2)
        message = str(info.value)
        assert "non-finite values in" in message
        assert "us101.csv, vehicle 77, start 5" in message
        assert "validating epoch 0" in message


def test_backward_frees_segment_graph_without_cyclic_gc():
    cfg, weights, samples = toy_training_setup(n_samples=1)
    gc.collect()
    gc.disable()
    try:
        loss = optim._segment_loss(samples[0], weights, cfg, True, ad.CounterRng(0))
        refs, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if id(node) not in seen and node._backward_fn is not None:
                seen.add(id(node))
                refs.append(weakref.ref(node))
                stack.extend(node._parents)
        del node
        ad.backward(loss)
        del loss
        assert len(refs) > 50
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_dropped_forward_graph_is_freed_without_cyclic_gc():
    cfg, weights, samples = toy_training_setup(n_samples=1)
    gc.collect()
    gc.disable()
    try:
        out = teacher_forced_forward(samples[0].scene, weights, cfg,
                                     training=True, rng=ad.CounterRng(0))
        assert out.requires_grad and out._backward_fn is not None
        ref = weakref.ref(out)
        del out
        assert ref() is None
    finally:
        gc.enable()
