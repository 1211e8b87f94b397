import gc
import weakref

import numpy as np
import pytest

from sctn import autodiff as ad
from sctn import data as data_mod
from sctn import optim
from sctn.autodiff import Tensor
from sctn.errors import DataError, ShapeError, UsageError
from sctn.model import ModelConfig, ModelWeights, TOY_DIMS, Scene
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
