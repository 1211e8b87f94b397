import contextlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sctn import autodiff as ad
from sctn import data as data_mod
from sctn import model
from sctn.autodiff import CounterRng, Tensor
from sctn.errors import ConfigError, MaskError, NumericError, ShapeError, UsageError


def t(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestPrimitives:
    def test_relu(self):
        out = ad.relu(t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_matmul_identity(self):
        a = np.random.default_rng(0).normal(size=(3, 5))
        out = ad.matmul(t(np.eye(3)), t(a))
        np.testing.assert_allclose(out.data, a)

    def test_sigmoid_zero(self):
        assert ad.sigmoid(t([0.0])).data[0] == pytest.approx(0.5)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_non_finite_input_raises(self):
        with pytest.raises(NumericError):
            ad.relu(t([np.nan]))
        with pytest.raises(NumericError):
            ad.matmul(t([[np.inf]]), t([[1.0]]))

    def test_bias_broadcast(self):
        out = ad.add(t(np.zeros((2, 3))), t([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))

    def test_concat_and_transpose(self):
        a = t([[1.0, 2.0]])
        np.testing.assert_array_equal(ad.transpose(a).data, [[1], [2]])
        # heads (h x T x d_k) are concatenated along features by an axis
        # swap and a reshape
        heads = np.arange(12.0).reshape(2, 3, 2)
        merged = ad.reshape(ad.transpose(t(heads), 0, 1), (3, 4))
        np.testing.assert_array_equal(merged.data, np.concatenate(heads, axis=-1))

    def test_matmul_batch_axes_must_match(self):
        with pytest.raises(ShapeError, match="batch dimensions differ"):
            ad.matmul(t(np.zeros((2, 3, 4, 5))), t(np.zeros((2, 2, 5, 4))))
        out = ad.matmul(t(np.ones((2, 3, 4, 5))), t(np.ones((2, 3, 5, 1))))
        np.testing.assert_array_equal(out.data, np.full((2, 3, 4, 1), 5.0))

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax(t([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(ad.softmax(t([c, c, c])).data,
                                       [1 / 3] * 3, atol=1e-12)

    def test_exact_log_ratio(self):
        out = ad.softmax(t([np.log(2.0), 0.0]))
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            ad.softmax(t([np.nan, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one_and_positive(self, xs):
        out = ad.softmax(t(xs)).data
        assert abs(out.sum() - 1.0) < 1e-6
        assert (out > 0).all()


class TestDropout:
    def test_inference_identity(self):
        x = t(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ad.dropout(x, 0.1, False).data, x.data)

    def test_zero_rate_identity(self):
        x = t(np.arange(4.0))
        rng = CounterRng(0)
        np.testing.assert_array_equal(ad.dropout(x, 0.0, True, rng).data, x.data)

    def test_monte_carlo_mean(self):
        x = t(np.ones(100_000))
        out = ad.dropout(x, 0.1, True, CounterRng(7))
        assert out.data.mean() == pytest.approx(1.0, abs=0.01)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            ad.dropout(t([1.0]), 1.0, True, CounterRng(0))
        with pytest.raises(ConfigError):
            ad.dropout(t([1.0]), -0.1, True, CounterRng(0))

    def test_counter_rng_replays(self):
        a, b = CounterRng(3), CounterRng(3)
        for _ in range(4):
            np.testing.assert_array_equal(a.uniform((5,)), b.uniform((5,)))


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        w = t([1.0, -2.0], grad=True)
        with ad.no_grad():
            out = ad.relu(w * 2.0)
        assert not out.requires_grad
        assert out._backward_fn is None and out._parents == ()
        assert (w * 2.0).requires_grad

    def test_nests(self):
        w = t([1.0], grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad

    def test_restored_after_exception(self):
        w = t([1.0], grad=True)
        with pytest.raises(NumericError):
            with ad.no_grad():
                ad.relu(t([np.nan]))
        assert (w * 2.0).requires_grad

    def test_dropout_identity_is_no_node(self):
        x = t([1.0, 2.0], grad=True)
        assert ad.dropout(x, 0.1, False) is x
        assert ad.dropout(x, 0.0, True, CounterRng(0)) is x


# each finiteness-checking op, with the shapes of its finite operands
CHECKING_OPS = {
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "add": (ad.add, [(2, 3), (2, 3)]),
    "add bias": (ad.add, [(2, 3), (3,)]),
    "mul": (ad.mul, [(2, 3), (2, 3)]),
    "scalar_mul": (lambda a: ad.scalar_mul(a, 2.0), [(2, 3)]),
    "scalar_mul by zero": (lambda a: ad.scalar_mul(a, 0.0), [(2, 3)]),
    "mean": (ad.mean, [(2, 3)]),
    "mean axis": (lambda a: ad.mean(a, axis=0), [(2, 3)]),
    "layer_norm": (ad.layer_norm, [(2, 3), (3,), (3,)]),
    "relu": (ad.relu, [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "softmax": (ad.softmax, [(2, 3)]),
}
CHECKING_PRIMITIVES = ("matmul", "add", "mul", "scalar_mul", "mean", "layer_norm",
                       "relu", "sigmoid", "softmax")
ALL_PRIMITIVES = CHECKING_PRIMITIVES + ("transpose", "reshape", "scale_channels",
                                        "dropout")


def _planted_cases():
    for name, (_, shapes) in CHECKING_OPS.items():
        for pos in range(len(shapes)):
            for bad in (np.nan, np.inf, -np.inf):
                yield pytest.param(name, pos, bad, id=f"{name}-arg{pos}-{bad}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFinitenessPolicy:
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("name, pos, bad", list(_planted_cases()))
    def test_non_finite_operand_raises(self, name, pos, bad, grad):
        fn, shapes = CHECKING_OPS[name]
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=shape) + 1.0 for shape in shapes]
        arrays[pos].flat[1] = bad
        mode = contextlib.nullcontext() if grad else ad.no_grad()
        with pytest.raises(NumericError, match="non-finite values in"), mode:
            fn(*[t(a, grad=True) for a in arrays])

    def test_finite_operands_pass(self):
        rng = np.random.default_rng(0)
        for fn, shapes in CHECKING_OPS.values():
            out = fn(*[t(rng.normal(size=shape)) for shape in shapes])
            assert np.isfinite(out.data).all()

    def test_float32_matmul_overflow_names_op(self):
        big = Tensor(np.full((2, 2), 1e20, dtype=np.float32))
        with pytest.raises(NumericError, match="matmul output"):
            ad.matmul(big, big)

    @pytest.mark.parametrize("op", ["add", "mul", "scalar_mul"])
    def test_float32_elementwise_overflow_names_op(self, op):
        big = Tensor(np.full(3, 3e38, dtype=np.float32))
        fns = {"add": lambda: ad.add(big, big), "mul": lambda: ad.mul(big, big),
               "scalar_mul": lambda: ad.scalar_mul(big, 4.0)}
        with pytest.raises(NumericError, match=f"{op} output"):
            fns[op]()

    def test_predict_checks_at_most_once_per_op(self, monkeypatch):
        cfg = model.ModelConfig(seed=0, **model.TOY_DIMS)
        weights = model.ModelWeights(cfg)
        sample = data_mod.synthesize_scenes(1, "turn", seed=1, n_agents=cfg.n_agents)[0]
        window = cfg.t_obs + cfg.t_pred
        scene = model.Scene(positions=sample.scene.positions[:, :window],
                            channel_mask=sample.scene.channel_mask)
        calls = dict.fromkeys(ALL_PRIMITIVES + ("_require_finite",), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
        model.predict(scene, weights, cfg)
        op_calls = sum(calls[name] for name in ALL_PRIMITIVES)
        checking_calls = sum(calls[name] for name in CHECKING_PRIMITIVES)
        assert calls["matmul"] > 0 and calls["softmax"] > 0
        assert calls["_require_finite"] == checking_calls <= op_calls


class TestLayerNorm:
    def test_constant_vector_returns_bias(self):
        gain, bias = t(np.ones(4)), t(np.zeros(4))
        out = ad.layer_norm(t(np.full(4, 3.3)), gain, bias)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_already_normalized(self):
        out = ad.layer_norm(t([1.0, -1.0]), t(np.ones(2)), t(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-3)

    def test_zero_gain_returns_bias(self):
        b = np.array([2.0, -1.0, 0.5])
        out = ad.layer_norm(t(np.random.default_rng(1).normal(size=(5, 3))),
                            t(np.zeros(3)), t(b))
        np.testing.assert_allclose(out.data, np.broadcast_to(b, (5, 3)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.arange(6.0).reshape(2, 3), grad=True)
        loss = ad.scalar_mul(ad.mean(x), x.size)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_square_gradient(self):
        x = t([1.0, 2.0], grad=True)
        loss = ad.scalar_mul(ad.mean(ad.mul(x, x)), 2.0)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_linear_scaling_exact(self):
        c = 3.75
        x = t(np.random.default_rng(2).normal(size=7), grad=True)
        loss = ad.scalar_mul(ad.mean(ad.scalar_mul(x, c)), x.size)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(7, c))

    def test_fanout_accumulates(self):
        x = t([2.0], grad=True)
        loss = ad.add(x, x)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(UsageError):
            ad.backward(t([1.0, 2.0], grad=True))

    def test_only_leaves_keep_grad(self):
        x = t(np.arange(6.0).reshape(2, 3), grad=True)
        w = t(np.ones((3, 2)), grad=True)
        hidden = ad.matmul(x, w)
        squared = ad.mul(hidden, hidden)
        loss = ad.mean(squared)
        ad.backward(loss)
        assert x.grad is not None and w.grad is not None
        assert hidden.grad is None and squared.grad is None and loss.grad is None


class TestFiniteDifference:
    def test_quadratic(self):
        x = t(np.random.default_rng(3).normal(size=6), grad=True)

        def f(p):
            return ad.scalar_mul(ad.mean(ad.mul(p, p)), p.size)

        assert ad.finite_difference_check(f, x, step=1e-3) < 1e-8

    def test_constant(self):
        x = t(np.ones(3), grad=True)

        def f(p):
            return ad.scalar_mul(ad.mean(p), 0.0)

        assert ad.finite_difference_check(f, x) == 0.0

    def test_softmax_composition(self):
        x = t(np.random.default_rng(4).normal(size=5), grad=True)
        target = np.random.default_rng(5).normal(size=5)

        def f(p):
            s = ad.softmax(p)
            d = s - Tensor(target)
            return ad.mean(ad.mul(d, d))

        assert ad.finite_difference_check(f, x) < 1e-4

    def test_transpose_leading_axes(self):
        x = t(np.random.default_rng(6).normal(size=(2, 3, 4)), grad=True)
        weights = t(np.random.default_rng(7).normal(size=(3, 2, 4)))

        def f(p):
            return ad.mean(ad.mul(ad.transpose(p, 0, 1), weights))

        assert ad.finite_difference_check(f, x, step=1e-5) < 1e-8

    def test_bad_step(self):
        with pytest.raises(UsageError):
            ad.finite_difference_check(lambda p: ad.mean(p), t([1.0], grad=True), step=0)


def test_forward_determinism():
    def run():
        rng = CounterRng(11)
        x = t(np.arange(12.0).reshape(3, 4), grad=True)
        h = ad.dropout(ad.relu(ad.matmul(x, t(np.ones((4, 4))))), 0.3, True, rng)
        return ad.softmax(h).data

    np.testing.assert_array_equal(run(), run())
