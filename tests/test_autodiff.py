import numpy as np
import pytest
from hypothesis import given, strategies as st

from sctn import autodiff as ad
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

    def test_primitive_forward_dispatch(self):
        out = ad.primitive_forward("relu", t([-2.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])
        with pytest.raises(UsageError):
            ad.primitive_forward("conv", t([0.0]))

    def test_concat_and_transpose(self):
        a, b = t([[1.0, 2.0]]), t([[3.0]])
        np.testing.assert_array_equal(ad.concat_last([a, b]).data, [[1, 2, 3]])
        np.testing.assert_array_equal(ad.transpose(a).data, [[1], [2]])

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

    def test_index_gradient(self):
        x = t(np.arange(5.0), grad=True)
        ad.backward(ad.scalar_mul(ad.mean(ad.index(x, slice(1, 3))), 2.0))
        np.testing.assert_array_equal(x.grad, [0, 1, 1, 0, 0])


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

    def test_bad_step(self):
        with pytest.raises(UsageError):
            ad.finite_difference_check(lambda p: ad.mean(p), t([1.0], grad=True), step=0)


def test_forward_determinism():
    def run():
        rng = CounterRng(11)
        x = t(np.arange(12.0).reshape(3, 4), grad=True)
        h = ad.dropout(ad.relu(ad.matmul(x, t(np.ones((4, 4))))), 0.3, True, rng)
        return ad.softmax(h, axis=-1).data

    np.testing.assert_array_equal(run(), run())
