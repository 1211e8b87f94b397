import contextlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sctn import autodiff as ad
from sctn import data as data_mod
from sctn import model
from sctn.autodiff import CounterRng, Tensor
from sctn.errors import ConfigError, NumericError, ShapeError, UsageError


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

    def test_matmul_rhs_must_be_rank2(self):
        # batched operands, matching or not, and rank-1 ones
        for lhs, rhs in [((2, 4, 5), (2, 5, 3)), ((2, 3, 4, 5), (2, 3, 5, 1)),
                         ((4, 5), (5,)), ((5,), (5, 3))]:
            with pytest.raises(ShapeError, match=re.escape(f"{lhs} @ {rhs}")):
                ad.matmul(t(np.ones(lhs)), t(np.ones(rhs)))

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))


def _summed_matmul_grads(a, b, g):
    """Reference gradients of a @ b from per-batch products summed over the
    leading axes, the way a batched backward forms them."""
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    while ga.ndim > a.ndim:
        ga = ga.sum(axis=0)
    while gb.ndim > b.ndim:
        gb = gb.sum(axis=0)
    return ga, gb


class TestSharedWeightMatmul:
    """A rank-2 rhs folds the leading axes of the lhs into rows."""

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_forward_and_gradients_match_batched_reference(self, lead):
        gen = np.random.default_rng(20)
        a_np = gen.normal(size=lead + (4, 5))
        b_np = gen.normal(size=(5, 6))
        w_np = gen.normal(size=lead + (4, 6))
        a, b = t(a_np, grad=True), t(b_np, grad=True)
        out = ad.matmul(a, b)
        np.testing.assert_allclose(out.data, np.matmul(a_np, b_np), rtol=0, atol=1e-12)
        ad.backward(ad.mean(ad.mul(out, t(w_np))))
        ga, gb = _summed_matmul_grads(a_np, b_np, (1.0 / w_np.size) * w_np)
        assert a.grad.shape == a_np.shape and b.grad.shape == b_np.shape
        np.testing.assert_allclose(a.grad, ga, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, gb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_finite_differences(self, lead):
        gen = np.random.default_rng(21)
        a = t(gen.normal(size=lead + (4, 5)), grad=True)
        b = t(gen.normal(size=(5, 6)), grad=True)

        def square_mean(out):
            return ad.mean(ad.mul(out, out))

        assert ad.finite_difference_check(
            lambda p: square_mean(ad.matmul(p, b)), a, step=1e-5) < 1e-7
        assert ad.finite_difference_check(
            lambda p: square_mean(ad.matmul(a, p)), b, step=1e-5) < 1e-7

    @pytest.mark.parametrize("grad_a", [True, False])
    def test_operand_without_grad_gets_none(self, grad_a):
        gen = np.random.default_rng(22)
        a = t(gen.normal(size=(2, 3, 4)), grad=grad_a)
        b = t(gen.normal(size=(4, 2)), grad=not grad_a)
        ad.backward(ad.mean(ad.matmul(a, b)))
        with_grad, without = (a, b) if grad_a else (b, a)
        assert with_grad.grad is not None and with_grad.grad.shape == with_grad.shape
        assert without.grad is None


def softmax_via_attention(scores):
    """softmax(scores) computed by attention: one query of feature 1 against
    one key per score (d_k = 1, so the scale is 1), with v = I the output is
    the weights."""
    scores = np.asarray(scores, dtype=np.float64)
    return ad.attention(t([[1.0]]), t(scores.reshape(-1, 1)), t(np.eye(scores.size)))


class TestSoftmax:
    """The softmax inside attention."""

    def test_symmetry(self):
        np.testing.assert_allclose(softmax_via_attention([0.0, 0.0]).data, [[0.5, 0.5]])

    def test_shift_invariance(self):
        for c in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(softmax_via_attention([c, c, c]).data,
                                       [[1 / 3] * 3], atol=1e-12)

    def test_exact_log_ratio(self):
        out = softmax_via_attention([np.log(2.0), 0.0])
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError, match="attention scores"):
            softmax_via_attention([np.nan, 0.0])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one_and_positive(self, xs):
        out = softmax_via_attention(xs).data
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
            out = ad.relu(ad.scalar_mul(w, 2.0))
        assert not out.requires_grad
        assert out._backward_fn is None and out._parents == ()
        assert ad.scalar_mul(w, 2.0).requires_grad

    def test_nests(self):
        w = t([1.0], grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.scalar_mul(w, 2.0).requires_grad
        assert ad.scalar_mul(w, 2.0).requires_grad

    def test_restored_after_exception(self):
        w = t([1.0], grad=True)
        with pytest.raises(NumericError):
            with ad.no_grad():
                ad.relu(t([np.nan]))
        assert ad.scalar_mul(w, 2.0).requires_grad

    def test_dropout_identity_is_no_node(self):
        x = t([1.0, 2.0], grad=True)
        assert ad.dropout(x, 0.1, False) is x
        assert ad.dropout(x, 0.0, True, CounterRng(0)) is x


CAUSAL_FILL = np.where(np.tril(np.ones((4, 4), dtype=bool)), 0.0, -1e9)

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
    "layer_norm": (ad.layer_norm, [(2, 3), (2, 3), (3,), (3,)]),
    "relu": (ad.relu, [(2, 3)]),
    "sigmoid": (ad.sigmoid, [(2, 3)]),
    "attention": (ad.attention, [(2, 3), (4, 3), (4, 2)]),
    "attention causal": (lambda q, k, v: ad.attention(q, k, v, fill=CAUSAL_FILL),
                         [(4, 3), (4, 3), (4, 2)]),
    "softmax": (lambda s: softmax_via_attention(s.data), [(2, 3)]),
}
CHECKING_PRIMITIVES = ("matmul", "add", "mul", "scalar_mul", "mean", "layer_norm",
                       "relu", "sigmoid", "attention")
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

    def test_minus_inf_score_rejected_though_its_weight_is_zero(self):
        # an infinite key gives a -inf score, weight 0 and a finite output
        q, v = t(np.ones((2, 3))), t(np.ones((4, 2)))
        k = np.ones((4, 3))
        k[2] = -np.inf
        with pytest.raises(NumericError, match="attention scores"):
            ad.attention(q, t(k), v)

    def test_float32_residual_overflow_names_layer_norm(self):
        big = Tensor(np.full((2, 3), 3e38, dtype=np.float32))
        gain, bias = (Tensor(np.full(3, c, dtype=np.float32)) for c in (1.0, 0.0))
        with pytest.raises(NumericError, match="layer_norm output"):
            ad.layer_norm(big, big, gain, bias)

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
        assert calls["matmul"] > 0 and calls["attention"] > 0
        # attention checks its scores and its output
        assert checking_calls <= op_calls
        assert calls["_require_finite"] == checking_calls + calls["attention"]


def layer_norm_reference(x, branch, gain, bias):
    """Residual layer norm in plain numpy, with ndarray.mean and .var."""
    s = x + branch
    mu = s.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(s.var(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
    return (s - mu) * inv * gain + bias


class TestLayerNorm:
    def test_constant_vector_returns_bias(self):
        gain, bias = t(np.ones(4)), t(np.zeros(4))
        out = ad.layer_norm(t(np.full(4, 1.1)), t(np.full(4, 2.2)), gain, bias)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_already_normalized(self):
        out = ad.layer_norm(t([1.0, -1.0]), t([0.0, 0.0]), t(np.ones(2)), t(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-3)

    def test_zero_gain_returns_bias(self):
        b = np.array([2.0, -1.0, 0.5])
        rng = np.random.default_rng(1)
        out = ad.layer_norm(t(rng.normal(size=(5, 3))), t(rng.normal(size=(5, 3))),
                            t(np.zeros(3)), t(b))
        np.testing.assert_allclose(out.data, np.broadcast_to(b, (5, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="residual shapes differ"):
            ad.layer_norm(t(np.zeros((2, 3))), t(np.zeros((3, 3))),
                          t(np.ones(3)), t(np.zeros(3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d", [64, 12])
    def test_matches_mean_var_reference_bit_for_bit(self, dtype, d):
        rng = np.random.default_rng(2)
        x, branch = (rng.normal(size=(3, 5, d)).astype(dtype) for _ in range(2))
        gain, bias = (rng.normal(size=d).astype(dtype) for _ in range(2))
        out = ad.layer_norm(*(Tensor(a) for a in (x, branch, gain, bias)))
        assert out.dtype == dtype
        assert np.array_equal(out.data, layer_norm_reference(x, branch, gain, bias))

    @pytest.mark.parametrize("operand", range(4), ids=["x", "branch", "gain", "bias"])
    def test_finite_differences(self, operand):
        rng = np.random.default_rng(3)
        operands = [t(rng.normal(size=shape), grad=True)
                    for shape in [(2, 3, 5), (2, 3, 5), (5,), (5,)]]
        weights = t(rng.normal(size=(2, 3, 5)))

        def f(p):
            args = operands[:operand] + [p] + operands[operand + 1:]
            return ad.mean(ad.mul(ad.layer_norm(*args), weights))

        assert ad.finite_difference_check(f, operands[operand], step=1e-5) < 1e-7

    def test_shared_operand_gets_both_gradients(self):
        # x as both the residual and the branch gets the gradient of both uses
        rng = np.random.default_rng(4)
        x = t(rng.normal(size=(3, 4)), grad=True)
        gain, bias = t(rng.normal(size=4)), t(rng.normal(size=4))
        weights = t(rng.normal(size=(3, 4)))
        assert ad.finite_difference_check(
            lambda p: ad.mean(ad.mul(ad.layer_norm(p, p, gain, bias), weights)),
            x, step=1e-5) < 1e-7


class TestAttention:
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
    @pytest.mark.parametrize("operand", range(3), ids=["q", "k", "v"])
    def test_finite_differences(self, operand, masked):
        rng = np.random.default_rng(5)
        operands = [t(rng.normal(size=(2, 4, d)), grad=True) for d in (3, 3, 2)]
        weights = t(rng.normal(size=(2, 4, 2)))
        fill = CAUSAL_FILL if masked else None

        def f(p):
            args = operands[:operand] + [p] + operands[operand + 1:]
            return ad.mean(ad.mul(ad.attention(*args, fill=fill), weights))

        assert ad.finite_difference_check(f, operands[operand], step=1e-5) < 1e-7

    def test_masked_key_gets_no_gradient(self):
        rng = np.random.default_rng(6)
        q, k, v = (t(rng.normal(size=(4, 3)), grad=True) for _ in range(3))
        # causal, and the last query blocked from the last key too: no query
        # attends to that key
        fill = CAUSAL_FILL.copy()
        fill[3, 3] = -1e9
        ad.backward(ad.mean(ad.attention(q, k, v, fill=fill)))
        assert np.array_equal(k.grad[3], np.zeros(3))
        assert np.array_equal(v.grad[3], np.zeros(3))
        assert np.abs(k.grad[:3]).min() > 0

    def test_float32_stays_float32(self):
        gen = np.random.default_rng(7)
        q, k, v = (Tensor(gen.normal(size=(2, 3, 4)).astype(np.float32)) for _ in range(3))
        assert ad.attention(q, k, v).dtype == np.float32

    @pytest.mark.parametrize("shapes", [
        [(2, 3, 4), (3, 3, 4), (3, 3, 2)],
        [(3, 4), (5, 3), (5, 2)],
        [(3, 4), (5, 4), (4, 2)],
    ], ids=["leading", "features", "keys"])
    def test_misaligned_operands_rejected(self, shapes):
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(*(t(np.zeros(shape)) for shape in shapes))


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
        # scores enter attention's softmax as keys of one d_k = 1 query
        x = t(np.random.default_rng(4).normal(size=(5, 1)), grad=True)
        target = np.random.default_rng(5).normal(size=(1, 5))

        def f(p):
            s = ad.attention(t([[1.0]]), p, t(np.eye(5)))
            d = ad.add(s, ad.scalar_mul(Tensor(target), -1.0))
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
        return ad.attention(h, h, h).data

    np.testing.assert_array_equal(run(), run())
