import numpy as np
import pytest

from sctn import autodiff as ad
from sctn import se
from sctn.autodiff import Tensor
from sctn.se import SEWeights
from sctn.errors import ShapeError


def t(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def zero_weights(n):
    width = se.bottleneck_width(n)
    return SEWeights(w1=t(np.zeros((n, width))), w2=t(np.zeros((width, n))))


def test_bottleneck_halves_channels_and_keeps_one():
    assert [se.bottleneck_width(n) for n in (1, 2, 3, 10, 11)] == [1, 1, 1, 5, 5]


class TestSqueeze:
    def test_constant_channel(self):
        e = t(np.full((3, 4, 5), 2.5))
        np.testing.assert_allclose(se.squeeze(e).data, [2.5] * 3)

    def test_slab_mean_oracle(self):
        e = t(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert se.squeeze(e).data[0] == pytest.approx(2.5)

    def test_zero_input(self):
        np.testing.assert_array_equal(se.squeeze(t(np.zeros((2, 3, 4)))).data,
                                      np.zeros(2))

    def test_requires_rank3(self):
        with pytest.raises(ShapeError):
            se.squeeze(t(np.zeros((2, 3))))


class TestExcite:
    def test_zero_weights_give_half(self):
        out = se.excite(t([1.0, -2.0, 3.0]), zero_weights(3))
        np.testing.assert_allclose(out.data, [0.5] * 3)

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            width = se.bottleneck_width(n)
            w = SEWeights(w1=t(rng.normal(scale=3, size=(n, width))),
                          w2=t(rng.normal(scale=3, size=(width, n))))
            out = se.excite(t(rng.normal(scale=5, size=n)), w).data
            assert ((out > 0.0) & (out < 1.0)).all()

    def test_closed_form_scalar_path(self):
        # n = 2, r = 2: hidden = relu(w1 . z), s = sigmoid(ln 3 * hidden) = 0.75
        w = SEWeights(w1=t(np.array([[1.0], [1.0]])),
                      w2=t(np.array([[np.log(3.0), np.log(3.0)]])))
        out = se.excite(t([1.0, 0.0]), w).data
        np.testing.assert_allclose(out, [0.75, 0.75], atol=1e-9)


class TestScale:
    def test_identity(self):
        e = np.random.default_rng(1).normal(size=(2, 3, 4))
        np.testing.assert_array_equal(ad.scale_channels(t(e), t(np.ones(2))).data, e)

    def test_halving(self):
        e = np.random.default_rng(2).normal(size=(2, 3, 4))
        np.testing.assert_allclose(ad.scale_channels(t(e), t([0.5, 0.5])).data, e / 2)

    def test_per_channel_loop_oracle(self):
        e = np.random.default_rng(3).normal(size=(2, 3, 4))
        s = np.array([1.0, 0.25])
        out = ad.scale_channels(t(e), t(s)).data
        expected = np.empty_like(e)
        for c in range(2):
            for i in range(3):
                for j in range(4):
                    expected[c, i, j] = s[c] * e[c, i, j]
        np.testing.assert_allclose(out, expected, atol=1e-9)


class TestFullPass:
    def test_shape_preserved(self):
        rng = np.random.default_rng(4)
        e = t(rng.normal(size=(5, 6, 7)))
        width = se.bottleneck_width(5)
        w = SEWeights(w1=t(rng.normal(size=(5, width))),
                      w2=t(rng.normal(size=(width, 5))))
        assert se.se_pass(e, w, np.ones(5, bool)).shape == (5, 6, 7)

    def test_only_attenuates(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(4, 3, 5))
        width = se.bottleneck_width(4)
        w = SEWeights(w1=t(rng.normal(size=(4, width))),
                      w2=t(rng.normal(size=(width, 4))))
        out = se.se_pass(t(e), w, np.ones(4, bool)).data
        for c in range(4):
            assert np.linalg.norm(out[c]) <= np.linalg.norm(e[c])

    def test_zero_init_halves_every_channel(self):
        e = np.random.default_rng(6).normal(size=(3, 4, 5))
        out = se.se_pass(t(e), zero_weights(3), np.ones(3, bool)).data
        np.testing.assert_allclose(out, e / 2, atol=1e-12)

    def test_masked_channels_cannot_influence_real_ones(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=(3, 4, 5))
        mask = np.array([True, True, False])
        width = se.bottleneck_width(3)
        w = SEWeights(w1=t(rng.normal(size=(3, width))),
                      w2=t(rng.normal(size=(width, 3))))
        base = se.se_pass(t(e), w, channel_mask=mask).data
        e2 = e.copy()
        e2[2] += rng.normal(scale=10, size=(4, 5))
        changed = se.se_pass(t(e2), w, channel_mask=mask).data
        np.testing.assert_allclose(changed[:2], base[:2], atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        width = se.bottleneck_width(3)
        w1 = t(rng.normal(size=(3, width)), grad=True)
        w2 = t(rng.normal(size=(width, 3)))
        e = t(rng.normal(size=(3, 4, 5)), grad=True)

        def f_input(p):
            out = se.se_pass(p, SEWeights(w1=w1, w2=w2), np.ones(3, bool))
            return ad.mean(ad.mul(out, out))

        def f_w1(p):
            out = se.se_pass(e, SEWeights(w1=p, w2=w2), np.ones(3, bool))
            return ad.mean(ad.mul(out, out))

        assert ad.finite_difference_check(f_input, e) < 1e-4
        assert ad.finite_difference_check(f_w1, w1) < 1e-4
