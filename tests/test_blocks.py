import numpy as np
import pytest

from sctn import autodiff as ad
from sctn import blocks
from sctn.autodiff import Tensor
from sctn.blocks import FeedForwardWeights, MultiHeadWeights, causal_fill
from sctn.errors import ShapeError


def t(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def identity_mha(d):
    return MultiHeadWeights(*(t(np.eye(d)) for _ in range(4)))


def random_mha(rng, d, heads):
    return MultiHeadWeights(*(t(rng.normal(size=(d, d))) for _ in range(4)), heads=heads)


def mask_fill(mask, dtype):
    """Boolean mask (True = may attend) -> additive fill for blocked slots."""
    return np.where(mask, 0.0, blocks.MASK_FILL).astype(dtype)


def attention_reference(q, k, v, mask=None):
    """Scaled dot-product attention in plain numpy, one step at a time: the
    scores, their scale, the mask fill, a max-shifted softmax, the weighted
    sum."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores = scores * float(1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        scores = scores + mask_fill(mask, scores.dtype)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return np.matmul(e / e.sum(axis=-1, keepdims=True), v)


def per_head_reference(x_q, x_kv, w, mask=None):
    """Multi-head attention in plain numpy, one head (column block) at a time."""
    wq, wk, wv, wo = (p.data for p in (w.w_q, w.w_k, w.w_v, w.w_o))
    d_k = wq.shape[1] // w.heads
    heads = []
    for i in range(w.heads):
        cols = slice(i * d_k, (i + 1) * d_k)
        heads.append(attention_reference(x_q @ wq[:, cols], x_kv @ wk[:, cols],
                                         x_kv @ wv[:, cols], mask))
    return np.concatenate(heads, axis=-1) @ wo


def self_attention(x, w, fill=None):
    return blocks.multi_head_attention(x, w, blocks.keys_values(x, w), fill)


class TestScaledDotAttention:
    """autodiff.attention under the fills blocks makes."""

    def test_single_key_returns_value(self):
        q = t([[1.0, 2.0]])
        v = t([[5.0, -3.0]])
        out = ad.attention(q, q, v)
        np.testing.assert_allclose(out.data, v.data)

    def test_orthogonal_scores_give_value_mean(self):
        q = t([[1.0, 0.0]])
        k = t([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0]])
        v = t([[3.0, 0.0], [0.0, 3.0], [6.0, 6.0]])
        out = ad.attention(q, k, v)
        np.testing.assert_allclose(out.data, v.data.mean(axis=0, keepdims=True))

    def test_hand_derived_two_key_case(self):
        # raw scores [2, 0] at d_k = 4 scale to [1, 0]
        q = t([[1.0, 0.0, 0.0, 0.0]])
        k = t([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        v = t([[1.0, 0.0], [0.0, 1.0]])
        e = np.e
        expected = [[e / (e + 1), 1 / (e + 1)]]
        out = ad.attention(q, k, v)
        np.testing.assert_allclose(out.data, expected, atol=1e-4)
        assert out.data[0, 0] == pytest.approx(0.7311, abs=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_causal_fill_blocks_only_later_keys(self, dtype):
        for n in (1, 2, 5):
            fill = causal_fill(n, dtype)
            assert fill.dtype == dtype
            assert np.array_equal(fill, mask_fill(np.tril(np.ones((n, n), bool)), dtype))
            # the diagonal stays open, so every query row keeps a key
            assert (fill == 0).any(axis=-1).all()

    def test_joint_kv_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = t(rng.normal(size=(3, 4)))
            k = rng.normal(size=(5, 4))
            v = rng.normal(size=(5, 4))
            perm = rng.permutation(5)
            base = ad.attention(q, t(k), t(v)).data
            perm_out = ad.attention(q, t(k[perm]), t(v[perm])).data
            np.testing.assert_allclose(perm_out, base, atol=1e-6)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(1)
        q = t(rng.normal(size=(4, 4)))
        k = rng.normal(size=(4, 4))
        v = rng.normal(size=(4, 4))
        fill = causal_fill(4, np.float64)
        base = ad.attention(q, t(k), t(v), fill=fill).data
        k2, v2 = k.copy(), v.copy()
        k2[3] += 100.0
        v2[3] -= 50.0
        changed = ad.attention(q, t(k2), t(v2), fill=fill).data
        np.testing.assert_allclose(changed[:3], base[:3], atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "causal"])
    @pytest.mark.parametrize("lead", [(), (3, 4)], ids=["rank2", "rank4"])
    def test_matches_reference_bit_for_bit(self, lead, masked, dtype):
        rng = np.random.default_rng(2)
        q, k, v = (rng.normal(size=lead + (5, 16)).astype(dtype) for _ in range(3))
        fill = causal_fill(5, dtype) if masked else None
        mask = np.tril(np.ones((5, 5), bool)) if masked else None
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), fill=fill)
        assert out.dtype == dtype
        assert np.array_equal(out.data, attention_reference(q, k, v, mask))


class TestMultiHead:
    def test_single_identity_head_reduces(self):
        rng = np.random.default_rng(2)
        x = t(rng.normal(size=(5, 4)))
        out = self_attention(x, identity_mha(4))
        direct = ad.attention(x, x, x)
        np.testing.assert_allclose(out.data, direct.data, atol=1e-6)

    def test_feature_dim_checked_against_output_projection(self):
        # the D x D projections' matmul rejects inputs of another width
        x = t(np.zeros((5, 4)))
        with pytest.raises(ShapeError, match=r"inner dimensions differ: \(5, 4\) @ \(3, 3\)"):
            self_attention(x, identity_mha(3))

    def test_shape_preserved(self):
        rng = np.random.default_rng(3)
        w = random_mha(rng, 16, heads=4)
        x = t(rng.normal(size=(15, 16)))
        assert self_attention(x, w).shape == (15, 16)

    def test_batched_matches_per_channel(self):
        rng = np.random.default_rng(4)
        w = random_mha(rng, 8, heads=2)
        x = rng.normal(size=(3, 6, 8))
        for fill in (None, causal_fill(6, np.float64)):
            batched = self_attention(t(x), w, fill).data
            for c in range(3):
                single = self_attention(t(x[c]), w, fill).data
                np.testing.assert_allclose(batched[c], single, atol=1e-10)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_matches_per_head_reference(self, lead, masked):
        # cross-attention: queries from x_q, keys and values from x_kv
        rng = np.random.default_rng(5)
        w = random_mha(rng, 12, heads=3)
        x_q = rng.normal(size=lead + (4, 12))
        x_kv = rng.normal(size=lead + (6, 12))
        mask = None
        if masked:
            mask = rng.random((4, 6)) < 0.5
            mask[:, 0] = True
        fill = None if mask is None else mask_fill(mask, np.float64)
        out = blocks.multi_head_attention(t(x_q), w, blocks.keys_values(t(x_kv), w), fill)
        np.testing.assert_allclose(out.data, per_head_reference(x_q, x_kv, w, mask),
                                   rtol=0, atol=1e-12)


class TestFeedForward:
    def test_zero_first_layer_gives_b2(self):
        w = FeedForwardWeights(w1=t(np.zeros((4, 8))), b1=t(np.zeros(8)),
                               w2=t(np.zeros((8, 4))), b2=t([1.0, 2.0, 3.0, 4.0]))
        out = blocks.feed_forward(t(np.random.default_rng(5).normal(size=(3, 4))), w)
        np.testing.assert_allclose(out.data, np.broadcast_to(w.b2.data, (3, 4)))

    def test_relu_kill_gives_b2(self):
        rng = np.random.default_rng(6)
        w = FeedForwardWeights(w1=t(rng.normal(size=(4, 8))), b1=t(np.full(8, -100.0)),
                               w2=t(rng.normal(size=(8, 4))), b2=t(rng.normal(size=4)))
        x = t(rng.uniform(-0.5, 0.5, size=(3, 4)))
        out = blocks.feed_forward(x, w)
        np.testing.assert_allclose(out.data, np.broadcast_to(w.b2.data, (3, 4)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        w = FeedForwardWeights(w1=t(rng.normal(size=(3, 5))), b1=t(rng.normal(size=5)),
                               w2=t(rng.normal(size=(5, 3))), b2=t(rng.normal(size=3)))
        x = rng.normal(size=(4, 3))
        out = blocks.feed_forward(t(x), w).data
        expected = np.zeros((4, 3))
        for i in range(4):
            hidden = np.zeros(5)
            for j in range(5):
                acc = w.b1.data[j]
                for d in range(3):
                    acc += x[i, d] * w.w1.data[d, j]
                hidden[j] = max(0.0, acc)
            for o in range(3):
                acc = w.b2.data[o]
                for j in range(5):
                    acc += hidden[j] * w.w2.data[j, o]
                expected[i, o] = acc
        np.testing.assert_allclose(out, expected, atol=1e-9)


class TestResidualSublayer:
    def test_zero_branch_is_layer_norm(self):
        rng = np.random.default_rng(8)
        x = t(rng.normal(size=(3, 4)))
        gain, bias = t(np.ones(4)), t(np.zeros(4))
        out = blocks.residual_sublayer(x, t(np.zeros((3, 4))), gain, bias)
        centred = x.data - x.data.mean(axis=-1, keepdims=True)
        expected = centred / np.sqrt(x.data.var(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
        np.testing.assert_allclose(out.data, expected)

    def test_zero_everything_gives_bias(self):
        b = np.array([1.0, -2.0, 0.5, 3.0])
        out = blocks.residual_sublayer(t(np.zeros((2, 4))), t(np.zeros((2, 4))),
                                       t(np.zeros(4)), t(b))
        np.testing.assert_allclose(out.data, np.broadcast_to(b, (2, 4)))

    def test_gradient_passes_finite_difference(self):
        rng = np.random.default_rng(9)
        x = t(rng.normal(size=(3, 4)), grad=True)
        gain, bias = t(np.ones(4)), t(np.zeros(4))
        w = FeedForwardWeights(w1=t(rng.normal(size=(4, 6))), b1=t(rng.normal(size=6)),
                               w2=t(rng.normal(size=(6, 4))), b2=t(rng.normal(size=4)))

        def f(p):
            out = blocks.residual_sublayer(p, blocks.feed_forward(p, w), gain, bias)
            return ad.mean(ad.mul(out, out))

        assert ad.finite_difference_check(f, x) < 1e-4
