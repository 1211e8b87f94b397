import numpy as np
import pytest

from sctn import autodiff as ad
from sctn import embedding
from sctn.autodiff import Tensor
from sctn.embedding import EmbeddingWeights
from sctn.errors import ConfigError, DataError


def t(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestPositionalEncoding:
    def test_t0_parity_pattern(self):
        row = embedding.positional_encoding(0, 8)
        # entries indexed by d = 1..D: even d -> sin(0) = 0, odd d -> cos(0) = 1
        for j, value in enumerate(row):
            d = j + 1
            assert value == (0.0 if d % 2 == 0 else 1.0)

    def test_t1_last_entry_even_dim(self):
        d_model = 16
        row = embedding.positional_encoding(1, d_model)
        assert row[-1] == pytest.approx(np.sin(1.0 / 10000.0), abs=1e-15)
        assert abs(row[-1] - 1.0e-4) < 1e-8

    def test_range(self):
        for tt in (0, 1, 5, 63, 200):
            row = embedding.positional_encoding(tt, 12)
            assert (np.abs(row) <= 1.0).all()

    def test_formula_oracle(self):
        d_model = 10
        for tt in range(64):
            row = embedding.positional_encoding(tt, d_model)
            for d in range(1, d_model + 1):
                angle = tt / 10000.0 ** (d / d_model)
                expected = np.sin(angle) if d % 2 == 0 else np.cos(angle)
                assert row[d - 1] == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        a = embedding.positional_encoding(17, 32)
        b = embedding.positional_encoding(17, 32)
        np.testing.assert_array_equal(a, b)

    def test_negative_t_rejected(self):
        with pytest.raises(ConfigError):
            embedding.positional_encoding(-1, 4)
        with pytest.raises(ConfigError):
            embedding.positional_encoding(np.array([0, 1, -2]), 4)


class TestPositionalTable:
    def test_build_matches_rows(self):
        table = embedding.positional_encoding(np.arange(10), 6)
        assert table.shape == (10, 6)
        for tt in range(10):
            np.testing.assert_array_equal(table[tt], embedding.positional_encoding(tt, 6))


class TestEmbedTrajectory:
    def test_zero_weights(self):
        w = EmbeddingWeights(mlp_w=t(np.zeros((2, 4))), mlp_b=t(np.zeros(4)))
        out = embedding.embed_trajectory(t([[1.0, 2.0]]), w)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_origin_gives_bias(self):
        b = np.array([1.0, 2.0, 3.0])
        w = EmbeddingWeights(mlp_w=t(np.random.default_rng(0).normal(size=(2, 3))),
                             mlp_b=t(b))
        out = embedding.embed_trajectory(t([[0.0, 0.0]]), w)
        np.testing.assert_allclose(out.data[0], b)

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(1)
        w = EmbeddingWeights(mlp_w=t(rng.normal(size=(2, 5))),
                             mlp_b=t(rng.normal(size=5)))
        pt = rng.normal(size=2)
        out = embedding.embed_trajectory(t(pt.reshape(1, 2)), w).data[0]
        expected = np.array([
            pt[0] * w.mlp_w.data[0, j] + pt[1] * w.mlp_w.data[1, j] + w.mlp_b.data[j]
            for j in range(5)])
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_non_finite_rejected(self):
        w = EmbeddingWeights(mlp_w=t(np.zeros((2, 3))), mlp_b=t(np.zeros(3)))
        with pytest.raises(DataError):
            embedding.embed_trajectory(t([[np.nan, 0.0]]), w)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        mlp_w = t(rng.normal(size=(2, 4)), grad=True)
        mlp_b = t(rng.normal(size=4))
        pts = t(rng.normal(size=(3, 2)))

        def f(p):
            out = embedding.embed_trajectory(pts, EmbeddingWeights(p, mlp_b))
            return ad.mean(ad.mul(out, out))

        assert ad.finite_difference_check(f, mlp_w) < 1e-4


class TestComposeInput:
    def test_zero_weights_leave_positional_rows(self):
        w = EmbeddingWeights(mlp_w=t(np.zeros((2, 6))), mlp_b=t(np.zeros(6)))
        table = embedding.positional_encoding(np.arange(4), 6)
        pts = np.random.default_rng(3).normal(size=(2, 4, 2))
        out = embedding.compose_input(pts, w, table).data
        for a in range(2):
            for tt in range(4):
                np.testing.assert_allclose(out[a, tt],
                                           embedding.positional_encoding(tt, 6))

    def test_identical_agents_identical_channels(self):
        rng = np.random.default_rng(4)
        w = EmbeddingWeights(mlp_w=t(rng.normal(size=(2, 6))),
                             mlp_b=t(rng.normal(size=6)))
        table = embedding.positional_encoding(np.arange(4), 6)
        track = rng.normal(size=(4, 2))
        out = embedding.compose_input(np.stack([track, track]), w, table).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_default_shape(self):
        rng = np.random.default_rng(5)
        w = EmbeddingWeights(mlp_w=t(rng.normal(size=(2, 512))),
                             mlp_b=t(rng.normal(size=512)))
        table = embedding.positional_encoding(np.arange(15), 512)
        out = embedding.compose_input(rng.normal(size=(10, 15, 2)), w, table)
        assert out.shape == (10, 15, 512)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        w = EmbeddingWeights(mlp_w=t(rng.normal(size=(2, 6))),
                             mlp_b=t(rng.normal(size=6)))
        table = embedding.positional_encoding(np.arange(4), 6)
        pts = rng.normal(size=(5, 4, 2))
        perm = rng.permutation(5)
        base = embedding.compose_input(pts, w, table).data
        permuted = embedding.compose_input(pts[perm], w, table).data
        np.testing.assert_array_equal(permuted, base[perm])
