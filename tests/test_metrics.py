import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sctn import data as data_mod
from sctn import model, optim
from sctn.errors import UsageError
from sctn.metrics import ade, evaluate, fde, rmse
from sctn.model import ModelConfig, ModelWeights, Scene


def naive_ade(pred, truth, mask, frames):
    total, count = 0.0, 0
    for n in range(pred.shape[0]):
        if not mask[n]:
            continue
        for t in range(frames):
            dx = pred[n, t, 0] - truth[n, t, 0]
            dy = pred[n, t, 1] - truth[n, t, 1]
            total += (dx * dx + dy * dy) ** 0.5
            count += 1
    return total / count


def naive_fde(pred, truth, mask, frames):
    total, count = 0.0, 0
    for n in range(pred.shape[0]):
        if not mask[n]:
            continue
        dx = pred[n, frames - 1, 0] - truth[n, frames - 1, 0]
        dy = pred[n, frames - 1, 1] - truth[n, frames - 1, 1]
        total += (dx * dx + dy * dy) ** 0.5
        count += 1
    return total / count


def naive_rmse(pred, truth, mask, frames):
    total, count = 0.0, 0
    for n in range(pred.shape[0]):
        if not mask[n]:
            continue
        for t in range(frames):
            dx = pred[n, t, 0] - truth[n, t, 0]
            dy = pred[n, t, 1] - truth[n, t, 1]
            total += dx * dx + dy * dy
            count += 1
    return (total / count) ** 0.5


def random_case(rng):
    n = int(rng.integers(1, 16))
    t = int(rng.integers(1, 26))
    pred = rng.normal(scale=5, size=(n, t, 2))
    truth = rng.normal(scale=5, size=(n, t, 2))
    mask = rng.random(n) < 0.8
    if not mask.any():
        mask[0] = True
    frames = int(rng.integers(1, t + 1))
    return pred, truth, mask, frames


class TestHandCases:
    def test_perfect_prediction(self):
        y = np.ones((2, 3, 2))
        mask = np.ones(2, dtype=bool)
        assert ade(y, y, mask, 3) == 0.0
        assert fde(y, y, mask, 3) == 0.0
        assert rmse(y, y, mask, 3) == 0.0

    def test_three_four_five(self):
        truth = np.zeros((1, 2, 2))
        pred = np.zeros((1, 2, 2))
        pred[0, 0] = [3.0, 4.0]
        mask = np.ones(1, dtype=bool)
        assert ade(pred, truth, mask, 2) == pytest.approx(2.5)
        pred2 = np.zeros((1, 1, 2))
        pred2[0, 0] = [3.0, 4.0]
        assert fde(pred2, np.zeros((1, 1, 2)), mask, 1) == pytest.approx(5.0)
        assert rmse(pred2, np.zeros((1, 1, 2)), mask, 1) == pytest.approx(5.0)

    def test_fde_ignores_non_final_frames(self):
        rng = np.random.default_rng(0)
        truth = np.zeros((2, 5, 2))
        pred = rng.normal(size=(2, 5, 2))
        mask = np.ones(2, dtype=bool)
        pred2 = pred.copy()
        pred2[:, :4] += rng.normal(size=(2, 4, 2))
        assert fde(pred, truth, mask, 5) == fde(pred2, truth, mask, 5)

    def test_horizon_bounds(self):
        y = np.zeros((1, 3, 2))
        mask = np.ones(1, dtype=bool)
        with pytest.raises(UsageError):
            ade(y, y, mask, 0)
        with pytest.raises(UsageError):
            ade(y, y, mask, 4)


class TestOracleAgreement:
    def test_hundred_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pred, truth, mask, frames = random_case(rng)
            assert ade(pred, truth, mask, frames) == pytest.approx(
                naive_ade(pred, truth, mask, frames), abs=1e-9)
            assert fde(pred, truth, mask, frames) == pytest.approx(
                naive_fde(pred, truth, mask, frames), abs=1e-9)
            assert rmse(pred, truth, mask, frames) == pytest.approx(
                naive_rmse(pred, truth, mask, frames), abs=1e-9)

    def test_rmse_at_least_ade(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            pred, truth, mask, frames = random_case(rng)
            assert rmse(pred, truth, mask, frames) >= \
                ade(pred, truth, mask, frames) - 1e-12

    def test_fde_equals_single_frame_ade(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            pred, truth, mask, frames = random_case(rng)
            single_pred = pred[:, frames - 1:frames]
            single_truth = truth[:, frames - 1:frames]
            assert fde(pred, truth, mask, frames) == pytest.approx(
                ade(single_pred, single_truth, mask, 1), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-100, 100), st.floats(-100, 100))
    def test_translation_invariance(self, seed, ox, oy):
        rng = np.random.default_rng(seed)
        pred, truth, mask, frames = random_case(rng)
        offset = np.array([ox, oy])
        assert ade(pred + offset, truth + offset, mask, frames) == pytest.approx(
            ade(pred, truth, mask, frames), abs=1e-6)
        assert rmse(pred + offset, truth + offset, mask, frames) == pytest.approx(
            rmse(pred, truth, mask, frames), abs=1e-6)


class TestReport:
    def toy_weights(self):
        cfg = ModelConfig(n_agents=3, t_obs=4, t_pred=25, model_dim=16,
                          heads=2, layers=1, dropout=0.0)
        return cfg, ModelWeights(cfg)

    def toy_samples(self, cfg, count=2):
        raw = data_mod.synthesize_scenes(count, "linear", seed=0,
                                         n_agents=cfg.n_agents)
        out = []
        for s in raw:
            window = cfg.t_obs + cfg.t_pred
            scene = Scene(positions=s.scene.positions[:, :window],
                          channel_mask=s.scene.channel_mask, target_index=0,
                          origin=s.scene.origin)
            out.append(data_mod.SegmentSample(scene=scene))
        return out

    def test_report_layout(self):
        cfg, weights = self.toy_weights()
        report = evaluate(weights, self.toy_samples(cfg), cfg)
        assert len(report.rows) == 5
        assert [r["horizon_s"] for r in report.rows] == [1, 2, 3, 4, 5]
        for row in report.rows:
            assert set(row) == {"horizon_s", "ade", "fde", "rmse"}
            assert all(np.isfinite(row[key]) and row[key] >= 0
                       for key in ("ade", "fde", "rmse"))

    def test_reference_row_displayed_not_asserted(self):
        cfg, weights = self.toy_weights()
        report = evaluate(weights, self.toy_samples(cfg), cfg)
        text = report.to_csv()
        assert "reference" in text
        assert "1.90" in text and "4.66" in text and "3.16" in text

    def test_empty_split_rejected(self):
        cfg, weights = self.toy_weights()
        with pytest.raises(UsageError):
            evaluate(weights, [], cfg)

    def test_untrained_drift_grows_with_horizon(self):
        # an untrained model drifts further from a linear ground truth as the
        # horizon grows; short-horizon wobbles are allowed
        cfg, weights = self.toy_weights()
        report = evaluate(weights, self.toy_samples(cfg, count=4), cfg)
        ades = [r["ade"] for r in report.rows]
        assert ades[-1] >= ades[0]


def test_l2_loss_hand_case():
    from sctn.autodiff import Tensor
    pred = Tensor(np.array([[[3.0, 4.0]]]), requires_grad=True)
    target = np.zeros((1, 1, 2))
    loss = optim.l2_loss(pred, target, np.ones(1, dtype=bool))
    assert loss.item() == pytest.approx(12.5)


def test_l2_loss_quadratic_scaling():
    from sctn.autodiff import Tensor
    rng = np.random.default_rng(1)
    err = rng.normal(size=(2, 3, 2))
    mask = np.ones(2, dtype=bool)
    one = optim.l2_loss(Tensor(err), np.zeros_like(err), mask).item()
    two = optim.l2_loss(Tensor(2 * err), np.zeros_like(err), mask).item()
    assert two == pytest.approx(4 * one)
