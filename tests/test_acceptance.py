"""Acceptance suite: one printed pass/fail line per criterion.

Run with -s (or read captured output) to see the verdict lines. Every
criterion is checked at desk scale; published benchmark numbers appear only
as labeled reference rows and are never asserted against.
"""
import math
import time

import numpy as np
import pytest

from sctn import ablation as ablation_mod
from sctn import autodiff as ad
from sctn import blocks, checkpoint, data as data_mod, embedding, metrics, model
from sctn import optim, se
from sctn.autodiff import Tensor, finite_difference_check
from sctn.blocks import FeedForwardWeights, MultiHeadWeights
from sctn.errors import DataError
from sctn.model import ModelConfig, ModelWeights, Scene, TOY_DIMS


def verdict(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def t64(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def toy_window_scene(cfg, seed=1, kind="linear"):
    sample = data_mod.synthesize_scenes(1, kind, seed=seed,
                                        n_agents=cfg.n_agents)[0]
    window = cfg.t_obs + cfg.t_pred
    return Scene(positions=sample.scene.positions[:, :window],
                 channel_mask=sample.scene.channel_mask, target_index=0)


class TestCriterion1GradientIntegrity:
    def test_block_and_full_model_gradients(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0

        def check(f, param, sample=None):
            # a small step keeps the probe clear of ReLU kinks
            nonlocal worst
            worst = max(worst, finite_difference_check(f, param, step=1e-5,
                                                       sample=sample, rng=rng))

        # attention block
        mw = MultiHeadWeights(*(t64(rng.normal(size=(16, 16)), grad=True)
                                for _ in range(4)), heads=2)
        x = t64(rng.normal(size=(3, 4, 16)))

        def attn_loss(_p):
            out = blocks.multi_head_attention(x, x, mw)
            return ad.mean(ad.mul(out, out))

        for param in (mw.w_q, mw.w_k, mw.w_v, mw.w_o):
            check(attn_loss, param, sample=16)

        # feed-forward block
        fw = FeedForwardWeights(w1=t64(rng.normal(size=(16, 32)), grad=True),
                                b1=t64(rng.normal(size=32), grad=True),
                                w2=t64(rng.normal(size=(32, 16)), grad=True),
                                b2=t64(rng.normal(size=16), grad=True))

        def ffn_loss(_p):
            out = blocks.feed_forward(x, fw)
            return ad.mean(ad.mul(out, out))

        for param in (fw.w1, fw.b1, fw.w2, fw.b2):
            check(ffn_loss, param, sample=16)

        # squeeze-and-excitation block
        e = t64(rng.normal(size=(3, 4, 16)), grad=True)
        sw = se.SEWeights(w1=t64(rng.normal(size=(3, 1)), grad=True),
                          w2=t64(rng.normal(size=(1, 3)), grad=True))

        def se_loss(_p):
            out = se.se_pass(e, sw)
            return ad.mean(ad.mul(out, out))

        for param in (sw.w1, sw.w2, e):
            check(se_loss, param, sample=16)

        # embedding block
        ew = embedding.EmbeddingWeights(
            mlp_w=t64(rng.normal(size=(2, 16)), grad=True),
            mlp_b=t64(rng.normal(size=16), grad=True))
        table = embedding.positional_encoding(np.arange(4), 16)
        pts = rng.normal(size=(3, 4, 2))

        def emb_loss(_p):
            out = embedding.compose_input(pts, ew, table)
            return ad.mean(ad.mul(out, out))

        for param in (ew.mlp_w, ew.mlp_b):
            check(emb_loss, param, sample=16)

        # full model at toy dims, double precision
        cfg = ModelConfig(seed=0, **TOY_DIMS)
        weights = ModelWeights(cfg)
        scene = toy_window_scene(cfg)

        def model_loss(_p):
            out = model.teacher_forced_forward(scene, weights, cfg,
                                               training=False)
            return optim.l2_loss(out, scene.future(cfg.t_obs),
                                 scene.channel_mask)

        for param in weights.registry.values():
            check(model_loss, param, sample=8)

        elapsed = time.perf_counter() - start
        verdict(1, "gradient integrity", worst < 1e-4 and elapsed < 60,
                f"max rel err {worst:.2e}, {elapsed:.1f} s")


class TestCriterion2AttentionInvariants:
    def test_thousand_randomized_trials(self):
        rng = np.random.default_rng(2)
        worst_sum = worst_perm = worst_causal = 0.0
        for _ in range(1000):
            t = int(rng.integers(2, 7))
            d = int(rng.integers(2, 9))
            q = t64(rng.normal(size=(t, d)))
            k = rng.normal(size=(t, d))
            v = rng.normal(size=(t, d))

            # softmax rows sum to one: attend onto an identity value matrix
            w = blocks.scaled_dot_attention(q, t64(k), t64(np.eye(t))).data
            worst_sum = max(worst_sum, float(np.abs(w.sum(axis=1) - 1).max()))

            # joint key/value permutation invariance
            perm = rng.permutation(t)
            base = blocks.scaled_dot_attention(q, t64(k), t64(v)).data
            permuted = blocks.scaled_dot_attention(q, t64(k[perm]),
                                                   t64(v[perm])).data
            worst_perm = max(worst_perm, float(np.abs(permuted - base).max()))

            # causal mask: perturbing the last position leaves earlier rows
            mask = blocks.causal_mask(t)
            ref = blocks.scaled_dot_attention(q, t64(k), t64(v), mask=mask).data
            k2, v2 = k.copy(), v.copy()
            k2[-1] += 100.0
            v2[-1] -= 100.0
            out = blocks.scaled_dot_attention(q, t64(k2), t64(v2),
                                              mask=mask).data
            worst_causal = max(worst_causal,
                               float(np.abs(out[:-1] - ref[:-1]).max()))
        ok = worst_sum <= 1e-6 and worst_perm <= 1e-6 and worst_causal <= 1e-6
        verdict(2, "attention invariants", ok,
                f"row-sum {worst_sum:.1e}, perm {worst_perm:.1e}, "
                f"causal {worst_causal:.1e}")


class TestCriterion3SeInvariants:
    def test_se_contracts(self):
        rng = np.random.default_rng(3)
        ok = True
        detail = []

        # strict (0, 1) gate even with extreme logits
        for scale_factor in (1.0, 50.0):
            for _ in range(50):
                n = int(rng.integers(2, 9))
                w = se.SEWeights(
                    w1=t64(scale_factor * rng.normal(size=(n, max(1, n // 2)))),
                    w2=t64(scale_factor * rng.normal(size=(max(1, n // 2), n))))
                s = se.excite(t64(rng.normal(size=n)), w).data
                ok &= bool(np.all(s > 0.0) and np.all(s < 1.0))
        detail.append("gate in (0,1)")

        # zero weights halve every channel exactly
        e = t64(rng.normal(size=(3, 4, 5)))
        zero = se.SEWeights(w1=t64(np.zeros((3, 1))), w2=t64(np.zeros((1, 3))))
        halved = se.se_pass(e, zero).data
        ok &= bool(np.array_equal(halved, 0.5 * e.data))
        detail.append("zero weights -> 0.5")

        # squeeze of a constant channel returns the constant; shape preserved
        const = np.full((2, 4, 5), 0.0)
        const[0] = 2.5
        const[1] = -1.25
        z = se.squeeze(t64(const)).data
        ok &= z[0] == 2.5 and z[1] == -1.25
        ok &= se.se_pass(e, zero).shape == e.shape
        detail.append("squeeze/shape")

        # scalar hand oracle for the excitation formula
        for _ in range(20):
            w1 = rng.normal(size=(2, 1))
            w2 = rng.normal(size=(1, 2))
            zv = rng.normal(size=2)
            w = se.SEWeights(w1=t64(w1), w2=t64(w2))
            got = se.excite(t64(zv), w).data
            hidden = max(0.0, zv[0] * w1[0, 0] + zv[1] * w1[1, 0])
            expected = [1.0 / (1.0 + math.exp(-hidden * w2[0, c]))
                        for c in range(2)]
            ok &= bool(np.allclose(got, expected, atol=1e-9))
        detail.append("oracle 1e-9")
        verdict(3, "squeeze-excitation invariants", ok, ", ".join(detail))


class TestCriterion4PositionalEncoding:
    def test_literal_formula(self):
        d_model = 32
        row0 = embedding.positional_encoding(0, d_model)
        parity = np.array([0.0 if d % 2 == 0 else 1.0
                           for d in range(1, d_model + 1)])
        ok = bool(np.array_equal(row0, parity))

        worst = 0.0
        for t in range(64):
            row = embedding.positional_encoding(t, d_model)
            ok &= bool(np.all(np.abs(row) <= 1.0))
            oracle = np.empty(d_model)
            for d in range(1, d_model + 1):
                angle = t / (10000.0 ** (d / d_model))
                oracle[d - 1] = math.sin(angle) if d % 2 == 0 else math.cos(angle)
            worst = max(worst, float(np.abs(row - oracle).max()))
        ok &= worst <= 1e-12
        verdict(4, "positional encoding", ok, f"oracle gap {worst:.1e}")


class TestCriterion5MetricOracles:
    def test_against_double_loop_references(self):
        def naive(pred, truth, mask, frames):
            dists, sq = [], []
            finals = []
            for n in range(pred.shape[0]):
                if not mask[n]:
                    continue
                for i in range(frames):
                    dx = pred[n, i, 0] - truth[n, i, 0]
                    dy = pred[n, i, 1] - truth[n, i, 1]
                    dists.append(math.hypot(dx, dy))
                    sq.append(dx * dx + dy * dy)
                finals.append(dists[-1])
            return (sum(dists) / len(dists), sum(finals) / len(finals),
                    math.sqrt(sum(sq) / len(sq)))

        rng = np.random.default_rng(5)
        worst = 0.0
        ok = True
        for _ in range(100):
            n = int(rng.integers(1, 16))
            t = int(rng.integers(1, 26))
            pred = rng.normal(scale=4, size=(n, t, 2))
            truth = rng.normal(scale=4, size=(n, t, 2))
            mask = rng.random(n) < 0.8
            if not mask.any():
                mask[0] = True
            frames = int(rng.integers(1, t + 1))
            ref = naive(pred, truth, mask, frames)
            got = (metrics.ade(pred, truth, mask, frames),
                   metrics.fde(pred, truth, mask, frames),
                   metrics.rmse(pred, truth, mask, frames))
            worst = max(worst, max(abs(g - r) for g, r in zip(got, ref)))
            ok &= got[2] >= got[0] - 1e-12
        ok &= worst <= 1e-9

        one = np.zeros((1, 2, 2))
        err = np.zeros((1, 2, 2))
        err[0, 0] = [3.0, 4.0]
        m = np.ones(1, dtype=bool)
        ok &= metrics.ade(err, one, m, 2) == 2.5
        final_err = np.zeros((1, 1, 2))
        final_err[0, 0] = [3.0, 4.0]
        ok &= metrics.fde(final_err, np.zeros((1, 1, 2)), m, 1) == 5.0
        ok &= metrics.rmse(final_err, np.zeros((1, 1, 2)), m, 1) == 5.0
        verdict(5, "metric oracles", ok, f"worst oracle gap {worst:.1e}")


class TestCriterion6Overfit:
    def test_four_segment_overfit(self):
        start = time.perf_counter()
        cfg = model.config_for_profile("desk", n_agents=3, seed=0,
                                       predict_offsets=True, dtype="float64")
        weights = ModelWeights(cfg)
        samples = data_mod.synthesize_scenes(4, "linear", seed=1, n_agents=3)
        result = optim.train(samples, samples, weights, cfg, epochs=500,
                             batch_size=1, seed=0, lr=3e-4)
        losses = [r["train_loss"] for r in result.trace]
        best_loss = min(losses)
        weights.load_state_dict(result.best_state)
        ades = []
        for sample in samples:
            scene = sample.scene
            pred = model.predict(scene, weights, cfg)
            ades.append(metrics.ade(pred, scene.future(cfg.t_obs),
                                    scene.channel_mask, cfg.t_pred))
        elapsed = time.perf_counter() - start
        ok = best_loss < 1e-2 and max(ades) < 0.05 and elapsed < 300
        verdict(6, "overfit on four segments", ok,
                f"loss {best_loss:.1e}, worst ADE {max(ades):.3f} m, "
                f"{elapsed:.0f} s")


class TestCriterion7ShapeAndDeterminism:
    def test_shape_trace_and_checkpoint(self, tmp_path):
        cfg = ModelConfig(n_agents=10, t_obs=15, t_pred=25, model_dim=16,
                          heads=2, layers=1, dropout=0.0, seed=0)
        samples = data_mod.synthesize_scenes(3, "linear", seed=2, n_agents=10)
        pred = model.predict(samples[0].scene, ModelWeights(cfg), cfg)
        ok = pred.shape == (10, 25, 2)

        paths, traces = [], []
        for name in ("a", "b"):
            weights = ModelWeights(cfg)
            result = optim.train(samples, [], weights, cfg, epochs=10,
                                 batch_size=2, seed=0, lr=1e-3)
            traces.append([r["train_loss"] for r in result.trace])
            path = tmp_path / f"{name}.sctn"
            checkpoint.save_model_checkpoint(path, weights)
            paths.append(path)
        ok &= traces[0] == traces[1] and len(traces[0]) == 10
        ok &= paths[0].read_bytes() == paths[1].read_bytes()
        verdict(7, "shape and determinism", ok,
                "10x25x2, bit-identical trace, byte-identical checkpoint")


class TestCriterion8PipelineConformance:
    def test_fixture_pipeline(self, tmp_path):
        path = tmp_path / "tracks.csv"
        rows = ["vehicle_id,frame_id,local_x,local_y"]
        for vid in (1, 2, 3):
            for f in range(120):
                rows.append(f"{vid},{f},{10.0 * vid},{2.0 * f + 5.0 * vid}")
        path.write_text("\n".join(rows) + "\n")

        records = data_mod.parse_trajectory_csv(path, units="feet")
        # 10 ft -> 3.048 m on vehicle 1's x coordinate
        ok = records[0].x == pytest.approx(3.048, abs=1e-12)

        records = data_mod.resample(records, factor=2)
        samples = data_mod.build_segments(records, n_channels=5, stride=5,
                                          source_file=str(path))
        # 120 frames at 10 Hz -> 60 at 5 Hz -> 5 window starts per vehicle
        ok &= len(samples) == 15

        first = next(s for s in samples
                     if s.vehicle_id == 1 and s.start_frame == 0)
        anchor = data_mod.T_OBS - 1
        d2 = np.linalg.norm(first.scene.positions[1, anchor])
        d3 = np.linalg.norm(first.scene.positions[2, anchor])
        ok &= d2 < d3  # vehicle 2 outranks vehicle 3 for slot 1

        bad = tmp_path / "bad.csv"
        bad.write_text("vehicle_id,frame_id,local_x,local_y\n1,0,0,0\n1,x,0,0\n")
        try:
            data_mod.parse_trajectory_csv(bad)
            ok = False
        except DataError as exc:
            ok &= ":3:" in str(exc)
        verdict(8, "pipeline conformance", ok,
                "15 segments, ranking, 10 ft = 3.048 m, line numbers")


class TestCriterion9AblationHarness:
    def test_default_grid_and_isolation(self):
        start = time.perf_counter()
        samples = data_mod.synthesize_scenes(4, "linear", seed=9, n_agents=5)
        base = ModelConfig(n_agents=5, t_obs=15, t_pred=25, model_dim=16,
                           heads=2, layers=1, dropout=0.0)
        acfg = ablation_mod.AblationConfig(epochs=1, batch_size=4, lr=1e-3)
        cells = ablation_mod.ablate(acfg, samples, base)
        grid = {(c.neighbors, c.se_enabled) for c in cells}
        ok = len(cells) == 6
        ok &= grid == {(n, s) for n in (5, 10, 15) for s in (True, False)}
        for cell in cells:
            ok &= cell.ok and len(cell.report.rows) == 5
            ok &= all(set(r) == {"horizon_s", "ade", "fde", "rmse"}
                      for r in cell.report.rows)
        elapsed = time.perf_counter() - start

        # a failing cell must not abort its siblings
        broken = ablation_mod.ablate(
            ablation_mod.AblationConfig(neighbor_counts=[0, 5], epochs=1,
                                        batch_size=4, lr=1e-3),
            samples, base)
        ok &= not broken[0].ok and not broken[1].ok
        ok &= broken[2].ok and broken[3].ok
        ok &= elapsed < 120
        verdict(9, "ablation harness", ok, f"6 cells in {elapsed:.0f} s")


class TestCriterion10ReportLayout:
    def test_reference_row_displayed_not_asserted(self):
        cfg = ModelConfig(n_agents=3, t_obs=15, t_pred=25, model_dim=16,
                          heads=2, layers=1, dropout=0.0)
        weights = ModelWeights(cfg)
        samples = data_mod.synthesize_scenes(2, "linear", seed=10, n_agents=3)
        report = metrics.evaluate(weights, samples, cfg)
        ok = len(report.rows) == 5
        ok &= all(set(r) == {"horizon_s", "ade", "fde", "rmse"}
                  for r in report.rows)
        text = report.to_csv()
        ref_lines = [ln for ln in text.splitlines() if "reference" in ln]
        ok &= len(ref_lines) == 1
        ok &= "1.90" in ref_lines[0] and "4.66" in ref_lines[0] \
            and "3.16" in ref_lines[0]
        # displayed only: validate() succeeds regardless of distance from it
        ok &= report.validate()
        verdict(10, "report layout", ok, "5 rows x 3 metrics + reference row")
