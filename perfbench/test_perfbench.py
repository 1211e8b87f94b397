"""The benchmark's own tests: each correctness check passes on the program as
it is and fails on a planted fault; the tracer's self times add up.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import numpy as np
import pytest

import bench_checks as checks
import bench_env
import bench_inputs as inputs
import bench_trace

sctn = bench_env.import_sctn()

SMALL_LOG = (90, 100, 110, 120, 130, 140) * 2


def _prepare(path):
    records = sctn.data.resample(sctn.data.parse_trajectory_csv(path, units="feet"))
    return sctn.data.build_segments(records, 10, stride=5, source_file=str(path))


def _neighbour_problems(log):
    samples = _prepare(log.path)
    return checks.check_segments(samples, checks.expected_windows(log, 10),
                                 inputs.expected_segments(SMALL_LOG))


@pytest.fixture
def small_log(tmp_path):
    return inputs.ngsim_csv(tmp_path / "log.csv", 3, lengths=SMALL_LOG, file_frames=160)


def test_prepare_matches_oracle(small_log):
    assert small_log.rows == sum(SMALL_LOG)
    assert _neighbour_problems(small_log) == []


def test_prepare_check_catches_swapped_neighbours(small_log, monkeypatch):
    select = sctn.data.select_neighbors

    def swapped(window, records, n_channels):
        scene = select(window, records, n_channels)
        if scene.channel_mask[2]:
            scene.positions[[1, 2]] = scene.positions[[2, 1]]
        return scene

    monkeypatch.setattr(sctn.data, "select_neighbors", swapped)
    problems = _neighbour_problems(small_log)
    assert problems and "neighbour channels [1, 2]" in problems[0]


def test_cache_roundtrip_check(small_log, tmp_path):
    samples = _prepare(small_log.path)
    split = sctn.data.split_dataset(samples, seed=0)
    assert checks.check_split(samples, split) == []
    path = tmp_path / "c.sctn"
    sctn.checkpoint.save_segment_cache(path, split)
    loaded = sctn.checkpoint.load_segment_cache(path)
    assert checks.check_cache_roundtrip(split, loaded) == []
    loaded.test[0].scene.positions[0, 3, 1] += 1e-3
    assert checks.check_cache_roundtrip(split, loaded)


def _toy_model():
    cfg = sctn.model.ModelConfig(**sctn.model.TOY_DIMS)
    weights = sctn.model.ModelWeights(cfg)
    positions, mask, origin, _ = inputs.training_scenes(
        2, 7, n_channels=cfg.n_agents, t_obs=cfg.t_obs, t_pred=cfg.t_pred)[1]
    scene = sctn.model.Scene(positions=positions, channel_mask=mask, origin=origin)
    return cfg, weights, scene


def test_rollout_is_causal():
    cfg, weights, scene = _toy_model()
    pred = sctn.model.predict(scene, weights, cfg)
    assert checks.check_causal(sctn, scene, pred, weights, cfg) == []


def test_causal_check_catches_perturbed_step(monkeypatch):
    cfg, weights, scene = _toy_model()
    decode_step = sctn.model.decode_step

    def perturbed(partial, *args):
        out = decode_step(partial, *args)
        return out + 0.05 if partial.shape[1] == 2 else out

    monkeypatch.setattr(sctn.model, "decode_step", perturbed)
    pred = sctn.model.predict(scene, weights, cfg)
    problems = checks.check_causal(sctn, scene, pred, weights, cfg)
    assert problems and "step 1" in problems[0]


def test_report_check_recomputes_metrics():
    cfg, weights, scene = _toy_model()
    cfg.t_pred = 5
    positions = np.concatenate([scene.positions, scene.positions[:, -2:] + 1.0], axis=1)
    scene = sctn.model.Scene(positions=positions, channel_mask=scene.channel_mask,
                             origin=scene.origin)
    weights = sctn.model.ModelWeights(cfg)
    sample = sctn.data.SegmentSample(scene=scene)
    pred = sctn.model.predict(scene, weights, cfg)
    report = sctn.metrics.evaluate(weights, [sample], cfg)
    assert checks.check_report(report, [pred], [scene], cfg.t_obs, cfg.t_pred) == []
    pred[0, 2] += 0.1
    assert checks.check_report(report, [pred], [scene], cfg.t_obs, cfg.t_pred)


def _toy_training():
    cfg, weights, scene = _toy_model()
    cfg.dropout = 0.2
    sample = sctn.data.SegmentSample(scene=scene)
    return cfg, weights.state_dict(), sample


def test_gradient_check_passes():
    cfg, state, sample = _toy_training()
    assert checks.gradient_check(sctn, state, cfg, sample, 6, seed=1) == []


def test_gradient_check_catches_scaled_gradient(monkeypatch):
    cfg, state, sample = _toy_training()
    acc = sctn.autodiff._acc
    monkeypatch.setattr(sctn.autodiff, "_acc", lambda t, g: acc(t, 1.01 * g))
    assert len(checks.gradient_check(sctn, state, cfg, sample, 6, seed=1)) == 6


@pytest.mark.parametrize("seed", [1338661447, 1642109999])
def test_gradient_check_steps_past_relu_kinks(seed, tmp_path):
    # train-desk seeds whose probed coordinates lie within 1e-5 of a ReLU
    # kink: one kink on one side, and two kinks whose one-sided effects offset
    import bench_workloads

    workload = bench_workloads.TrainDesk(sctn, seed, tmp_path)
    workload.generate()
    workload.setup()
    state = workload.weights.state_dict()
    assert checks.gradient_check(sctn, state, workload.mcfg, workload.split.train[0],
                                 workload.grad_coords, seed) == []


def test_self_times_add_up_and_instrumentation_restores(tmp_path):
    cfg, weights, scene = _toy_model()
    before = sctn.model.predict, sctn.autodiff.matmul, sctn.metrics.predict
    tracer = bench_trace.Tracer("toy")
    inst = bench_trace.instrument(tracer)
    tracer.set_phase("run")
    try:
        t0 = bench_trace.time.perf_counter()
        sctn.model.predict(scene, weights, cfg)
        wall = bench_trace.time.perf_counter() - t0
    finally:
        inst.restore()
    assert (sctn.model.predict, sctn.autodiff.matmul, sctn.metrics.predict) == before
    metrics = bench_trace.per_layer_metrics(tracer, 1, 1, wall, 0.0)
    assert metrics["model.decoder_positions"]["value"] == sum(range(1, cfg.t_pred + 1))
    assert metrics["model.decode_step_calls"]["value"] == cfg.t_pred
    assert 95.0 < metrics["bench.self_time_coverage_pct"]["value"] <= 100.0
    assert set(metrics) == {name for name, *_ in bench_trace.PER_LAYER}

    n = tracer.write(str(tmp_path / "spans.npz"))
    spans = np.load(tmp_path / "spans.npz")
    assert spans["name"].size == n == sum(calls for calls, _, _ in tracer.totals["run"])
    assert np.all(spans["end"] >= spans["start"])
    root = spans["parent"] == -1
    assert spans["names"][spans["name"][root]].tolist() == ["model.predict"]


def test_machine_record():
    record = bench_env.machine_record()
    assert record["nproc"] >= 1 and record["numpy"] and record["python"]
    assert "blas" in record and "blas_threads" in record
