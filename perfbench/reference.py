"""Reference figures for perfbench/README.md.

    python3 perfbench/reference.py

Prints, as markdown tables, the per-path baseline rows (desk and paper
`predict` per scene, teacher-forced forward and backward per segment, with
N=10 channels, float32, dropout off, one `turn` scene) and the `prepare`
pipeline time (parse, resample, build_segments) at 8k, 16k and 32k rows.
Each figure is the median of several repeats.
"""
from __future__ import annotations

import statistics
import sys
import tempfile
import time

import bench_env

bench_env.pin_threads()

clock = time.perf_counter


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def model_rows(sctn, inputs):
    positions, mask, origin, _ = inputs.training_scenes(2, 0)[1]   # a `turn` scene
    mask[:] = True
    scene = sctn.model.Scene(positions=positions, channel_mask=mask, origin=origin)
    target = scene.future(15).astype("float32")
    rows = {}
    for profile, repeats in (("desk", 7), ("paper", 3)):
        cfg = sctn.model.config_for_profile(profile, n_agents=10, dropout=0.0)
        weights = sctn.model.ModelWeights(cfg)
        predict = _median_time(lambda: sctn.model.predict(scene, weights, cfg), repeats)
        forward = _median_time(lambda: sctn.model.teacher_forced_forward(
            scene, weights, cfg, training=False), repeats)

        def backward():
            weights.zero_grads()
            loss = sctn.optim.l2_loss(sctn.model.teacher_forced_forward(
                scene, weights, cfg, training=False), target, scene.channel_mask)
            t0 = clock()
            sctn.autodiff.backward(loss)
            return clock() - t0

        back = statistics.median(backward() for _ in range(repeats))
        params = sum(t.size for t in weights.parameters())
        rows[profile] = (predict, forward, back, params)
    return rows


def prepare_rows(sctn, inputs, scales=(2, 4, 8)):
    """Logs k times longer with k times the vehicles, so the number of
    vehicles on the road at once stays as in the prepare workload."""
    rows = []
    with tempfile.TemporaryDirectory(dir=bench_env.ROOT / ".bench_build") as tmp:
        for k in scales:
            log = inputs.ngsim_csv(f"{tmp}/log{k}.csv", k, lengths=inputs.TRACK_LENGTHS * k,
                                   file_frames=inputs.FILE_FRAMES * k)
            t0 = clock()
            records = sctn.data.parse_trajectory_csv(log.path, units="feet")
            t1 = clock()
            records = sctn.data.resample(records, factor=2)
            samples = sctn.data.build_segments(records, 10, stride=5)
            t2 = clock()
            rows.append((log.rows, len(samples), t1 - t0, t2 - t1))
    return rows


def main():
    sctn = bench_env.import_sctn()
    import bench_inputs as inputs

    (bench_env.ROOT / ".bench_build").mkdir(exist_ok=True)
    print(f"machine: {bench_env.machine_record()}\n")
    print("| path | desk (D=64, h=4, L=2) | paper (D=512, h=8, L=2) |")
    print("| --- | --- | --- |")
    rows = model_rows(sctn, inputs)
    names = ("`predict` (25-step rollout), per scene", "teacher-forced forward, per segment",
             "backward, per segment")
    for i, name in enumerate(names):
        print(f"| {name} | {rows['desk'][i] * 1e3:.0f} ms | {rows['paper'][i] * 1e3:.0f} ms |")
    print(f"| parameters | {rows['desk'][3] / 1e3:.0f} k | {rows['paper'][3] / 1e6:.1f} M |")
    print("\n| rows | segments | parse | resample + build_segments |")
    print("| --- | --- | --- | --- |")
    for n_rows, n_segments, parse_s, build_s in prepare_rows(sctn, inputs):
        print(f"| {n_rows} | {n_segments} | {parse_s:.3f} s | {build_s:.2f} s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
