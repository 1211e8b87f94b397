"""Correctness checks made apart from the program.

Each check returns a list of problems, empty when the outputs are right.
The oracles here use only numpy and the benchmark's own ground truth; they
call the program only to obtain the outputs under test (and, for the
gradient check, the forward pass whose derivative is being checked).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from bench_inputs import STRIDE, WINDOW

FOOT_IN_METRES = 0.3048
T_OBS = 15
HORIZONS_S = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def expected_windows(log, n_channels):
    """Per window, in the order the program sorts them: (vehicle id, start
    frame, N x 40 x 2 positions relative to the origin, N mask, origin).

    Each vehicle keeps every second 10 Hz frame counted from its own first
    frame. Neighbours are the vehicles with a kept frame at the target's
    last observed frame, nearest first, ties to the lower id; a neighbour
    holds its last position after it leaves and its first before it enters.
    """
    tracks = []
    for v in log.vehicles:
        tracks.append((v.vehicle_id, v.first_frame, v.xy_ft[::2] * FOOT_IN_METRES))
    out = []
    for vid, first, pos in tracks:
        for start in range(0, len(pos) - WINDOW + 1, STRIDE):
            frames = first + 2 * np.arange(start, start + WINDOW)
            anchor = frames[T_OBS - 1]
            origin = pos[start + T_OBS - 1]
            ids, dists, others = [], [], []
            for oid, ofirst, opos in tracks:
                k, odd = divmod(anchor - ofirst, 2)
                if oid == vid or odd or not 0 <= k < len(opos):
                    continue
                ids.append(oid)
                dists.append(np.hypot(*(opos[k] - origin)))
                others.append((ofirst, opos))
            order = np.lexsort((np.array(ids), np.array(dists)))[:n_channels - 1]
            positions = np.zeros((n_channels, WINDOW, 2))
            positions[0] = pos[start:start + WINDOW] - origin
            for c, j in enumerate(order, start=1):
                ofirst, opos = others[j]
                idx = np.clip((frames - ofirst) // 2, 0, len(opos) - 1)
                positions[c] = opos[idx] - origin
            mask = np.arange(n_channels) <= len(order)
            out.append((vid, int(frames[0]), positions, mask, origin))
    out.sort(key=lambda w: (w[0], w[1]))
    return out


def check_segments(samples, expected, expected_count):
    problems = []
    if len(samples) != expected_count:
        problems.append(f"{len(samples)} segments, generator predicts {expected_count}")
    if len(samples) != len(expected):
        return problems + [f"{len(samples)} segments, oracle built {len(expected)}"]
    for i, (s, (vid, start, positions, mask, origin)) in enumerate(zip(samples, expected)):
        where = f"segment {i} (vehicle {vid}, frame {start})"
        scene = s.scene
        if (s.vehicle_id, s.start_frame) != (vid, start):
            problems.append(f"{where}: program has vehicle {s.vehicle_id}, "
                            f"frame {s.start_frame}")
        elif not np.allclose(scene.positions[0], positions[0], rtol=0, atol=1e-9):
            problems.append(f"{where}: channel 0 differs from the target track")
        elif not np.array_equal(scene.channel_mask, mask):
            problems.append(f"{where}: {scene.channel_mask.sum()} real channels, "
                            f"expected {mask.sum()}")
        elif not np.allclose(scene.positions, positions, rtol=0, atol=1e-9):
            bad = np.flatnonzero(np.abs(scene.positions - positions).max(axis=(1, 2)) > 1e-9)
            problems.append(f"{where}: neighbour channels {bad.tolist()} differ "
                            "from the nearest-first ranking")
        elif not np.allclose(scene.origin, origin, rtol=0, atol=1e-9):
            problems.append(f"{where}: origin {scene.origin} != {origin}")
        if len(problems) >= 5:
            break
    return problems


def check_split(samples, split, fractions=(0.7, 0.1, 0.2)):
    n = len(samples)
    sizes = (len(split.train), len(split.validation), len(split.test))
    want_train, want_val = round(fractions[0] * n), round(fractions[1] * n)
    want = (want_train, want_val, n - want_train - want_val)
    problems = []
    if sizes != want:
        problems.append(f"split sizes {sizes}, expected {want}")
    ids = sorted(id(s) for s in split.train + split.validation + split.test)
    if ids != sorted(id(s) for s in samples):
        problems.append("split is not a partition of the segments")
    return problems


def check_cache_roundtrip(split, loaded):
    """Read-back cache equals the in-memory split to float32 rounding."""
    problems = []
    for name in ("train", "validation", "test"):
        mine, back = getattr(split, name), getattr(loaded, name)
        if len(mine) != len(back):
            problems.append(f"cache {name}: {len(back)} segments, wrote {len(mine)}")
            continue
        for s, b in zip(mine, back):
            f32 = s.scene.positions.astype(np.float32)
            if not (np.array_equal(b.scene.positions, f32)
                    and np.array_equal(b.scene.channel_mask, s.scene.channel_mask)
                    and np.array_equal(b.scene.origin, s.scene.origin.astype(np.float32))
                    and (b.vehicle_id, b.start_frame) == (s.vehicle_id, s.start_frame)):
                problems.append(f"cache {name}: segment (vehicle {s.vehicle_id}, "
                                f"frame {s.start_frame}) changed on the round trip")
                break
    return problems


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def horizon_metrics(preds, scenes, t_obs, t_pred):
    """Pooled ADE / FDE / RMSE per horizon, in absolute coordinates."""
    rows = []
    for h in HORIZONS_S:
        frames = 5 * h
        if frames > t_pred:
            break
        dists, finals = [], []
        for pred, scene in zip(preds, scenes):
            m = scene.channel_mask
            p = np.asarray(pred, dtype=np.float64)[m, :frames] + scene.origin
            g = scene.positions[m, t_obs:t_obs + frames] + scene.origin
            d = np.sqrt(((p - g) ** 2).sum(axis=-1))
            dists.append(d.ravel())
            finals.append(d[:, -1])
        d = np.concatenate(dists)
        rows.append(dict(horizon_s=h, ade=d.mean(), fde=np.concatenate(finals).mean(),
                         rmse=np.sqrt((d ** 2).mean())))
    return rows


def check_report(report, preds, scenes, t_obs, t_pred, rtol=1e-9):
    want = horizon_metrics(preds, scenes, t_obs, t_pred)
    if len(report.rows) != len(want):
        return [f"report has {len(report.rows)} horizons, expected {len(want)}"]
    problems = []
    for got, exp in zip(report.rows, want):
        for key in ("ade", "fde", "rmse"):
            if not np.isclose(got[key], exp[key], rtol=rtol, atol=0):
                problems.append(f"{exp['horizon_s']} s {key}: evaluate gives "
                                f"{got[key]!r}, recomputed {exp[key]!r}")
    return problems


def check_causal(sctn, scene, pred, weights, config, tol=1e-4):
    """Teacher forcing on the rollout as ground truth reproduces the rollout:
    the causal mask lets step i see only the inputs before it."""
    positions = scene.positions.copy()
    positions[:, config.t_obs:] = pred
    replay = sctn.model.Scene(positions=positions, channel_mask=scene.channel_mask,
                              target_index=scene.target_index, origin=scene.origin)
    out = sctn.model.teacher_forced_forward(replay, weights, config, training=False).data
    err = np.abs(out - pred).max()
    scale = max(1.0, np.abs(pred).max())
    if not err <= tol * scale:
        step = int(np.abs(out - pred).max(axis=(0, 2)).argmax())
        return [f"teacher-forced replay differs from the rollout by {err:.3g} "
                f"(worst at step {step})"]
    return []


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _central_difference(loss, flat, i, tol):
    """d loss / d flat[i] by central difference, and the bound on its
    rounding error.

    The step must be one the loss is smooth across, and a ReLU that changes
    sign inside it puts a kink there. A kink makes the two one-sided
    differences disagree; two kinks, one each side, can offset there but
    then move the estimate when the step shrinks. So the estimate is taken
    at steps of 1e-5, 1e-6 and 1e-7, and the first step that passes both
    tests, within tol and rounding, gives it; failing that, the smallest.
    """
    orig = flat[i]
    base = loss()
    found = []
    for step in (1e-5, 1e-6, 1e-7):
        h = step * max(1.0, abs(orig))
        flat[i] = orig + h
        hi = loss()
        flat[i] = orig - h
        lo = loss()
        flat[i] = orig
        # each loss value is good to a few ulps of the loss
        rounding = 8 * np.finfo(np.float64).eps * abs(base) / h
        smooth = abs(hi - 2 * base + lo) / h <= tol + rounding
        found.append(((hi - lo) / (2 * h), rounding, smooth))
    for (estimate, rounding, smooth), (finer, finer_rounding, _) in zip(found, found[1:]):
        if smooth and abs(estimate - finer) <= tol + finer_rounding:
            return estimate, rounding
    return found[-1][:2]


def gradient_check(sctn, state, config, sample, n_coords, seed, rtol=1e-4):
    """Float64 central differences against backward, at the config's sizes.

    Dropout draws replay through a fresh CounterRng per evaluation, so the
    check covers training-mode forward passes too. For each sampled weight
    tensor the coordinate with the largest gradient among 32 random ones is
    probed, with a step that no ReLU kink lies inside.
    """
    cfg64 = dataclasses.replace(config, dtype="float64")
    weights = sctn.model.ModelWeights(cfg64)
    weights.load_state_dict(state)
    scene = sample.scene
    target = scene.future(cfg64.t_obs)

    def loss():
        rng = sctn.autodiff.CounterRng(seed)
        pred = sctn.model.teacher_forced_forward(scene, weights, cfg64,
                                                 training=True, rng=rng)
        return sctn.optim.l2_loss(pred, target, scene.channel_mask)

    weights.zero_grads()
    sctn.autodiff.backward(loss())
    gen = np.random.default_rng(seed)
    names = [n for n, t in weights.registry.items() if t.grad is not None
             and np.abs(t.grad).max() > 0]
    problems = []
    for name in gen.choice(names, size=min(n_coords, len(names)), replace=False):
        t = weights.registry[name]
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        cand = gen.choice(flat.size, size=min(32, flat.size), replace=False)
        i = int(cand[np.abs(grad[cand]).argmax()])
        numeric, rounding = _central_difference(lambda: loss().item(), flat, i,
                                                rtol * max(abs(grad[i]), 1e-6))
        scale = max(abs(grad[i]), abs(numeric), 1e-6)
        if abs(grad[i] - numeric) > rtol * scale + rounding:
            problems.append(f"{name}[{i}]: backward {grad[i]!r} vs "
                            f"central difference {numeric!r}")
    return problems
