"""Seeded inputs for the workloads, made without calling the program.

`ngsim_csv` writes a dense 10 Hz track log in feet in the NGSIM column
style and returns the ground truth it wrote. `training_scenes` builds
N-channel segments of three motion kinds with some channels padded. The
same seed always gives the same inputs; the shapes that set the amount of
work (rows, track lengths, segment counts, real channels per scene) do not
depend on the seed at all, so runs with different seeds do equal work.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRAME_S = 0.1                 # NGSIM logs are 10 Hz
LANES = 6
LANE_WIDTH_FT = 12.0
FILE_FRAMES = 300             # span of one log, in 10 Hz frames
# 10 Hz track lengths of the vehicles in one log; four vehicles of each
# length, 32 vehicles and 4000 rows per log
TRACK_LENGTHS = (90, 100, 110, 120, 130, 140, 150, 160) * 4
WINDOW = 40                   # 15 observed + 25 future frames at 5 Hz
STRIDE = 5


@dataclass
class Vehicle:
    vehicle_id: int
    first_frame: int
    xy_ft: np.ndarray         # L x 2, exactly the values written to the CSV


@dataclass
class TrackLog:
    path: str
    rows: int
    vehicles: list            # Vehicle, sorted by vehicle id


def ngsim_csv(path, seed, lengths=TRACK_LENGTHS, file_frames=FILE_FRAMES):
    """Write one log and return its ground truth.

    Vehicles enter and leave at seeded frames inside the log, drive in one
    of six lanes at 25-55 ft/s with a small lateral sway, and are listed in
    frame order as NGSIM exports are.
    """
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(np.arange(1, 4000), size=len(lengths), replace=False))
    base_frame = int(rng.integers(10, 5000))
    vehicles = []
    rows = []
    for vid, length in zip(ids, rng.permutation(np.asarray(lengths))):
        first = base_frame + int(rng.integers(0, file_frames - length + 1))
        lane = int(rng.integers(0, LANES))
        speed = rng.uniform(25.0, 55.0)
        y0 = rng.uniform(0.0, 250.0)
        k = np.arange(length)
        sway = 0.6 * np.sin(2 * np.pi * k / rng.uniform(40, 120) + rng.uniform(0, 6.3))
        x = LANE_WIDTH_FT * (lane + 0.5) + sway + rng.normal(0.0, 0.05, length)
        y = y0 + speed * FRAME_S * k + rng.normal(0.0, 0.05, length)
        text = np.char.mod("%.3f", np.stack([x, y], axis=1))
        vehicles.append(Vehicle(int(vid), first, text.astype(np.float64)))
        for i in range(length):
            rows.append((first + i, int(vid), length, text[i, 0], text[i, 1], lane + 1))
    rows.sort()
    with open(path, "w") as fh:
        fh.write("vehicle_id,frame_id,total_frames,local_x,local_y,lane_id\n")
        for frame, vid, length, x, y, lane in rows:
            fh.write(f"{vid},{frame},{length},{x},{y},{lane}\n")
    return TrackLog(path=str(path), rows=len(rows), vehicles=vehicles)


def expected_segments(lengths=TRACK_LENGTHS):
    """Windows the log yields after the 10 Hz -> 5 Hz resample."""
    total = 0
    for length in lengths:
        n5 = (length + 1) // 2
        if n5 >= WINDOW:
            total += (n5 - WINDOW) // STRIDE + 1
    return total


# ---------------------------------------------------------------------------
# training scenes
# ---------------------------------------------------------------------------

KINDS = ("linear", "turn", "interaction")
# real agents per scene, cycled; the rest of the ten channels are padding
REAL_AGENTS = (10, 7, 5, 10, 8, 6, 9, 4)


def _scene_positions(kind, n_real, rng, t_obs, t_pred):
    t = np.arange(t_obs + t_pred) * 0.2
    out = np.zeros((n_real, t.size, 2))
    for a in range(n_real):
        start = rng.uniform(-20, 20, size=2)
        speed = rng.uniform(5.0, 15.0)
        heading = rng.uniform(-0.3, 0.3) + (np.pi if a % 3 == 2 else 0.0)
        vel = speed * np.array([np.cos(heading), np.sin(heading)])
        if kind == "turn" and a == 0:
            omega = np.deg2rad(rng.uniform(45, 90)) / t[-1] * rng.choice((-1, 1))
            angle = heading + omega * t
            radius = speed / abs(omega)
            centre = start + radius * np.sign(omega) * np.array(
                [-np.sin(heading), np.cos(heading)])
            out[a] = centre + radius * np.sign(omega) * np.stack(
                [np.sin(angle), -np.cos(angle)], axis=1)
        elif kind == "interaction" and a < 2:
            meet = np.array([10.0, 0.0])
            frac = np.minimum(t / (t[-1] * 0.5), 1.0)[:, None]
            veer = np.maximum(t - t[-1] * 0.5, 0.0)[:, None] * np.array(
                [speed * 0.5, speed * (1.0 if a == 0 else -1.0)])
            out[a] = start + (meet - start) * frac + veer
        else:
            out[a] = start + np.outer(t, vel)
    return out + rng.normal(0.0, 0.02, size=out.shape)


def training_scenes(count, seed, n_channels=10, t_obs=15, t_pred=25):
    """(positions N x T x 2, mask N, origin 2, kind) per scene, normalized so
    the target's last observed point is the origin; padded channels are 0."""
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        n_real = min(n_channels, REAL_AGENTS[i % len(REAL_AGENTS)])
        real = _scene_positions(kind, n_real, rng, t_obs, t_pred)
        origin = real[0, t_obs - 1].copy() + rng.uniform([0, 0], [30, 600])
        positions = np.zeros((n_channels, t_obs + t_pred, 2))
        positions[:n_real] = real - real[0, t_obs - 1]
        mask = np.arange(n_channels) < n_real
        scenes.append((positions, mask, origin, kind))
    return scenes
