"""The array index of `sctn.data` against the dict-based path it replaced.

`oracle_index`, `oracle_windows` and `oracle_select` are the loops that
`prepare` ran before each log became one array index: a vehicle -> frame ->
(x, y) dict and a frame -> vehicles dict, searched frame by frame. They stay
here as the reference, and every window and scene the array path builds
from a seeded random log must equal theirs bit for bit.
"""
import numpy as np
import pytest

from sctn import data as data_mod
from sctn.data import T_OBS, TRACK_DTYPE, WINDOW
from sctn.model import Scene


def oracle_index(records):
    tracks, present = {}, {}
    for vid, frame, x, y in records.tolist():
        tracks.setdefault(vid, {})[frame] = (x, y)
        present.setdefault(frame, []).append(vid)
    return tracks, present


def oracle_windows(index, stride=5):
    tracks, _ = index
    windows = []
    for vid in sorted(tracks):
        frames = sorted(tracks[vid])
        step = min((b - a for a, b in zip(frames, frames[1:])), default=1)
        for start in range(0, len(frames) - WINDOW + 1, stride):
            ids = frames[start:start + WINDOW]
            if any(b - a != step for a, b in zip(ids, ids[1:])):
                continue
            windows.append(dict(vehicle_id=vid, start_frame=ids[0], frames=ids))
    return windows


def oracle_select(window, index, n_channels):
    tracks, present = index
    vid = window["vehicle_id"]
    frames = window["frames"]
    anchor_frame = frames[T_OBS - 1]
    tx, ty = tracks[vid][anchor_frame]
    candidates = []
    for other in present[anchor_frame]:
        if other != vid:
            ox, oy = tracks[other][anchor_frame]
            candidates.append((float(np.hypot(ox - tx, oy - ty)), other))
    candidates.sort()
    chosen = [vid] + [other for _, other in candidates[:n_channels - 1]]

    positions = np.zeros((n_channels, WINDOW, 2))
    for channel, v in enumerate(chosen):
        track = tracks[v]
        last = next(track[f] for f in frames if f in track)
        for i, f in enumerate(frames):
            last = track.get(f, last)
            positions[channel, i] = last
    origin = positions[0, T_OBS - 1].copy()
    positions[:len(chosen)] -= origin
    mask = np.arange(n_channels) < len(chosen)
    return Scene(positions=positions, channel_mask=mask, target_index=0, origin=origin)


def random_log(seed, n_vehicles=24, log_frames=240):
    """A TRACK_DTYPE array sorted by (vehicle, frame), as
    parse_trajectory_csv returns. Vehicles enter and leave at random frames
    of either parity; some miss single frames, some leave for a stretch and
    come back; positions sit on a coarse integer grid, so equal distances
    at an anchor frame are common."""
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(1, 500), size=n_vehicles, replace=False)
    records = []
    for vid in ids.tolist():
        length = int(rng.integers(30, log_frames))
        first = int(rng.integers(0, log_frames - length + 1))
        frames = np.arange(first, first + length)
        keep = rng.random(length) > 0.01
        if rng.random() < 0.3:
            away = int(rng.integers(0, length))
            keep[away:away + int(rng.integers(3, 25))] = False
        lane = int(rng.integers(-2, 3))
        y0 = int(rng.integers(-20, 20))
        for f in frames[keep].tolist():
            records.append((vid, f, float(3 * lane), float(y0 + (f - first) // 4)))
    return np.array(sorted(records), dtype=TRACK_DTYPE)


SEEDS = range(12)


@pytest.mark.parametrize("factor", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_array_index_matches_dict_oracle(seed, factor):
    records = data_mod.resample(random_log(seed), factor=factor)
    old = oracle_index(records)
    # index_log takes its rows in any order
    new = data_mod.index_log(records[np.random.default_rng(seed).permutation(len(records))])
    windows = data_mod.segment_windows(new)
    old_windows = oracle_windows(old)
    assert ([(w["vehicle_id"], w["start_frame"]) for w in windows]
            == [(w["vehicle_id"], w["start_frame"]) for w in old_windows])
    for window, old_window in zip(windows, old_windows):
        for n_channels in (1, 3, 10):
            scene = data_mod.select_neighbors(window, new, n_channels)
            expected = oracle_select(old_window, old, n_channels)
            assert np.array_equal(scene.positions, expected.positions)
            assert np.array_equal(scene.channel_mask, expected.channel_mask)
            assert np.array_equal(scene.origin, expected.origin)


def test_random_logs_hold_the_cases_they_are_for():
    """Across the seeds there are windows with a distance tie among the
    anchor's neighbours, neighbours that miss window frames (held and
    back-filled), and windows starting on both frame parities at 5 Hz."""
    ties = held = 0
    parities = set()
    for seed in SEEDS:
        tracks, present = index = oracle_index(data_mod.resample(random_log(seed), factor=2))
        for window in oracle_windows(index):
            frames = window["frames"]
            anchor = frames[T_OBS - 1]
            tx, ty = tracks[window["vehicle_id"]][anchor]
            dists = [np.hypot(tracks[v][anchor][0] - tx, tracks[v][anchor][1] - ty)
                     for v in present[anchor] if v != window["vehicle_id"]]
            ties += len(dists) != len(set(dists))
            held += any(f not in tracks[v] for v in present[anchor] for f in frames)
            parities.add(window["start_frame"] % 2)
    assert ties > 0 and held > 0 and parities == {0, 1}


def test_empty_log_has_no_windows():
    assert data_mod.segment_windows(data_mod.index_log(np.empty(0, TRACK_DTYPE))) == []
