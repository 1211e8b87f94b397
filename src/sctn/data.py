"""Trajectory ingestion and segment construction.

Reads headered CSV track logs (vehicle_id, frame_id, local_x, local_y, 10 Hz,
feet or metres), subsamples to 5 Hz, slices sliding 8-second windows
(15 observation + 25 prediction frames), ranks neighbours by distance to the
target at its last observed frame, and normalizes each window so that point
sits at the origin. A log is one TRACK_DTYPE array sorted by (vehicle,
frame) from the CSV read to the index: one np.loadtxt call reads it, and a
row-by-row reader words the errors. Each log is indexed once, as arrays:
the records sorted by (vehicle, frame), one sorted (vehicle, frame) key and
a frame-major order. Windowing and neighbour selection read that index with
a few numpy calls per window, so the time taken grows linearly with the
rows. A deterministic synthetic generator provides desk-scale datasets
without any real logs.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, read_text
from .model import T_OBS, T_PRED, Scene

UNITS = ("feet", "meters")  # the units a log's coordinates may be in
FOOT_IN_METRES = 0.3048
LOG_FRAMES_PER_SECOND = 10
FRAMES_PER_SECOND = 5  # the rate of every window the model sees
WINDOW = T_OBS + T_PRED
REQUIRED_COLUMNS = ("vehicle_id", "frame_id", "local_x", "local_y")
TRACK_DTYPE = np.dtype([("vehicle_id", np.int64), ("frame_id", np.int64),
                        ("x", np.float64), ("y", np.float64)])
_INT64 = np.iinfo(np.int64)
# np.loadtxt (numpy 2.4) reads the ASCII separators \x1c-\x1f as spaces
# where int() and float() refuse them. It also reads some non-ASCII
# characters in an integer field as digits, and can crash on others, so a
# log that holds any of these goes to the row reader.
_LOADTXT_MISREADS = "\x1c\x1d\x1e\x1f"


@dataclass
class SegmentSample:
    """One 8-second window, normalized, with provenance for traceability."""
    scene: Scene
    source_file: str = ""
    vehicle_id: int = 0
    start_frame: int = 0


@dataclass
class DatasetSplit:
    train: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    test: list = field(default_factory=list)
    seed: int = 0

    def all_samples(self):
        return self.train + self.validation + self.test


def parse_trajectory_csv(path, units="meters"):
    """Parse a UTF-8 track log into a TRACK_DTYPE array sorted by
    (vehicle_id, frame_id), with x and y in metres; a byte that is not
    UTF-8 is a DataError naming its offset.

    One np.loadtxt call reads the rows. If it refuses them, or they hold a
    non-finite coordinate or a repeated (vehicle, frame), parse_rows reads
    the log again and raises the error that names the line."""
    if units not in UNITS:
        raise DataError(f"unknown units flag {units!r}")
    factor = FOOT_IN_METRES if units == "feet" else 1.0
    fh = io.StringIO(_read_log(path), newline="")
    columns = _columns(path, csv.reader(fh))
    body = fh.read()
    if body.isascii() and not any(c in body for c in _LOADTXT_MISREADS):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(io.StringIO(body, newline=""), delimiter=",",
                                   usecols=columns, dtype=TRACK_DTYPE, comments=None,
                                   quotechar='"', ndmin=1)
        except ValueError:
            pass
        else:
            table = table[np.lexsort((table["frame_id"], table["vehicle_id"]))]
            table["x"] *= factor
            table["y"] *= factor
            vid, fid = table["vehicle_id"], table["frame_id"]
            repeated = (vid[1:] == vid[:-1]) & (fid[1:] == fid[:-1])
            if (np.isfinite(table["x"]).all() and np.isfinite(table["y"]).all()
                    and not repeated.any()):
                return table
    return parse_rows(path, factor)


def parse_rows(path, factor):
    """Read a track log as parse_trajectory_csv does, one row at a time,
    with x and y scaled by factor. It reads the logs np.loadtxt refuses and
    words every error with the physical line its row ends on, which a quoted
    newline in an earlier row does not shift. The first faulty row stops the
    read, and its first fault is the one reported: unparseable, then an id
    beyond 64 bits, then non-finite, then repeated."""
    rows = []
    seen = set()
    reader = csv.reader(io.StringIO(_read_log(path), newline=""))
    vid_col, fid_col, x_col, y_col = _columns(path, reader)
    for row in reader:
        if not "".join(row).strip():
            continue
        lineno = reader.line_num
        try:
            vid = int(row[vid_col])
            fid = int(row[fid_col])
            x = float(row[x_col]) * factor
            y = float(row[y_col]) * factor
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path}:{lineno}: unparseable row: {exc}") from None
        if not (_INT64.min <= vid <= _INT64.max and _INT64.min <= fid <= _INT64.max):
            raise DataError(f"{path}:{lineno}: vehicle and frame ids must fit "
                            f"in 64-bit integers")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"{path}:{lineno}: non-finite coordinate")
        key = (vid, fid)
        if key in seen:
            raise DataError(f"{path}:{lineno}: duplicate (vehicle {vid}, frame {fid})")
        seen.add(key)
        rows.append((vid, fid, x, y))
    rows.sort()
    return np.array(rows, dtype=TRACK_DTYPE)


def _read_log(path):
    """The text of a UTF-8 log, without a leading byte order mark."""
    return read_text(path).removeprefix("\ufeff")


def _columns(path, reader):
    """Indices of REQUIRED_COLUMNS in the header, the next row of reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, expected a header row") from None
    header = [h.strip().lower() for h in header]
    for name in REQUIRED_COLUMNS:
        if name not in header:
            raise DataError(f"{path}: missing required column {name!r}")
    return tuple(header.index(name) for name in REQUIRED_COLUMNS)


def _first_of_vehicle(vid):
    """Mask of the rows that start each vehicle's run in a sorted id column."""
    first = np.ones(len(vid), dtype=bool)
    first[1:] = vid[1:] != vid[:-1]
    return first


def resample(records, factor=LOG_FRAMES_PER_SECOND // FRAMES_PER_SECOND):
    """Keep every factor-th frame per vehicle of a sorted TRACK_DTYPE array,
    anchored at its first frame; the default takes a log to
    FRAMES_PER_SECOND."""
    frame = records["frame_id"]
    first = _first_of_vehicle(records["vehicle_id"])
    base = frame[first][np.cumsum(first) - 1]
    return records[(frame - base) % factor == 0]


@dataclass
class LogIndex:
    """One log as arrays, one row per record, rows sorted by (vehicle,
    frame). A vehicle's slot is its rank among the log's vehicle ids.

    Rows bounds[s]:bounds[s + 1] are the frames of vehicles[s]. key is
    slot * span + (frame - frame0), sorted, so one searchsorted finds any
    (vehicle, frame). by_frame lists the rows in (frame, slot) order and
    frame_sorted their frames, so the vehicles present at a frame are one
    slice of by_frame."""
    vehicles: np.ndarray
    bounds: np.ndarray
    slot: np.ndarray
    frame: np.ndarray
    xy: np.ndarray
    frame0: int
    span: int
    key: np.ndarray
    by_frame: np.ndarray
    frame_sorted: np.ndarray


def index_log(records):
    """Index a TRACK_DTYPE array that holds at most one row per (vehicle,
    frame), in any order."""
    records = records[np.lexsort((records["frame_id"], records["vehicle_id"]))]
    vid, frame = records["vehicle_id"], records["frame_id"]
    xy = np.stack((records["x"], records["y"]), axis=1)
    first = _first_of_vehicle(vid)
    bounds = np.append(np.flatnonzero(first), len(vid))
    slot = np.cumsum(first) - 1
    frame0, last = (int(frame.min()), int(frame.max())) if len(frame) else (0, 0)
    span = last - frame0 + 1
    if (len(bounds) - 1) * span > _INT64.max:
        raise DataError(f"frame ids span {span} frames, too wide to index "
                        f"{len(bounds) - 1} vehicles")
    by_frame = np.argsort(frame, kind="stable")
    return LogIndex(vehicles=vid[bounds[:-1]], bounds=bounds, slot=slot, frame=frame,
                    xy=xy, frame0=frame0, span=span, key=slot * span + (frame - frame0),
                    by_frame=by_frame, frame_sorted=frame[by_frame])


def segment_windows(index, stride=5):
    """Sliding 40-frame windows per target vehicle (5 Hz records).

    A vehicle's frame step is the smallest gap between its frames, and
    windows where the target misses any frame are dropped. Returns raw
    window descriptors, ordered by (vehicle id, start frame): the vehicle,
    its first frame and the index row of that frame. Neighbour assignment
    happens in select_neighbors.
    """
    frame, slot, bounds = index.frame, index.slot, index.bounds
    per_vehicle = np.maximum(np.diff(bounds) - WINDOW + stride, 0) // stride
    first_window = np.cumsum(per_vehicle) - per_vehicle
    rows = (np.repeat(bounds[:-1], per_vehicle)
            + stride * (np.arange(per_vehicle.sum()) - np.repeat(first_window, per_vehicle)))
    gap = np.diff(frame)
    same = slot[1:] == slot[:-1]
    step = np.full(len(bounds) - 1, _INT64.max)
    np.minimum.at(step, slot[1:][same], gap[same])
    # off_step[r] counts the off-step gaps before row r, so the window from
    # row r is gap-free when the count does not change up to row r + WINDOW - 1
    off_step = np.concatenate(([0], np.cumsum(gap != step[slot[1:]])))
    rows = rows[off_step[rows + WINDOW - 1] == off_step[rows]]
    return [dict(vehicle_id=v, start_frame=f, row=r) for v, f, r in
            zip(index.vehicles[slot[rows]].tolist(), frame[rows].tolist(), rows.tolist())]


def select_neighbors(window, index, n_channels):
    """Build the normalized N-channel scene for one window.

    Channel 0 is the target, and its last observed point is the origin.
    Neighbours are the vehicles present at the target's last observed
    frame, nearest first (ties broken by lower vehicle id). A neighbour's
    missing window frames hold its last known position, and frames before
    it appears take its first known one. Unfilled channels are zero and
    masked out.
    """
    start = window["row"]
    frames = index.frame[start:start + WINDOW]
    anchor = start + T_OBS - 1
    lo, hi = index.frame_sorted.searchsorted((frames[T_OBS - 1], frames[T_OBS - 1] + 1))
    present = index.by_frame[lo:hi]
    present = present[present != anchor]
    gap = index.xy[present] - index.xy[anchor]
    nearest = present[np.lexsort((index.slot[present], np.hypot(gap[:, 0], gap[:, 1])))]
    chosen = index.slot[np.concatenate(([anchor], nearest[:n_channels - 1]))]
    keys = chosen[:, None] * index.span + (frames - index.frame0)
    rows = np.minimum(index.key.searchsorted(keys), len(index.key) - 1)
    hit = index.key[rows] == keys
    # each frame takes the latest hit at or before it; column 0 takes the
    # first hit, which the frames before that hit then hold
    held = np.where(hit, np.arange(WINDOW), -1)
    held[:, 0] = hit.argmax(axis=1)
    np.maximum.accumulate(held, axis=1, out=held)
    positions = np.zeros((n_channels, WINDOW, 2))
    positions[:len(chosen)] = index.xy[rows[np.arange(len(chosen))[:, None], held]]
    mask = np.arange(n_channels) < len(chosen)
    positions, origin = normalize_positions(positions, mask)
    return Scene(positions=positions, channel_mask=mask, target_index=0, origin=origin)


def normalize_positions(positions, channel_mask):
    """(positions, origin): N x T x 2 positions translated so the target's
    (channel 0) last observed point is the origin, with the channels the
    mask leaves out zero, and that point."""
    origin = positions[0, T_OBS - 1].copy()
    positions = positions - origin
    positions[~channel_mask] = 0.0
    return positions, origin


def denormalize_points(points, origin):
    return np.asarray(points) + np.asarray(origin)


def build_segments(records, n_channels, stride=5, source_file=""):
    """parse -> resample output to normalized SegmentSamples, ordered by
    (vehicle id, start frame)."""
    index = index_log(records)
    samples = []
    for window in segment_windows(index, stride=stride):
        scene = select_neighbors(window, index, n_channels)
        samples.append(SegmentSample(scene=scene, source_file=source_file,
                                     vehicle_id=window["vehicle_id"],
                                     start_frame=window["start_frame"]))
    return samples


def check_split_fractions(fractions, error=DataError, name="split fractions"):
    """Raise error, whose message calls the fractions name, unless the
    (train, validation, test) fractions each lie in [0, 1] and sum to 1
    (within 1e-9)."""
    if abs(sum(fractions) - 1.0) > 1e-9 or not all(0 <= f <= 1 for f in fractions):
        raise error(f"{name} must lie in [0, 1] and sum to 1, got {fractions}")


def split_dataset(samples, seed=0, fractions=(0.7, 0.1, 0.2)):
    """Deterministic per-segment split into train/validation/test.

    Sizes are allocated by largest remainder: each split gets the floor of
    its share, and the segments left over go to the largest fractional
    parts, ties (compared to 1e-9) in train, validation, test order."""
    check_split_fractions(fractions)
    order = np.random.default_rng(seed).permutation(len(samples))
    shares = [f * len(samples) for f in fractions]
    sizes = [int(share) for share in shares]
    # remainders rounded so that float error (0.7 * 8 = 5.5999...) cannot break a tie
    by_remainder = sorted(range(3), key=lambda i: -round(shares[i] - sizes[i], 9))
    for i in by_remainder[:len(samples) - sum(sizes)]:
        sizes[i] += 1
    n_train, n_val = sizes[0], sizes[1]
    shuffled = [samples[i] for i in order]
    return DatasetSplit(train=shuffled[:n_train],
                        validation=shuffled[n_train:n_train + n_val],
                        test=shuffled[n_train + n_val:],
                        seed=seed)


def retarget_neighbors(sample, n_channels):
    """Re-rank an existing sample's channels into an n_channels-wide scene.

    Used by the ablation grid to sweep neighbour counts without re-reading
    raw logs: keeps the target, takes the nearest real channels at the last
    observed frame, pads the rest.
    """
    if n_channels < 1:
        raise DataError(f"channel count must be >= 1, got {n_channels}")
    scene = sample.scene
    anchor = scene.positions[:, T_OBS - 1, :]
    target = scene.target_index
    dists = np.hypot(*(anchor - anchor[target]).T)
    order = [i for i in np.argsort(dists, kind="stable")
             if i != target and scene.channel_mask[i]]
    chosen = [target] + order[:n_channels - 1]
    positions = np.zeros((n_channels, scene.positions.shape[1], 2))
    positions[:len(chosen)] = scene.positions[chosen]
    mask = np.arange(n_channels) < len(chosen)
    new_scene = Scene(positions=positions, channel_mask=mask, target_index=0,
                      origin=scene.origin.copy())
    return SegmentSample(scene=new_scene, source_file=sample.source_file,
                         vehicle_id=sample.vehicle_id,
                         start_frame=sample.start_frame)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

SYNTH_KINDS = ("linear", "turn", "interaction")


def synthesize_scenes(count, kind="linear", seed=0, n_agents=3, noise=0.0):
    """Deterministic parametric windows for desk-scale testing.

    kinds: linear (constant velocity), turn (constant-curvature arc with a
    heading change well past 30 degrees), interaction (two agents converge
    then veer apart, remaining agents linear).
    """
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}")
    rng = np.random.default_rng(seed)
    dt = 1 / FRAMES_PER_SECOND
    t = np.arange(WINDOW) * dt
    samples = []
    for idx in range(count):
        positions = np.zeros((n_agents, WINDOW, 2))
        for a in range(n_agents):
            start = rng.uniform(-5, 5, size=2)
            speed = rng.uniform(1.5, 3.0)
            heading = rng.uniform(0, 2 * np.pi)
            if kind == "linear" or (kind == "interaction" and a >= 2):
                vel = speed * np.array([np.cos(heading), np.sin(heading)])
                track = start + np.outer(t, vel)
            elif kind == "turn":
                total_turn = np.deg2rad(rng.uniform(45, 90)) * np.sign(rng.uniform(-1, 1) or 1)
                omega = total_turn / t[-1]
                angles = heading + omega * t
                radius = speed / abs(omega)
                centre = start - radius * np.sign(omega) * np.array(
                    [-np.sin(heading), np.cos(heading)])
                track = centre + radius * np.sign(omega) * np.stack(
                    [-np.sin(angles), np.cos(angles)], axis=1)
            else:  # interaction, agents 0 and 1 converge then avoid
                meet = np.array([0.0, 0.0])
                side = 1.0 if a == 0 else -1.0
                approach = start + (meet - start) * np.minimum(t / (t[-1] * 0.5), 1.0)[:, None]
                veer = side * np.stack([np.zeros_like(t),
                                        np.maximum(t - t[-1] * 0.5, 0.0) * speed], axis=1)
                track = approach + veer
            if noise > 0:
                track = track + rng.normal(0.0, noise, size=track.shape)
            positions[a] = track
        mask = np.ones(n_agents, dtype=bool)
        positions, origin = normalize_positions(positions, mask)
        scene = Scene(positions=positions, channel_mask=mask, target_index=0, origin=origin)
        samples.append(SegmentSample(scene=scene, source_file=f"synth:{kind}",
                                     vehicle_id=idx, start_frame=0))
    return samples
