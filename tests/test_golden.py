"""Golden `prepare` run: the segment cache written for a fixed log is pinned by
its SHA-256, so a change that means to keep the data path's behaviour shows
that it does, bit for bit.

The log is built here, from integer arithmetic only, so it is the same on
every platform. It holds vehicles on both frame parities, vehicles that enter
and leave in the middle of other vehicles' windows, a vehicle with a gap, an
exact distance tie competing for the last channel, and more vehicles at the
anchor frame than there are channels. A change that is meant to alter
`prepare` output (for example a shared 5 Hz grid) updates GOLDEN_SHA256 and
GOLDEN_MANIFEST and says why.
"""
import hashlib

from sctn.cli import main

GOLDEN_SHA256 = "424c3825401ea653827a8a76f61d6be230cfbfa52d4d16729eb311d5f5e1a535"
GOLDEN_MANIFEST = ("segments total: 69\nsegments train: 48\nsegments validation: 7\n"
                   "segments test: 14\nsource 0: <log>\n")

# vehicle id, first 10 Hz frame, frames, lateral x and initial y in
# milli-feet, speed in milli-feet per frame, sway on (1) or off (0)
VEHICLES = (
    (1, 0, 160, 0, 0, 4000, 0),
    (2, 0, 160, 30000, 0, 4000, 0),     # 2 and 3 are equidistant from 1
    (3, 0, 160, -30000, 0, 4000, 0),
    (4, 10, 120, 12000, 9000, 4050, 1),
    (5, 30, 90, -12000, -15000, 4100, 1),   # enters and leaves mid-window
    (6, 0, 70, 0, 20000, 3950, 1),          # leaves mid-window
    (7, 20, 140, 12000, -18000, 3990, 1),
    (8, 1, 150, 0, -30000, 4000, 1),        # odd parity
    (9, 3, 120, 12000, -20000, 4020, 1),    # odd parity
    (10, 0, 160, -12000, 16000, 3980, 1),   # frames 60-65 missing
    (11, 50, 110, 24000, 4000, 4010, 1),
    (12, 0, 160, -12000, -8000, 4000, 1),
)
GAPS = {10: range(60, 66)}


def write_log(path):
    rows = []
    for vid, first, length, x0, y0, speed, sway in VEHICLES:
        for k in range(length):
            if k + first in GAPS.get(vid, ()):
                continue
            x = x0 + sway * ((k * 37 + vid) % 11 - 5) * 10
            y = y0 + speed * k
            rows.append((first + k, vid, x, y))
    rows.sort()
    lines = ["vehicle_id,frame_id,local_x,local_y,lane_id"]
    lines += [f"{vid},{frame},{x / 1000:.3f},{y / 1000:.3f},1" for frame, vid, x, y in rows]
    path.write_text("\n".join(lines) + "\n")


def test_prepare_output_is_pinned(tmp_path):
    log = tmp_path / "log.csv"
    write_log(log)
    out = tmp_path / "prep"
    assert main(["prepare", "--data", str(log), "--out", str(out), "--units", "feet",
                 "--neighbors", "5", "--seed", "0"]) == 0
    digest = hashlib.sha256((out / "segments.sctn").read_bytes()).hexdigest()
    manifest = (out / "segments.sctn.manifest").read_text().replace(str(log), "<log>")
    assert (digest, manifest) == (GOLDEN_SHA256, GOLDEN_MANIFEST)
