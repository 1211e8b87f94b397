import numpy as np
import pytest

from sctn import data as data_mod
from sctn.data import (FOOT_IN_METRES, T_OBS, TRACK_DTYPE, WINDOW,
                       build_segments, index_log, normalize_positions,
                       parse_rows, parse_trajectory_csv, resample,
                       segment_windows, select_neighbors, split_dataset,
                       synthesize_scenes)
from sctn.errors import DataError


def write_csv(path, rows, header="vehicle_id,frame_id,local_x,local_y"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def tracks(rows):
    """A TRACK_DTYPE array of (vehicle_id, frame_id, x, y) rows."""
    return np.array(list(rows), dtype=TRACK_DTYPE)


def make_fixture(tmp_path, n_vehicles=3, n_frames=120):
    """Hand-built log: straight tracks at 10 Hz in feet, 2 ft/frame apart."""
    rows = []
    for vid in range(1, n_vehicles + 1):
        for f in range(n_frames):
            rows.append(f"{vid},{f},{10.0 * vid},{2.0 * f + 5.0 * vid}")
    return write_csv(tmp_path / "tracks.csv", rows)


class TestParse:
    def test_feet_conversion(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["7,100,10.0,20.0"])
        rec = parse_trajectory_csv(path, units="feet")[0]
        assert rec["x"] == pytest.approx(3.048)
        assert rec["y"] == pytest.approx(6.096)

    def test_empty_after_header(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [])
        out = parse_trajectory_csv(path)
        assert out.dtype == TRACK_DTYPE and out.shape == (0,)

    def test_sorted_output(self, tmp_path):
        rows = ["2,1,0,0", "1,3,0,0", "1,1,0,0", "2,0,0,0"]
        rng = np.random.default_rng(0)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        path = write_csv(tmp_path / "a.csv", shuffled)
        recs = parse_trajectory_csv(path)
        keys = list(zip(recs["vehicle_id"].tolist(), recs["frame_id"].tolist()))
        assert keys == sorted(keys)

    def test_missing_column_named(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,2,3"],
                         header="vehicle_id,frame_id,local_x")
        with pytest.raises(DataError, match="local_y"):
            parse_trajectory_csv(path)

    def test_bad_row_carries_line_number(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,0,0,0", "1,nope,0,0"])
        with pytest.raises(DataError, match=r":3:"):
            parse_trajectory_csv(path)

    def test_bad_row_after_a_quoted_newline_carries_its_physical_line(self, tmp_path):
        # line 2's quoted field runs onto line 3, so the bad row is on line 5
        path = write_csv(tmp_path / "a.csv", ['1,0,"a\nb",0,0', "1,1,c,0,0", "1,x,c,0,0"],
                         header="vehicle_id,frame_id,name,local_x,local_y")
        with pytest.raises(DataError, match=r"a\.csv:5: unparseable row"):
            parse_trajectory_csv(path)

    def test_log_that_is_not_utf8_names_the_byte_offset(self, tmp_path):
        # a Latin-1 export; the offset counts the byte order mark too
        path = tmp_path / "a.csv"
        path.write_bytes(b"\xef\xbb\xbfvehicle_id,frame_id,local_x,local_y\n"
                         b"1,0,0,0\n1,1,0,0\xff\n")
        with pytest.raises(DataError, match=r"a\.csv: not UTF-8 text: byte 0xff at "
                                            r"offset 54 \(invalid start byte\)"):
            parse_trajectory_csv(path)

    def test_duplicate_detected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,0,0,0", "1,0,5,5"])
        with pytest.raises(DataError, match="duplicate"):
            parse_trajectory_csv(path)

    def test_whitespace_only_row_skipped(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,0,0,0", "  , \t,,  ", "1,1,2,3"])
        assert parse_trajectory_csv(path)["frame_id"].tolist() == [0, 1]

    def test_duplicate_reported_before_a_later_bad_row(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,0,0,0", "1,0,5,5", "2,0,0,0", "2,x,0,0"])
        with pytest.raises(DataError, match=r":3: duplicate \(vehicle 1, frame 0\)"):
            parse_trajectory_csv(path)

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_coordinate_carries_line_number(self, tmp_path, value):
        path = write_csv(tmp_path / "a.csv", ["1,0,0,0", "1,1,0,0", f"1,2,3,{value}"])
        with pytest.raises(DataError, match=r":4: non-finite coordinate"):
            parse_trajectory_csv(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,0,2.0,3.0,junk"],
                         header="vehicle_id,frame_id,local_x,local_y,speed")
        rec = parse_trajectory_csv(path)[0]
        assert (rec["x"], rec["y"]) == (2.0, 3.0)

    def test_id_beyond_64_bits_is_data_error(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["1,0,0,0", f"{2 ** 63},0,0,0"])
        with pytest.raises(DataError, match=r":3: vehicle and frame ids must fit in 64-bit"):
            parse_trajectory_csv(path)

    def test_utf8_bom_log_reads_as_the_plain_log(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte order mark
        plain = make_fixture(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert np.array_equal(parse_trajectory_csv(bom), parse_trajectory_csv(plain))


NAMED = "vehicle_id,frame_id,name,local_x,local_y"


@pytest.mark.parametrize("header, body, reader", [
    (None, '"7","100","10.0","20.0"\n', "loadtxt"),
    (NAMED, '1,2,"x,7,8,y",3.5,4.5\n', "loadtxt"),
    (NAMED, '1,2,"a\nb",3.5,4.5\n1,3,c,5,6\n', "loadtxt"),
    (NAMED, '1,2,"a#b",3.5,4.5\n1,3,#c,5,6\n', "loadtxt"),
    (None, "1,0,0,0\n\n\n1,1,2,3\n", "loadtxt"),
    (None, "1,0,0,0\n  , \t,,  \n1,1,2,3\n", "rows"),
    (None, "1,0,0,0\r\n1,1,2,3\r\n", "loadtxt"),
    (None, "+7,0,0,0\n007,1,0,0\n", "loadtxt"),
    (None, "1_000,0,0,0\n", "rows"),
    (None, "1.0,0,0,0\n", "rows"),
    (None, "1e3,0,0,0\n", "rows"),
    (None, "\u0663,\u0661\u0662,0,0\n", "rows"),
    (None, "4\u01fe,0,0,0\n", "rows"),
    (None, "1,0,0,4\x1c\n", "rows"),
    (None, "1,0,nan,0\n", "rows"),
    (None, "1,0,0,-inf\n", "rows"),
    (None, "1,0,1e400,0\n", "rows"),
    (None, f"{2 ** 63},0,0,0\n", "rows"),
    (None, f"1,{-2 ** 63 - 1},0,0\n", "rows"),
    (None, "1,0,0,0\n1,1,0\n", "rows"),
    (None, "1,0,2.0,3.0,junk\n", "loadtxt"),
    (None, "1,0,0,0\n1,0,5,5\n", "rows"),
    (None, "", "loadtxt"),
    ("", "", "loadtxt"),
], ids=["quoted-numbers", "quoted-commas", "quoted-newline", "hash-in-field",
        "blank-lines", "whitespace-only-row", "crlf", "plus-and-leading-zero",
        "underscore-id", "float-id", "exponent-id", "non-ascii-digits",
        "non-ascii-non-digit", "file-separator", "nan", "inf", "overflow-to-inf",
        "id-beyond-int64", "id-below-int64", "short-row", "extra-column",
        "duplicate", "header-only", "empty-file"])
def test_fast_read_matches_row_reader(tmp_path, monkeypatch, header, body, reader):
    """parse_trajectory_csv gives the array or the DataError text that the
    row reader gives, and reads with np.loadtxt alone where it can."""
    head = "vehicle_id,frame_id,local_x,local_y" if header is None else header
    path = tmp_path / "log.csv"
    path.write_bytes(((head + "\n" if head else "") + body).encode("utf-8"))

    def outcome(read, *args):
        try:
            return read(*args)
        except DataError as exc:
            return str(exc)

    slow = outcome(parse_rows, path, FOOT_IN_METRES)
    calls = []
    monkeypatch.setattr(data_mod, "parse_rows",
                        lambda *args: calls.append(args) or parse_rows(*args))
    fast = outcome(parse_trajectory_csv, path, "feet")
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert fast.dtype == TRACK_DTYPE and np.array_equal(fast, slow)
    assert ("rows" if calls else "loadtxt") == reader


class TestResample:
    def recs(self, frames, vid=1):
        return tracks((vid, f, float(f), 0.0) for f in frames)

    def test_stride_two(self):
        out = resample(self.recs(range(10)), factor=2)
        assert out["frame_id"].tolist() == [0, 2, 4, 6, 8]

    def test_identity(self):
        recs = self.recs(range(5))
        assert np.array_equal(resample(recs, factor=1), recs)

    def test_count(self):
        assert len(resample(self.recs(range(80)), factor=2)) == 40

    def test_anchored_at_first_frame(self):
        out = resample(self.recs(range(7, 17)), factor=2)
        assert out["frame_id"].tolist() == [7, 9, 11, 13, 15]

    def test_each_vehicle_anchored_at_its_own_first_frame(self):
        recs = np.concatenate((self.recs(range(10), vid=1), self.recs(range(3, 13), vid=2)))
        out = resample(recs, factor=2)
        assert out["vehicle_id"].tolist() == [1] * 5 + [2] * 5
        assert out["frame_id"].tolist() == [0, 2, 4, 6, 8, 3, 5, 7, 9, 11]


class TestSegment:
    def track(self, n, vid=1):
        return tracks((vid, f, float(f), 0.0) for f in range(n))

    def test_exactly_one_window(self):
        assert len(segment_windows(index_log(self.track(40)), stride=5)) == 1

    def test_two_windows(self):
        wins = segment_windows(index_log(self.track(45)), stride=5)
        assert [w["start_frame"] for w in wins] == [0, 5]

    def test_too_short(self):
        assert segment_windows(index_log(self.track(39)), stride=5) == []

    def test_gap_dropped(self):
        recs = self.track(40)
        assert segment_windows(index_log(recs[recs["frame_id"] != 20]), stride=5) == []

    def test_frame_span_too_wide_to_index_is_data_error(self):
        recs = tracks([(1, 0, 0.0, 0.0), (2, 2 ** 62, 0.0, 0.0)])
        with pytest.raises(DataError, match="too wide to index 2 vehicles"):
            index_log(recs)

    def test_early_gap_drops_only_the_window_across_it(self):
        # a 10 Hz track without frame 2 resamples to 0, 4, 6, ...: its frame
        # step is still 2, so every window after the gap is kept
        recs = self.track(200)
        recs = resample(recs[recs["frame_id"] != 2], factor=2)
        wins = segment_windows(index_log(recs), stride=5)
        assert [w["start_frame"] for w in wins] == list(range(12, 113, 10))


class TestSelectNeighbors:
    def build(self, offsets, n_channels):
        # target at x = 0; neighbours at given x offsets, all fully observed
        recs = tracks((vid, f, off, float(f))
                      for vid, off in enumerate([0.0] + list(offsets), start=1)
                      for f in range(WINDOW))
        index = index_log(recs)
        window = segment_windows(index, stride=WINDOW)[0]
        assert window["vehicle_id"] == 1
        return select_neighbors(window, index, n_channels)

    def test_scene_is_normalized(self):
        # the target's anchor (frame T_OBS - 1, at x = 0) is the origin
        scene = self.build([1.0], 2)
        assert scene.origin.tolist() == [0.0, T_OBS - 1.0]
        np.testing.assert_array_equal(scene.positions[:, :, 1],
                                      np.tile(np.arange(WINDOW) - (T_OBS - 1.0), (2, 1)))
        np.testing.assert_array_equal(scene.positions[:, 0, 0], [0.0, 1.0])

    def test_padding(self):
        scene = self.build([1.0, 2.0], 5)
        assert scene.channel_mask.tolist() == [True, True, True, False, False]
        np.testing.assert_array_equal(scene.positions[3:], 0.0)

    def test_distance_ranking(self):
        scene = self.build([1.0, 5.0, 2.0], 3)
        assert scene.channel_mask.all()
        assert scene.positions[1, 0, 0] == 1.0
        assert scene.positions[2, 0, 0] == 2.0

    def test_tie_break_lower_id(self):
        scene = self.build([3.0, -3.0], 2)
        # vehicles 2 and 3 are equidistant; vehicle 2 wins the single slot
        assert scene.positions[1, 0, 0] == 3.0

    def test_missing_frames_held_at_last_position(self):
        recs = tracks([(1, f, 0.0, float(f)) for f in range(WINDOW)]
                      # neighbour leaves after frame 19
                      + [(2, f, 1.0, float(f)) for f in range(20)])
        index = index_log(recs)
        scene = select_neighbors(segment_windows(index, stride=WINDOW)[0], index, 2)
        np.testing.assert_array_equal(
            scene.positions[1, 19:],
            np.broadcast_to([1.0, 19.0 - (T_OBS - 1)], (WINDOW - 19, 2)))


class TestSelectionRules:
    """Neighbour rules as `build_segments` applies them to a whole log; the
    target (vehicle 1) is at x = 0, y = frame, and the scene is normalized so
    its anchor (frame T_OBS - 1) is the origin."""

    def scene(self, others, n_channels):
        rows = [(1, f, 0.0, float(f)) for f in range(WINDOW)]
        for vid, (x, frames) in enumerate(others, start=2):
            rows += [(vid, f, x, float(f)) for f in frames]
        return build_segments(tracks(rows), n_channels, stride=WINDOW)[0].scene

    def test_late_neighbour_backfilled_with_first_position(self):
        scene = self.scene([(1.0, range(10, WINDOW))], 2)
        np.testing.assert_array_equal(
            scene.positions[1, :11], np.broadcast_to([1.0, 10.0 - (T_OBS - 1)], (11, 2)))
        assert scene.positions[1, 11, 1] == 11.0 - (T_OBS - 1)

    def test_vehicle_absent_at_anchor_never_chosen(self):
        left = (0.5, range(T_OBS - 1))           # leaves just before the anchor
        joined = (0.5, range(T_OBS, WINDOW))     # enters just after it
        scene = self.scene([left, joined, (5.0, range(WINDOW))], 4)
        assert scene.channel_mask.tolist() == [True, True, False, False]
        np.testing.assert_array_equal(scene.positions[1, :, 0], 5.0)

    def test_farthest_dropped_when_crowded(self):
        offsets = [4.0, -1.0, 6.0, 2.0, -3.0, 5.0]
        scene = self.scene([(x, range(WINDOW)) for x in offsets], 4)
        assert scene.channel_mask.all()
        assert scene.positions[1:, 0, 0].tolist() == [-1.0, 2.0, -3.0]


class TestNormalize:
    def positions(self):
        rng = np.random.default_rng(1)
        return rng.normal(size=(3, WINDOW, 2)) + 50.0

    def normalized(self, positions):
        return normalize_positions(positions, np.ones(3, dtype=bool))

    def test_target_anchor_at_origin(self):
        out, _ = self.normalized(self.positions())
        np.testing.assert_allclose(out[0, T_OBS - 1], [0.0, 0.0])

    def test_inverse_pair(self):
        positions = self.positions()
        out, origin = self.normalized(positions)
        restored = data_mod.denormalize_points(out, origin)
        np.testing.assert_allclose(restored, positions, atol=1e-9)

    def test_relative_distances_preserved(self):
        positions = self.positions()
        out, _ = self.normalized(positions)
        np.testing.assert_allclose(out[1] - out[0], positions[1] - positions[0],
                                   atol=1e-9)

    def test_channels_left_out_are_zero(self):
        positions = self.positions()
        out, origin = normalize_positions(positions, np.array([True, False, True]))
        np.testing.assert_array_equal(out[1], 0.0)
        np.testing.assert_array_equal(out[2], positions[2] - origin)


class TestPipelineEndToEnd:
    def test_fixture_segment_count(self, tmp_path):
        # 120 frames at 10 Hz -> 60 at 5 Hz -> starts 0,5,10,15,20 per vehicle
        path = make_fixture(tmp_path)
        records = resample(parse_trajectory_csv(path, units="feet"), factor=2)
        samples = build_segments(records, n_channels=5, stride=5,
                                 source_file=str(path))
        assert len(samples) == 15

    def test_fixture_neighbor_ranking(self, tmp_path):
        path = make_fixture(tmp_path)
        records = resample(parse_trajectory_csv(path, units="feet"), factor=2)
        samples = build_segments(records, n_channels=3, stride=5,
                                 source_file=str(path))
        first = next(s for s in samples if s.vehicle_id == 1 and s.start_frame == 0)
        # vehicle 2 is closer to vehicle 1 than vehicle 3 is
        d1 = np.linalg.norm(first.scene.positions[1, T_OBS - 1])
        d2 = np.linalg.norm(first.scene.positions[2, T_OBS - 1])
        assert d1 < d2

    def test_row_order_independence(self, tmp_path):
        path = make_fixture(tmp_path)
        lines = path.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        rng = np.random.default_rng(2)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        path2 = write_csv(tmp_path / "shuffled.csv", shuffled, header=header)
        base = build_segments(resample(parse_trajectory_csv(path, "feet"), 2), 4)
        other = build_segments(resample(parse_trajectory_csv(path2, "feet"), 2), 4)
        assert len(base) == len(other)
        for a, b in zip(base, other):
            np.testing.assert_array_equal(a.scene.positions, b.scene.positions)


class TestSplit:
    def test_deterministic_and_disjoint(self):
        samples = synthesize_scenes(20, seed=0)
        a = split_dataset(samples, seed=3)
        b = split_dataset(samples, seed=3)
        for name in ("train", "validation", "test"):
            assert [id(s) for s in getattr(a, name)] == [id(s) for s in getattr(b, name)]
        ids = [id(s) for part in (a.train, a.validation, a.test) for s in part]
        assert len(ids) == len(set(ids)) == 20

    @pytest.mark.parametrize("fractions", [(1.0, -0.25, 0.25), (1.25, 0.0, -0.25),
                                           (0.0, 1.5, -0.5)])
    def test_fraction_outside_unit_interval_rejected(self, fractions):
        # they sum to 1, but a negative one would let test segments into train
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            split_dataset(synthesize_scenes(8, seed=0), fractions=fractions)

    @pytest.mark.parametrize("count, fractions, sizes", [
        (1, (0.5, 0.5, 0.0), (1, 0, 0)),
        (2, (0.25, 0.25, 0.5), (1, 0, 1)),
        (176, (0.7, 0.1, 0.2), (123, 18, 35)),
        (3, (1 / 3, 1 / 3, 1 / 3), (1, 1, 1)),
        (8, (0.7, 0.1, 0.2), (6, 1, 1)),
        (12, (0.7, 0.1, 0.2), (9, 1, 2)),
    ], ids=["half-half-of-1", "quarters-of-2", "default-of-176", "thirds-of-3",
            "default-of-8", "default-of-12"])
    def test_sizes_by_largest_remainder(self, count, fractions, sizes):
        # ties go to the earlier split, not to even sizes, whatever float error
        # makes of the shares (0.7 * 8 is 5.5999..., 0.2 * 8 is 1.6000...)
        split = split_dataset(synthesize_scenes(count, seed=0), fractions=fractions)
        assert (len(split.train), len(split.validation), len(split.test)) == sizes


class TestSynthesize:
    def test_linear_constant_displacement(self):
        sample = synthesize_scenes(1, "linear", seed=0, noise=0.0)[0]
        pos = sample.scene.positions[0]
        steps = np.diff(pos, axis=0)
        np.testing.assert_allclose(steps, np.broadcast_to(steps[0], steps.shape),
                                   atol=1e-9)

    def test_same_seed_identical(self):
        a = synthesize_scenes(3, "turn", seed=4)
        b = synthesize_scenes(3, "turn", seed=4)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.scene.positions, sb.scene.positions)

    def test_turn_heading_change(self):
        for sample in synthesize_scenes(5, "turn", seed=6, noise=0.0):
            pos = sample.scene.positions[0]
            first = pos[1] - pos[0]
            last = pos[-1] - pos[-2]
            cosang = np.dot(first, last) / (np.linalg.norm(first) * np.linalg.norm(last))
            assert np.degrees(np.arccos(np.clip(cosang, -1, 1))) > 30.0

    def test_window_and_target_contract(self):
        for kind in ("linear", "turn", "interaction"):
            for sample in synthesize_scenes(3, kind, seed=7):
                assert sample.scene.positions.shape[1] == WINDOW
                assert sample.scene.channel_mask[sample.scene.target_index]

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            synthesize_scenes(1, "zigzag")


class TestRetarget:
    def test_narrow_and_widen(self):
        sample = synthesize_scenes(1, "linear", seed=8, n_agents=6)[0]
        narrow = data_mod.retarget_neighbors(sample, 3)
        assert narrow.scene.positions.shape[0] == 3
        assert narrow.scene.channel_mask.all()
        wide = data_mod.retarget_neighbors(sample, 10)
        assert wide.scene.positions.shape[0] == 10
        assert wide.scene.channel_mask.sum() == 6
        np.testing.assert_array_equal(wide.scene.positions[0],
                                      sample.scene.positions[0])
