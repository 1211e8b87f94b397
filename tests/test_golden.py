"""Golden runs. A change that means to keep behaviour shows that it does.

The `prepare` run pins the segment cache written for a fixed log by its
SHA-256, so the data path is held bit for bit, and pins what that cache
loads back as by GOLDEN_CONTENT_SHA256, so a change to the cache's layout
alone moves GOLDEN_SHA256 and nothing else.

The log is built here, from integer arithmetic only, so it is the same on
every platform. It holds vehicles on both frame parities, vehicles that enter
and leave in the middle of other vehicles' windows, a vehicle with a gap, an
exact distance tie competing for the last channel, and more vehicles at the
anchor frame than there are channels. A change that is meant to alter
`prepare` output (for example a shared 5 Hz grid) updates GOLDEN_SHA256,
GOLDEN_CONTENT_SHA256 and GOLDEN_MANIFEST and says why.

`PYTHONPATH=src python tests/test_golden.py` reruns every golden run and
prints each pinned value in this file's layout, ready to replace the old one.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from sctn import checkpoint
from sctn.cli import main

GOLDEN_SHA256 = "bc17176505062b4bb2d1724286e3b9d10ba547e660326f7db9be52e46beb4a4d"
GOLDEN_CONTENT_SHA256 = "41fa8add974eb5d2b77b202765717c898ffc7d139d36acdb5f88b560de10589c"
GOLDEN_MANIFEST = ("segments total: 69\n"
                   "segments train: 48\n"
                   "segments validation: 7\n"
                   "segments test: 14\n"
                   "source 0: <log>\n")

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


def content_digest(split, log):
    """SHA-256 of a loaded split: per split, in order, its segment count and
    each segment's float32 positions, mask, float32 origin, target index,
    vehicle id, start frame and source (log written as <log>), then the seed."""
    digest = hashlib.sha256()
    for name in ("train", "validation", "test"):
        samples = getattr(split, name)
        digest.update(f"{name} {len(samples)}\n".encode())
        for sample in samples:
            scene = sample.scene
            digest.update(scene.positions.astype("<f4").tobytes())
            digest.update(scene.channel_mask.astype(np.uint8).tobytes())
            digest.update(scene.origin.astype("<f4").tobytes())
            digest.update(np.array([scene.target_index, sample.vehicle_id,
                                    sample.start_frame], dtype="<i8").tobytes())
            digest.update(sample.source_file.replace(str(log), "<log>").encode() + b"\n")
    digest.update(f"seed {split.seed}\n".encode())
    return digest.hexdigest()


def prepare_run(tmp_path):
    """The SHA-256 of the golden log's segment cache, the SHA-256 of what
    it loads back as, and its manifest."""
    log = tmp_path / "log.csv"
    write_log(log)
    out = tmp_path / "prep"
    assert main(["prepare", "--data", str(log), "--out", str(out), "--units", "feet",
                 "--neighbors", "5", "--seed", "0"]) == 0
    cache = out / "segments.sctn"
    return (hashlib.sha256(cache.read_bytes()).hexdigest(),
            content_digest(checkpoint.load_segment_cache(cache), log),
            (out / "segments.sctn.manifest").read_text().replace(str(log), "<log>"))


def test_prepare_output_is_pinned(tmp_path):
    assert prepare_run(tmp_path) == (GOLDEN_SHA256, GOLDEN_CONTENT_SHA256, GOLDEN_MANIFEST)


def test_ablate_cell_matches_train_then_evaluate(tmp_path):
    """An ablation cell is `sctn train` then `sctn evaluate` with its settings:
    it scores the held-out test split with the best-validation weights."""
    log = tmp_path / "log.csv"
    write_log(log)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model_dim = 16\nheads = 2\nlayers = 1\nepochs = 1\n"
                   "ablation_neighbors = 5\nablation_epochs = 1\n")
    cache = tmp_path / "prep" / "segments.sctn"

    def run(*argv):
        assert main([str(a) for a in [*argv, "--config", cfg]]) == 0

    run("prepare", "--data", log, "--out", cache.parent, "--units", "feet",
        "--neighbors", "5", "--seed", "0")
    expected = {}
    for se in ("on", "off"):
        run("train", "--data", cache, "--se", se, "--out", tmp_path / f"train_{se}")
        run("evaluate", "--data", cache, "--checkpoint", tmp_path / f"train_{se}" / "model.sctn",
            "--out", tmp_path / f"eval_{se}")
        lines = (tmp_path / f"eval_{se}" / "metrics.csv").read_text().splitlines()
        expected[se] = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    run("ablate", "--data", cache, "--out", tmp_path / "abl")
    lines = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()[1:]
    cells = [line.split(",") for line in lines]
    for se in ("on", "off"):
        rows = [cell[2:6] for cell in cells if cell[:2] == ["5", se]]
        assert len(rows) == 5 and rows == expected[se], se


# The trained run: `synth --seed 3 --count 16 --kind interaction`, then
# `train` (D = 16, 2 heads, 2 layers, 3 epochs, float32), `evaluate` and
# `predict --segment 2`. Its figures were recorded before the change that
# added this test altered anything under src/. Float32 training on another
# BLAS may differ in the last bits, hence the tolerance.
TRAINED_CFG = "model_dim = 16\nheads = 2\nlayers = 2\nepochs = 3\n"
TRAINED_REL = 1e-5
TRAINED_ABS = 1e-5  # metres, for predicted points near 0
TRAINED_GOLDEN = dict(
    losses=[[30.1059696, 25.195797], [24.0830064, 22.9678078], [21.3839762, 21.5337772]],
    metrics=[[1.0, 4.03203, 4.653945, 5.442182],
             [2.0, 4.737921, 5.945594, 6.334772],
             [3.0, 5.511428, 7.986224, 7.251987],
             [4.0, 6.514247, 10.542695, 8.322498],
             [5.0, 7.605999, 12.9362, 9.475189]],
    known_sha256="69fa57d9a460095df04ca9e80331caca5a33e92c940e6bb12eff55ece643994d",
    predicted={"0@19": [0.45454, -1.14869],
               "0@24": [-1.674269, -2.48708],
               "0@29": [-1.756488, -2.53452],
               "0@34": [-2.133963, -2.356003],
               "0@39": [-1.951753, -2.46481],
               "1@19": [-1.418322, -2.569043],
               "1@24": [-2.111817, -2.390392],
               "1@29": [-1.989283, -2.477721],
               "1@34": [-2.249229, -2.327748],
               "1@39": [-2.062295, -2.435373],
               "2@19": [-0.95983, -2.420278],
               "2@24": [-2.31248, -2.126372],
               "2@29": [-2.074393, -2.319592],
               "2@34": [-2.515668, -1.826802],
               "2@39": [-2.233818, -2.159879]},
    norms={"embed/w": 2.48139469,
           "embed/b": 0.0822403185,
           "se_enc/w1": 0.493529487,
           "se_enc/w2": 0.85853864,
           "enc0/attn/wq": 2.29788362,
           "enc0/attn/wk": 2.3636808,
           "enc0/attn/wv": 2.34772438,
           "enc0/attn/wo": 2.24735829,
           "enc0/attn_norm/gain": 3.99294474,
           "enc0/attn_norm/bias": 0.0842900434,
           "enc0/ffn/w1": 4.77122567,
           "enc0/ffn/b1": 0.156334467,
           "enc0/ffn/w2": 2.35601345,
           "enc0/ffn/b2": 0.079787238,
           "enc0/ffn_norm/gain": 3.98881101,
           "enc0/ffn_norm/bias": 0.0792307959,
           "enc1/attn/wq": 2.25158088,
           "enc1/attn/wk": 2.30137389,
           "enc1/attn/wv": 2.37396958,
           "enc1/attn/wo": 2.28832538,
           "enc1/attn_norm/gain": 3.98822517,
           "enc1/attn_norm/bias": 0.0823777396,
           "enc1/ffn/w1": 4.81884096,
           "enc1/ffn/b1": 0.154643397,
           "enc1/ffn/w2": 2.37365922,
           "enc1/ffn/b2": 0.0721727458,
           "enc1/ffn_norm/gain": 3.95845024,
           "enc1/ffn_norm/bias": 0.0617064121,
           "dec0/self/wq": 2.3209314,
           "dec0/self/wk": 2.38479452,
           "dec0/self/wv": 2.31517162,
           "dec0/self/wo": 2.33769229,
           "dec0/self_norm/gain": 4.02082493,
           "dec0/self_norm/bias": 0.0887393541,
           "dec0/cross/wq": 2.32591772,
           "dec0/cross/wk": 2.41373094,
           "dec0/cross/wv": 2.28839563,
           "dec0/cross/wo": 2.22524159,
           "dec0/cross_norm/gain": 4.01821979,
           "dec0/cross_norm/bias": 0.0877063269,
           "dec0/ffn/w1": 4.68007532,
           "dec0/ffn/b1": 0.187890941,
           "dec0/ffn/w2": 2.41130449,
           "dec0/ffn/b2": 0.0826861634,
           "dec0/ffn_norm/gain": 4.00772107,
           "dec0/ffn_norm/bias": 0.0816557149,
           "dec1/self/wq": 2.26876795,
           "dec1/self/wk": 2.37483623,
           "dec1/self/wv": 2.20248842,
           "dec1/self/wo": 2.26631807,
           "dec1/self_norm/gain": 4.00329522,
           "dec1/self_norm/bias": 0.0829760551,
           "dec1/cross/wq": 2.39062215,
           "dec1/cross/wk": 2.36552164,
           "dec1/cross/wv": 2.31494629,
           "dec1/cross/wo": 2.35316497,
           "dec1/cross_norm/gain": 4.01014462,
           "dec1/cross_norm/bias": 0.0822347601,
           "dec1/ffn/w1": 4.73193959,
           "dec1/ffn/b1": 0.184992739,
           "dec1/ffn/w2": 2.39331726,
           "dec1/ffn/b2": 0.0820729593,
           "dec1/ffn_norm/gain": 4.06232754,
           "dec1/ffn_norm/bias": 0.112286883,
           "out/w": 0.913209807,
           "out/b": 0.0404203458},
)


# The same cache trained for 2 epochs with dropout 0.1, the one golden run
# whose training draws dropout masks: it pins their order (in each layer,
# self-attention, then cross-attention, then feed-forward). Its figures were
# also recorded before the change that added it altered anything under src/.
DROPOUT_CFG = "model_dim = 16\nheads = 2\nlayers = 2\nepochs = 2\ndropout = 0.1\n"
DROPOUT_GOLDEN = dict(
    losses=[[30.1401828, 25.1966496], [24.2602336, 23.0039835]],
    norms={"embed/w": 2.48421864,
           "embed/b": 0.0636046584,
           "se_enc/w1": 0.495595841,
           "se_enc/w2": 0.854556092,
           "enc0/attn/wq": 2.28118359,
           "enc0/attn/wk": 2.33431696,
           "enc0/attn/wv": 2.34387982,
           "enc0/attn/wo": 2.23874305,
           "enc0/attn_norm/gain": 3.9946291,
           "enc0/attn_norm/bias": 0.0650449027,
           "enc0/ffn/w1": 4.76241874,
           "enc0/ffn/b1": 0.118770299,
           "enc0/ffn/w2": 2.32367207,
           "enc0/ffn/b2": 0.0587378883,
           "enc0/ffn_norm/gain": 3.98879736,
           "enc0/ffn_norm/bias": 0.0587716845,
           "enc1/attn/wq": 2.227159,
           "enc1/attn/wk": 2.28150997,
           "enc1/attn/wv": 2.38065036,
           "enc1/attn/wo": 2.2915781,
           "enc1/attn_norm/gain": 3.98495388,
           "enc1/attn_norm/bias": 0.0617714068,
           "enc1/ffn/w1": 4.79367992,
           "enc1/ffn/b1": 0.121088528,
           "enc1/ffn/w2": 2.3463839,
           "enc1/ffn/b2": 0.0575445086,
           "enc1/ffn_norm/gain": 3.97361343,
           "enc1/ffn_norm/bias": 0.0526837651,
           "dec0/self/wq": 2.30908145,
           "dec0/self/wk": 2.37588185,
           "dec0/self/wv": 2.30122773,
           "dec0/self/wo": 2.32349283,
           "dec0/self_norm/gain": 4.01211706,
           "dec0/self_norm/bias": 0.0684388863,
           "dec0/cross/wq": 2.31141199,
           "dec0/cross/wk": 2.39359187,
           "dec0/cross/wv": 2.29353552,
           "dec0/cross/wo": 2.22901377,
           "dec0/cross_norm/gain": 4.01156052,
           "dec0/cross_norm/bias": 0.0679057573,
           "dec0/ffn/w1": 4.64838616,
           "dec0/ffn/b1": 0.140491623,
           "dec0/ffn/w2": 2.35456197,
           "dec0/ffn/b2": 0.0653771194,
           "dec0/ffn_norm/gain": 4.00366787,
           "dec0/ffn_norm/bias": 0.0649134843,
           "dec1/self/wq": 2.2601452,
           "dec1/self/wk": 2.35581882,
           "dec1/self/wv": 2.20172389,
           "dec1/self/wo": 2.26654848,
           "dec1/self_norm/gain": 3.99965278,
           "dec1/self_norm/bias": 0.0648620666,
           "dec1/cross/wq": 2.36351871,
           "dec1/cross/wk": 2.35877744,
           "dec1/cross/wv": 2.2992151,
           "dec1/cross/wo": 2.35859856,
           "dec1/cross_norm/gain": 4.0075333,
           "dec1/cross_norm/bias": 0.0643677743,
           "dec1/ffn/w1": 4.69044179,
           "dec1/ffn/b1": 0.137017533,
           "dec1/ffn/w2": 2.33900978,
           "dec1/ffn/b2": 0.0644892985,
           "dec1/ffn_norm/gain": 4.03264179,
           "dec1/ffn_norm/bias": 0.0774613464,
           "out/w": 0.878595477,
           "out/b": 0.0276940655},
)


def _figure(value):
    return float(f"{float(value):.9g}")


def trained_run(tmp_path, cfg_text=TRAINED_CFG, scored=True):
    """The pinned figures of a trained run: (train, val) loss per epoch and,
    if scored, metrics.csv rows, the obs/gt rows of trajectories.csv by
    SHA-256 and the predicted point of each agent at each whole second; then
    the L2 norm of every checkpoint tensor."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    cache = tmp_path / "synth" / "segments.sctn"
    ckpt = tmp_path / "train" / "model.sctn"
    commands = [["synth", "--seed", "3", "--count", "16", "--kind", "interaction",
                 "--out", cache.parent],
                ["train", "--data", cache, "--out", ckpt.parent]]
    if scored:
        commands += [["evaluate", "--data", cache, "--checkpoint", ckpt,
                      "--out", tmp_path / "eval"],
                     ["predict", "--data", cache, "--checkpoint", ckpt, "--segment", "2",
                      "--out", tmp_path / "pred"]]
    for argv in commands:
        assert main([str(a) for a in [*argv, "--config", cfg]]) == 0
    log = (ckpt.parent / "run_log.csv").read_text().splitlines()[1:]
    figures = dict(losses=[[_figure(v) for v in line.split(",")[1:3]] for line in log])
    if scored:
        metrics = (tmp_path / "eval" / "metrics.csv").read_text().splitlines()[1:-1]
        traj = (tmp_path / "pred" / "trajectories.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in traj]
        known = "\n".join(line for line, row in zip(traj, rows) if row[2] != "pred")
        figures.update(
            metrics=[[_figure(v) for v in line.split(",")] for line in metrics],
            known_sha256=hashlib.sha256(known.encode()).hexdigest(),
            predicted={f"{row[1]}@{row[3]}": [_figure(row[4]), _figure(row[5])]
                       for row in rows if row[2] == "pred" and (int(row[3]) - 14) % 5 == 0})
    weights = checkpoint.load_model_checkpoint(ckpt)
    figures["norms"] = {name: _figure(np.linalg.norm(t.data.astype(np.float64)))
                        for name, t in weights.registry.items()}
    return figures


def _assert_pinned(observed, expected):
    assert list(observed) == list(expected)
    for key, want in expected.items():
        got = observed[key]
        if isinstance(want, str):
            assert got == want, key
            continue
        if isinstance(want, dict):
            assert list(got) == list(want), key
            got, want = list(got.values()), list(want.values())
        np.testing.assert_allclose(got, want, rtol=TRAINED_REL, atol=TRAINED_ABS,
                                   err_msg=key)


def test_train_evaluate_predict_outputs_are_pinned(tmp_path):
    _assert_pinned(trained_run(tmp_path), TRAINED_GOLDEN)


def test_dropout_training_is_pinned(tmp_path):
    _assert_pinned(trained_run(tmp_path, DROPOUT_CFG, scored=False), DROPOUT_GOLDEN)


def _source(name, value):
    """`name = value` as this file writes it: a string manifest one line per
    source line, a dict of figures one entry per line, and a list of rows on
    one line when it fits, else one row per line."""
    if isinstance(value, str):
        lines = [json.dumps(line) for line in value.splitlines(keepends=True)]
        if len(lines) == 1:
            return f"{name} = {lines[0]}"
        return f"{name} = (" + f"\n{' ' * (len(name) + 4)}".join(lines) + ")"

    def block(head, opener, items, closer):
        one_line = f"{head}{opener}{', '.join(items)}{closer}"
        if len(one_line) <= 92:
            return one_line
        return f"{head}{opener}" + f",\n{' ' * (len(head) + 1)}".join(items) + closer

    entries = []
    for key, pins in value.items():
        if isinstance(pins, str):
            entries.append(f"    {key}={json.dumps(pins)},")
        elif isinstance(pins, dict):
            items = [f"{json.dumps(k)}: {v!r}" for k, v in pins.items()]
            entries.append(block(f"    {key}=", "{", items, "},"))
        else:
            entries.append(block(f"    {key}=", "[", [repr(row) for row in pins], "],"))
    return "\n".join([f"{name} = dict(", *entries, ")"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        digest, content, manifest = prepare_run(tmp)
        for run in ("trained", "dropout"):
            (tmp / run).mkdir()
        pins = dict(GOLDEN_SHA256=digest, GOLDEN_CONTENT_SHA256=content,
                    GOLDEN_MANIFEST=manifest,
                    TRAINED_GOLDEN=trained_run(tmp / "trained"),
                    DROPOUT_GOLDEN=trained_run(tmp / "dropout", DROPOUT_CFG, scored=False))
    for name, value in pins.items():
        print(_source(name, value))
