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
    losses=[[0.397441781, 0.645352125],
            [0.619796796, 0.194558389],
            [0.142399433, 0.057831265]],
    metrics=[[1.0, 1.162892, 1.88226, 1.342116],
             [2.0, 1.919744, 3.304886, 2.486828],
             [3.0, 2.836161, 5.616916, 3.899476],
             [4.0, 3.901934, 8.101792, 5.460604],
             [5.0, 5.042076, 10.597352, 7.102864]],
    known_sha256="69fa57d9a460095df04ca9e80331caca5a33e92c940e6bb12eff55ece643994d",
    predicted={"0@19": [0.677766, 0.140803],
               "0@24": [-0.050865, 1.748258],
               "0@29": [-0.221492, 3.92056],
               "0@34": [-0.645216, 6.379949],
               "0@39": [-1.037637, 8.79307],
               "1@19": [0.505902, -0.145391],
               "1@24": [-0.289446, 1.077755],
               "1@29": [-0.463213, 2.77529],
               "1@34": [-0.90777, 4.952913],
               "1@39": [-1.303155, 7.111347],
               "2@19": [1.965774, -3.680593],
               "2@24": [2.870118, -4.927995],
               "2@29": [4.190179, -6.388842],
               "2@34": [5.363157, -7.751332],
               "2@39": [6.628187, -9.143508]},
    norms={"embed/w": 2.50493223,
           "embed/b": 0.0531322082,
           "se_enc/w1": 0.490829519,
           "se_enc/w2": 0.902124633,
           "enc0/attn/wq": 2.25567713,
           "enc0/attn/wk": 2.30684911,
           "enc0/attn/wv": 2.36499936,
           "enc0/attn/wo": 2.21350898,
           "enc0/attn_norm/gain": 4.00829148,
           "enc0/attn_norm/bias": 0.0730698032,
           "enc0/ffn/w1": 4.78240845,
           "enc0/ffn/b1": 0.145099581,
           "enc0/ffn/w2": 2.31118456,
           "enc0/ffn/b2": 0.0725601192,
           "enc0/ffn_norm/gain": 4.01338378,
           "enc0/ffn_norm/bias": 0.0720088982,
           "enc1/attn/wq": 2.21184171,
           "enc1/attn/wk": 2.30159344,
           "enc1/attn/wv": 2.43185987,
           "enc1/attn/wo": 2.32415022,
           "enc1/attn_norm/gain": 4.02176489,
           "enc1/attn_norm/bias": 0.0717377082,
           "enc1/ffn/w1": 4.80134571,
           "enc1/ffn/b1": 0.148241542,
           "enc1/ffn/w2": 2.36167867,
           "enc1/ffn/b2": 0.0692671439,
           "enc1/ffn_norm/gain": 4.01186994,
           "enc1/ffn_norm/bias": 0.0699882699,
           "dec0/self/wq": 2.33158117,
           "dec0/self/wk": 2.40263863,
           "dec0/self/wv": 2.29945922,
           "dec0/self/wo": 2.34477466,
           "dec0/self_norm/gain": 4.01840384,
           "dec0/self_norm/bias": 0.0447711248,
           "dec0/cross/wq": 2.30022861,
           "dec0/cross/wk": 2.37334651,
           "dec0/cross/wv": 2.33811842,
           "dec0/cross/wo": 2.25981191,
           "dec0/cross_norm/gain": 4.02137432,
           "dec0/cross_norm/bias": 0.0487506151,
           "dec0/ffn/w1": 4.63716652,
           "dec0/ffn/b1": 0.110006793,
           "dec0/ffn/w2": 2.32710922,
           "dec0/ffn/b2": 0.0338265429,
           "dec0/ffn_norm/gain": 4.00716451,
           "dec0/ffn_norm/bias": 0.0293690028,
           "dec1/self/wq": 2.27448239,
           "dec1/self/wk": 2.36148336,
           "dec1/self/wv": 2.22129773,
           "dec1/self/wo": 2.2840603,
           "dec1/self_norm/gain": 3.99932591,
           "dec1/self_norm/bias": 0.0385646079,
           "dec1/cross/wq": 2.36850193,
           "dec1/cross/wk": 2.36375705,
           "dec1/cross/wv": 2.31034016,
           "dec1/cross/wo": 2.38514456,
           "dec1/cross_norm/gain": 4.01354635,
           "dec1/cross_norm/bias": 0.0436854725,
           "dec1/ffn/w1": 4.69038091,
           "dec1/ffn/b1": 0.114723187,
           "dec1/ffn/w2": 2.30778832,
           "dec1/ffn/b2": 0.0506192006,
           "dec1/ffn_norm/gain": 3.92570785,
           "dec1/ffn_norm/bias": 0.0284290245,
           "out/w": 0.772133652,
           "out/b": 0.0172916446},
)


# The same cache trained for 2 epochs with dropout 0.1, the one golden run
# whose training draws dropout masks: it pins their order (in each layer,
# self-attention, then cross-attention, then feed-forward). Its figures were
# also recorded before the change that added it altered anything under src/.
DROPOUT_CFG = "model_dim = 16\nheads = 2\nlayers = 2\nepochs = 2\ndropout = 0.1\n"
DROPOUT_GOLDEN = dict(
    losses=[[0.3969932, 0.626014918], [0.591586717, 0.18582106]],
    norms={"embed/w": 2.49628426,
           "embed/b": 0.0457297167,
           "se_enc/w1": 0.489537923,
           "se_enc/w2": 0.892713188,
           "enc0/attn/wq": 2.24908168,
           "enc0/attn/wk": 2.30390042,
           "enc0/attn/wv": 2.35226228,
           "enc0/attn/wo": 2.20820956,
           "enc0/attn_norm/gain": 4.00478983,
           "enc0/attn_norm/bias": 0.0550207725,
           "enc0/ffn/w1": 4.76249964,
           "enc0/ffn/b1": 0.112781197,
           "enc0/ffn/w2": 2.28601824,
           "enc0/ffn/b2": 0.0545919897,
           "enc0/ffn_norm/gain": 4.0039544,
           "enc0/ffn_norm/bias": 0.0539320782,
           "enc1/attn/wq": 2.21118261,
           "enc1/attn/wk": 2.29365709,
           "enc1/attn/wv": 2.41054948,
           "enc1/attn/wo": 2.31329957,
           "enc1/attn_norm/gain": 4.01719166,
           "enc1/attn_norm/bias": 0.0545876798,
           "enc1/ffn/w1": 4.79083552,
           "enc1/ffn/b1": 0.111856075,
           "enc1/ffn/w2": 2.33740997,
           "enc1/ffn/b2": 0.0553850931,
           "enc1/ffn_norm/gain": 4.01338642,
           "enc1/ffn_norm/bias": 0.0498322689,
           "dec0/self/wq": 2.32151596,
           "dec0/self/wk": 2.3881158,
           "dec0/self/wv": 2.30107028,
           "dec0/self/wo": 2.34267752,
           "dec0/self_norm/gain": 4.01668179,
           "dec0/self_norm/bias": 0.0394563641,
           "dec0/cross/wq": 2.30960207,
           "dec0/cross/wk": 2.37616711,
           "dec0/cross/wv": 2.33597724,
           "dec0/cross/wo": 2.25933906,
           "dec0/cross_norm/gain": 4.01645855,
           "dec0/cross_norm/bias": 0.0397207115,
           "dec0/ffn/w1": 4.63031077,
           "dec0/ffn/b1": 0.092577668,
           "dec0/ffn/w2": 2.31840808,
           "dec0/ffn/b2": 0.0359305816,
           "dec0/ffn_norm/gain": 4.00902797,
           "dec0/ffn_norm/bias": 0.0350451683,
           "dec1/self/wq": 2.27127309,
           "dec1/self/wk": 2.35281987,
           "dec1/self/wv": 2.22453152,
           "dec1/self/wo": 2.28039964,
           "dec1/self_norm/gain": 4.00922227,
           "dec1/self_norm/bias": 0.0369258423,
           "dec1/cross/wq": 2.36560211,
           "dec1/cross/wk": 2.36140858,
           "dec1/cross/wv": 2.29672983,
           "dec1/cross/wo": 2.37157866,
           "dec1/cross_norm/gain": 4.01754624,
           "dec1/cross_norm/bias": 0.0420759646,
           "dec1/ffn/w1": 4.68731045,
           "dec1/ffn/b1": 0.0921023666,
           "dec1/ffn/w2": 2.30082994,
           "dec1/ffn/b2": 0.0440038194,
           "dec1/ffn_norm/gain": 3.94827154,
           "dec1/ffn_norm/bias": 0.0354423009,
           "out/w": 0.793222803,
           "out/b": 0.0190995738},
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
