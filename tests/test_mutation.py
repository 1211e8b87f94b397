"""Bounded mutation test: a damaged input ends in a worded exit code.

Each example damages one input of the pipeline: the CSV log, the --config
file, the segment cache or its .manifest, or the checkpoint or its .config.
The damage is a truncation, a flipped bit, inserted bytes or a quoted
newline. Every example then runs `prepare`, `train --epochs 1`, `evaluate`
and `predict` through `cli.main` in process. Each must return 0-3 with no
escaping exception, and write at most one stderr line, the worded error of
its exit code.
"""
import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sctn.cli import main

CONFIG = """\
n_agents = 3
model_dim = 8
heads = 2
layers = 1
batch_size = 4
"""

# input -> its path under the run directory
INPUTS = {
    "log": "log.csv",
    "config": "run.cfg",
    "cache": "cache/segments.sctn",
    "manifest": "cache/segments.sctn.manifest",
    "checkpoint": "train/model.sctn",
    "sidecar": "train/model.sctn.config",
}
KINDS = ("truncate", "flip", "insert", "quoted newline")
WORDED = {1: "usage error:", 2: "data error:", 3: "numeric error:"}


def _log_text():
    """Three vehicles side by side over 100 frames at 10 Hz: three windows
    each at 5 Hz."""
    rows = ["vehicle_id,frame_id,local_x,local_y"]
    for vid in (1, 2, 3):
        rows += [f"{vid},{frame},{4 * vid}.5,{frame * (1 + vid)}.25" for frame in range(100)]
    return "\n".join(rows) + "\n"


def _commands(root):
    data, ckpt = root / INPUTS["cache"], root / INPUTS["checkpoint"]
    return [["prepare", "--data", root / INPUTS["log"]],
            ["train", "--data", data, "--epochs", "1"],
            ["evaluate", "--data", data, "--checkpoint", ckpt],
            ["predict", "--data", data, "--checkpoint", ckpt]]


def _run(root, argv, out):
    """Exit code and stderr lines of one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in [*argv, "--config", root / INPUTS["config"],
                                      "--out", root / out]])
    return code, stderr.getvalue().splitlines()


@pytest.fixture(scope="module")
def pristine():
    """A run directory holding every input, each made by the CLI from the
    log and the config."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / INPUTS["log"]).write_text(_log_text())
        (root / INPUTS["config"]).write_text(CONFIG)
        assert _run(root, ["prepare", "--data", root / INPUTS["log"]], "cache") == (0, [])
        assert _run(root, ["train", "--data", root / INPUTS["cache"], "--epochs", "1"],
                    "train") == (0, [])
        yield root


def mutate(blob, kind, at, bit, extra):
    """blob damaged by kind at byte at (taken modulo its length)."""
    at %= len(blob) + 1
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        at = min(at, len(blob) - 1)
        return blob[:at] + bytes([blob[at] ^ 1 << bit]) + blob[at + 1:]
    if kind == "quoted newline":
        # at the start of a field: after a comma, if the input has one
        commas = [i + 1 for i, byte in enumerate(blob) if byte == ord(",")]
        at = commas[at % len(commas)] if commas else at
        extra = b'"\n"'
    return blob[:at] + extra + blob[at:]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(INPUTS)), kind=st.sampled_from(KINDS),
       at=st.integers(0, 1 << 20), bit=st.integers(0, 7),
       extra=st.binary(min_size=1, max_size=8))
@example(name="sidecar", kind="insert", at=5, bit=0, extra=b"\xff")
@example(name="manifest", kind="flip", at=3, bit=7, extra=b"\x00")
@example(name="log", kind="quoted newline", at=7, bit=0, extra=b"\x00")
@example(name="cache", kind="truncate", at=40, bit=0, extra=b"\x00")
@example(name="checkpoint", kind="insert", at=4, bit=0, extra=b"\x01")
@example(name="config", kind="truncate", at=7, bit=0, extra=b"\x00")
def test_damaged_input_ends_in_a_worded_exit_code(pristine, name, kind, at, bit, extra):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel in INPUTS.values():
            (root / rel).parent.mkdir(exist_ok=True)
            shutil.copyfile(pristine / rel, root / rel)
        path = root / INPUTS[name]
        path.write_bytes(mutate(path.read_bytes(), kind, at, bit, extra))
        for i, argv in enumerate(_commands(root)):
            code, err = _run(root, argv, f"out{i}")
            assert code in (0, 1, 2, 3), (argv[0], code, err)
            assert len(err) <= 1, (argv[0], err)
            if code:
                assert err and err[0].startswith(WORDED[code]), (argv[0], code, err)
            else:
                assert not err, (argv[0], err)
