"""Binary tensor container used for checkpoints and segment caches.

Layout: magic "SCTN", format version (u16 LE), entry count (u32 LE), then per
entry a length-prefixed name (u16 + utf-8), rank (u8), dims (u32 each) and a
payload offset (u64, bytes from payload start); after the manifest come the
flat little-endian float32 payloads. Seekable and diffable by manifest.

A load is one read: the manifest, then the whole payload with one readinto
into one float32 array, whose aligned views are the loaded tensors. A
checkpoint's weights are built from those views with no random init, so a
float32 model's parameters share that one buffer; training never writes a
parameter in place (adam_step gives each a new array). The text files
beside a container, its .manifest and .config, are UTF-8; a byte that is
not is a DataError naming the file and its offset.
"""
from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from . import config as config_mod, data as data_mod
from .errors import ConfigError, DataError, open_input, read_text
from .model import ModelConfig, ModelWeights, Scene

MAGIC = b"SCTN"
VERSION = 1


def save_tensors(path, tensors):
    """Write an ordered {name: ndarray} mapping; payloads stored as float32."""
    arrays = [np.atleast_1d(arr) for arr in tensors.values()]  # a scalar is stored as (1,)
    manifest = [MAGIC, struct.pack("<HI", VERSION, len(arrays))]
    offset = 0
    for name, arr in zip(tensors, arrays):
        raw = name.encode("utf-8")
        manifest.append(struct.pack(f"<H{len(raw)}sB{arr.ndim}IQ",
                                    len(raw), raw, arr.ndim, *arr.shape, offset))
        offset += 4 * arr.size
    head = b"".join(manifest)
    # each payload is cast to float32 in place in the one buffer written, so
    # the file's bytes are held once
    blob = bytearray(len(head) + offset)
    blob[:len(head)] = head
    start = len(head)
    for arr in arrays:
        np.frombuffer(blob, dtype="<f4", count=arr.size, offset=start)[:] = arr.ravel()
        start += 4 * arr.size
    with open(path, "wb") as fh:
        fh.write(blob)


def load_tensors(path):
    """Read a container back into an ordered {name: float32 ndarray} mapping.

    The manifest is read first, then the whole payload with one readinto
    into one float32 array; each entry is a writable, aligned view of that
    array, and no two entries of a container save_tensors wrote share an
    element. An offset that is not a multiple of 4 cannot be viewed and is
    a DataError."""
    with open_input(path, "tensor container") as fh:
        if fh.read(4) != MAGIC:
            raise DataError(f"{path}: bad magic bytes, not a tensor container")
        try:
            version, count = _unpack(fh, "<HI")
            if version != VERSION:
                raise DataError(f"{path}: unsupported container version {version}")
            entries = []
            for _ in range(count):
                (name_len,) = _unpack(fh, "<H")
                name, rank = _unpack(fh, f"<{name_len}sB")
                *shape, offset = _unpack(fh, f"<{rank}IQ")
                entries.append((name.decode("utf-8"), tuple(shape), offset))
        except (struct.error, UnicodeDecodeError):
            raise DataError(f"{path}: truncated or corrupt manifest") from None
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        payload = np.empty(-(-size // 4), dtype="<f4")
        if fh.readinto(memoryview(payload).cast("B")[:size]) != size:
            raise DataError(f"{path}: file changed while it was read")
    out = {}
    for name, shape, offset in entries:
        n = math.prod(shape)  # exact: np.prod wraps past 2**63 and passes the check
        if offset + 4 * n > size:
            raise DataError(f"{path}: payload of {name} runs past the end of the file")
        if offset % 4:
            raise DataError(f"{path}: payload of {name} starts at byte {offset} of the "
                            f"payload, not a multiple of 4")
        out[name] = payload[offset // 4:offset // 4 + n].reshape(shape)
    return out


def _unpack(fh, fmt):
    """struct.unpack of the next bytes of fh; struct.error if it runs short."""
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


# ---------------------------------------------------------------------------
# segment cache on top of the container
# ---------------------------------------------------------------------------

_SPLITS = ("train", "validation", "test")  # a segment's split code is its index


def save_segment_cache(path, split):
    """Serialize a DatasetSplit as four entries, one row per segment, train
    then validation then test: positions (S x N x T x 2), mask (S x N), meta
    (S x 7: target index, vehicle id, start frame, origin x and y, split
    code, source index) and split_seed, with a text manifest at path +
    '.manifest'. An empty or mixed-shape split is a DataError, writing nothing."""
    samples = split.all_samples()
    if not samples:
        raise DataError(f"{path}: segment cache holds no segments")
    first = samples[0].scene.positions.shape
    for i, sample in enumerate(samples):
        shape = sample.scene.positions.shape
        if shape != first:
            k = 0 if shape[0] != first[0] else 1
            raise DataError(f"segment {i} ({sample.source_file}, vehicle {sample.vehicle_id}, "
                            f"start {sample.start_frame}) has {shape[k]} "
                            f"{('agent channels', 'frames')[k]}, segment 0 has {first[k]}")
    files = list(dict.fromkeys(sample.source_file for sample in samples))
    meta = np.array([(sample.scene.target_index, sample.vehicle_id, sample.start_frame,
                      *sample.scene.origin, code, files.index(sample.source_file))
                     for code, name in enumerate(_SPLITS) for sample in getattr(split, name)])
    save_tensors(path, {
        "positions": np.stack([s.scene.positions for s in samples], dtype=np.float32),
        "mask": np.stack([s.scene.channel_mask for s in samples], dtype=np.float32),
        "meta": meta, "split_seed": np.array([float(split.seed)])})
    with open(str(path) + ".manifest", "w", encoding="utf-8") as fh:
        fh.write(f"segments total: {len(samples)}\n")
        for split_name in _SPLITS:
            fh.write(f"segments {split_name}: {len(getattr(split, split_name))}\n")
        for i, name in enumerate(files):
            fh.write(f"source {i}: {name}\n")


def load_segment_cache(path):
    """Rebuild the DatasetSplit stored by save_segment_cache. The stacked
    entries must agree in shape with each other and with the manifest's
    total, and its count for each split with the segments loaded; a fault
    in one row is a DataError naming its segment."""
    tensors = load_tensors(path)
    manifest = f"{path}.manifest"
    text = read_text(manifest, "segment cache manifest")
    lines = dict(line.rstrip("\n").partition(": ")[::2]
                 for line in io.StringIO(text, newline=None))
    total = lines.get("segments total", "")
    if not total.isdigit():
        raise DataError(f"{manifest}: no 'segments total' line")
    for name in ("positions", "mask", "meta", "split_seed"):
        if name not in tensors:
            raise DataError(f"{path}: no entry '{name}'")
    if int(total) == 0:
        raise DataError(f"{path}: segment cache holds no segments")
    shape = tensors["positions"].shape
    n, t = shape[1:3] if len(shape) == 4 else ("N", "T")
    for name, want in (("positions", (int(total), n, t, 2)), ("mask", (int(total), n)),
                       ("meta", (int(total), 7))):
        if tensors[name].shape != want:
            raise DataError(f"{path}: entry '{name}' has shape {tensors[name].shape}, not "
                            f"{' x '.join(map(str, want))} as 'segments total: {total}' implies")
    # one cast for the whole cache; each Scene keeps a view of its row
    positions, mask = tensors["positions"].astype(np.float64), tensors["mask"].astype(bool)
    split = data_mod.DatasetSplit(seed=int(tensors["split_seed"][0]))
    for i, row in enumerate(tensors["meta"].tolist()):
        try:
            split_name, sample = _read_segment(positions[i], mask[i], row, lines)
        except DataError as exc:
            raise DataError(f"{path}: segment {i}: {exc}") from None
        getattr(split, split_name).append(sample)
    for split_name in _SPLITS:
        stated = lines.get(f"segments {split_name}")
        count = len(getattr(split, split_name))
        if stated != str(count):
            raise DataError(f"{manifest}: 'segments {split_name}' reads {stated!r}, "
                            f"but {path} holds {count} {split_name} segments")
    return split


def _read_segment(positions, mask, meta, lines):
    """(split name, SegmentSample) of one cached row; lines maps each
    manifest key, such as 'source i', to its value."""
    if not all(map(math.isfinite, meta)):
        raise DataError(f"meta holds non-finite entries {meta}")
    target, vehicle, start, origin_x, origin_y, code, source = meta
    if code not in (0, 1, 2):
        raise DataError(f"split code {code:g} is not 0, 1 or 2")
    source = f"source {int(source)}"
    if source not in lines:
        raise DataError(f"no '{source}:' line in the manifest")
    scene = Scene(positions=positions, channel_mask=mask, target_index=int(target),
                  origin=np.array([origin_x, origin_y]))
    sample = data_mod.SegmentSample(scene=scene, source_file=lines[source],
                                    vehicle_id=int(vehicle), start_frame=int(start))
    return _SPLITS[int(code)], sample


# ---------------------------------------------------------------------------
# model checkpoints
# ---------------------------------------------------------------------------

def save_model_checkpoint(path, weights):
    """Container of all learnable tensors plus a key=value config sidecar."""
    # the live arrays, which save_tensors casts into the one buffer it
    # writes; state_dict() would copy each first and double the peak
    save_tensors(path, {name: t.data for name, t in weights.registry.items()})
    with open(str(path) + ".config", "w", encoding="utf-8") as fh:
        fh.write(config_mod.echo({key: getattr(weights.config, key)
                                  for key in config_mod.MODEL_SCHEMA}))


def load_model_checkpoint(path):
    """Rebuild ModelWeights from a checkpoint and its config sidecar, which
    must hold one line for every model key."""
    sidecar = str(path) + ".config"
    try:
        values = config_mod.parse_config_file(sidecar, config_mod.MODEL_SCHEMA,
                                              "checkpoint config sidecar")
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    missing = [key for key in config_mod.MODEL_SCHEMA if key not in values]
    if missing:
        raise DataError(f"{sidecar}: no line for model key {missing[0]}")
    try:
        config = ModelConfig(**values)
    except ConfigError as exc:
        raise DataError(f"{sidecar}: {exc}") from None
    state = load_tensors(path)
    try:
        weights = ModelWeights(config, state)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    # the test adam_step applies to every parameter it writes
    for name, t in weights.registry.items():
        if not math.isfinite(np.vdot(t.data, t.data)):
            raise DataError(f"{path}: parameter {name} is not finite or its squared "
                            f"norm overflows {t.dtype}")
    return weights
