"""Displacement-error metrics and horizon reporting.

ADE averages per-point Euclidean distances over agents and frames 1..T,
FDE looks at frame T only, and RMSE is the quadratic mean of per-point
Euclidean errors (squared error summed over both coordinates).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from .errors import UsageError
from .model import predict

# Published result shown next to our reports for comparison; never asserted.
REFERENCE_RESULT_5S = dict(ade=1.90, fde=4.66, rmse=3.16)

HORIZON_SECONDS = (1, 2, 3, 4, 5)
FRAMES_PER_SECOND = 5


def _distances(pred, truth, channel_mask, horizon_frames):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(channel_mask, dtype=bool)
    if pred.shape != truth.shape:
        raise UsageError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if not 1 <= horizon_frames <= pred.shape[1]:
        raise UsageError(f"horizon {horizon_frames} outside 1..{pred.shape[1]}")
    if not mask.any():
        raise UsageError("metrics over an all-masked scene")
    diff = pred[mask, :horizon_frames] - truth[mask, :horizon_frames]
    return np.hypot(diff[..., 0], diff[..., 1])  # n_real x horizon_frames


def ade(pred, truth, channel_mask, horizon_frames):
    """Mean Euclidean distance over real agents and frames 1..T."""
    return float(_distances(pred, truth, channel_mask, horizon_frames).mean())


def fde(pred, truth, channel_mask, horizon_frames):
    """Mean Euclidean distance over real agents at frame T only."""
    return float(_distances(pred, truth, channel_mask, horizon_frames)[:, -1].mean())


def rmse(pred, truth, channel_mask, horizon_frames):
    """Root of the mean squared Euclidean error over agents and frames 1..T."""
    d = _distances(pred, truth, channel_mask, horizon_frames)
    return float(np.sqrt((d ** 2).mean()))


@dataclass
class MetricsReport:
    """Per-horizon rows (seconds, ADE, FDE, RMSE), all in metres."""
    rows: list = field(default_factory=list)

    def validate(self):
        for row in self.rows:
            for key in ("ade", "fde", "rmse"):
                v = row[key]
                if not (np.isfinite(v) and v >= 0):
                    raise UsageError(f"invalid metric value {key}={v}")
        return True

    def to_csv(self):
        """The rows, then the published reference row as a comment."""
        lines = ["horizon_s,ade_m,fde_m,rmse_m"]
        for row in self.rows:
            lines.append(f"{row['horizon_s']},{row['ade']:.6f},"
                         f"{row['fde']:.6f},{row['rmse']:.6f}")
        ref = REFERENCE_RESULT_5S
        lines.append(f"# reference (published result, for comparison only): "
                     f"5s ADE {ref['ade']:.2f} / FDE {ref['fde']:.2f} / "
                     f"RMSE {ref['rmse']:.2f}")
        return "\n".join(lines) + "\n"


def evaluate(weights, samples, config):
    """Predict every segment and pool the three metrics per horizon over the
    real agents of all segments."""
    if not samples:
        raise UsageError("evaluate requires a non-empty test split")
    horizons = [s for s in HORIZON_SECONDS if s * FRAMES_PER_SECOND <= config.t_pred]
    dists = []
    for sample in samples:
        scene = sample.scene
        pred = predict(scene, weights, config)
        truth = scene.future(config.t_obs)
        dists.append(_distances(data_mod.denormalize_points(pred, scene.origin),
                                data_mod.denormalize_points(truth, scene.origin),
                                scene.channel_mask, config.t_pred))
    d_all = np.concatenate(dists)  # real agents of every segment x T_pred
    rows = []
    for h in horizons:
        d = d_all[:, :h * FRAMES_PER_SECOND]
        rows.append(dict(horizon_s=h, ade=float(d.mean()), fde=float(d[:, -1].mean()),
                         rmse=float(np.sqrt((d ** 2).mean()))))
    report = MetricsReport(rows=rows)
    report.validate()
    return report
