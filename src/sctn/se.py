"""Squeeze-and-excitation attention over agent channels.

Each of the N agent channels is pooled to one number (squeeze), gated through
a two-layer bottleneck with ReLU then sigmoid (excite), and the resulting
per-channel weight rescales the channel (scale). Sigmoid output is strictly
inside (0, 1), so the block can only attenuate channels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


REDUCTION = 2  # channels per unit of the excite bottleneck


def bottleneck_width(n_channels):
    return max(1, n_channels // REDUCTION)


@dataclass
class SEWeights:
    w1: Tensor  # N x bottleneck_width(N)
    w2: Tensor  # bottleneck_width(N) x N


def squeeze(e):
    """Global average pool per channel: N x T x d -> N-vector."""
    if e.ndim != 3:
        raise ShapeError(f"squeeze expects N x T x d input, got {e.shape}")
    return ad.mean(e, axis=(1, 2))


def excite(z, weights):
    """sigmoid(w2 relu(w1 z)); every output lies strictly in (0, 1)."""
    row = ad.reshape(z, (1, z.shape[0]))
    hidden = ad.relu(ad.matmul(row, weights.w1))
    s = ad.sigmoid(ad.matmul(hidden, weights.w2))
    return ad.reshape(s, (z.shape[0],))


def se_pass(e, weights, channel_mask):
    """Full squeeze -> excite -> scale pass, shape preserving.

    Padded (absent-agent) channels, False in channel_mask, contribute zero to
    the squeeze so that values inside them can never influence real channels;
    the weights they receive are inert because their outputs are masked
    downstream.
    """
    z = ad.mul(squeeze(e), Tensor(np.asarray(channel_mask, dtype=e.dtype)))
    return ad.scale_channels(e, excite(z, weights))
