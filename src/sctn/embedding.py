"""Coordinate embedding and sinusoidal position encoding.

Raw (x, y) points are lifted to model dimension D by a linear map, then each
timestep receives a fixed sinusoid row: entry d (1-based, d = 1..D) of row t
is sin(t / 10000^(d/D)) when d is even and cos(t / 10000^(d/D)) when d is odd.
Note the exponent is d/D for every d, so adjacent entries are not sin/cos
pairs at a shared frequency; the formula is implemented as written.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DataError


def positional_encoding(t, model_dim):
    """Sinusoid rows for timesteps t (>= 0): a length-D vector for an int t,
    a ... x D array for an array of timesteps."""
    t = np.asarray(t, dtype=np.float64)
    if (t < 0).any():
        raise ConfigError("timestep index must be >= 0")
    d = np.arange(1, model_dim + 1, dtype=np.float64)
    angle = t[..., None] / np.power(10000.0, d / model_dim)
    return np.where(d % 2 == 0, np.sin(angle), np.cos(angle))


@dataclass
class EmbeddingWeights:
    mlp_w: Tensor  # 2 x D
    mlp_b: Tensor  # D


def embed_trajectory(points, weights):
    """Affine map (x, y) -> D-vector per timestep. points: ... x 2."""
    pts = points if isinstance(points, Tensor) else Tensor(np.asarray(points))
    if not np.all(np.isfinite(pts.data)):
        raise DataError("non-finite trajectory coordinates")
    return ad.add(ad.matmul(pts, weights.mlp_w), weights.mlp_b)


def compose_input(points, weights, table, start_t=0, dtype=np.float64):
    """Embed an N x T x 2 scene and add the position row for each timestep.

    table holds the rows of positional_encoding from timestep 0 on. The same
    row P^t goes to every agent channel; start_t offsets the timestep index
    (decoder-side sequences continue from T_obs).
    """
    points = np.asarray(points)
    n, t = points.shape[0], points.shape[1]
    emb = embed_trajectory(Tensor(points.astype(dtype)), weights)
    pos = table[start_t:start_t + t].astype(dtype)
    pos_block = Tensor(np.broadcast_to(pos[None, :, :], (n, t, pos.shape[1])).copy())
    return ad.add(emb, pos_block)
