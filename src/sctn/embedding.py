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
from .errors import ConfigError


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


def compose_input(points, weights, table, start_t=0):
    """Embed an N x T x 2 scene and add the position row for each timestep.

    The points are cast to the dtype of table, which holds the rows of
    positional_encoding from timestep 0 on, and lifted to D by the affine map
    of weights. The same row P^t goes to every agent channel; start_t offsets
    the timestep index (decoder-side sequences continue from T_obs).
    """
    points = np.asarray(points, dtype=table.dtype)
    n, t = points.shape[0], points.shape[1]
    emb = ad.matmul(Tensor(points), weights.mlp_w, weights.mlp_b)
    pos = table[start_t:start_t + t]
    return ad.add(emb, Tensor(np.broadcast_to(pos, (n, t, pos.shape[1]))))
