"""Attention machinery: scaled dot-product attention, multi-head attention,
position-wise feed-forward, and the residual Add -> Dropout -> Norm wrapper.

All entry points accept either single sequences (T x D) or a batch of agent
channels (N x T x D); batching rides on the engine's rank-3 matmul.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import MaskError, ShapeError

MASK_FILL = -1e9


@dataclass
class MultiHeadWeights:
    """Per-head query/key/value projections plus the output projection."""
    w_q: list = field(default_factory=list)  # h tensors, D x d_k
    w_k: list = field(default_factory=list)
    w_v: list = field(default_factory=list)
    w_o: Tensor = None                       # D x D


@dataclass
class FeedForwardWeights:
    w1: Tensor = None  # D x ffn_dim
    b1: Tensor = None  # ffn_dim
    w2: Tensor = None  # ffn_dim x D
    b2: Tensor = None  # D


def _mask_tensor(mask, dtype):
    """Boolean mask (True = may attend) -> additive fill for blocked slots."""
    m = np.asarray(mask, dtype=bool)
    if not m.any(axis=-1).all():
        raise MaskError("attention mask blocks every key for some query row")
    return Tensor(np.where(m, 0.0, MASK_FILL).astype(dtype))


def causal_mask(t):
    """Lower-triangular-plus-diagonal boolean mask of shape t x t."""
    return np.tril(np.ones((t, t), dtype=bool))


def scaled_dot_attention(q, k, v, mask=None):
    """softmax(q kT / sqrt(d_k) + mask) v.

    q: ... x T_q x d_k, k: ... x T_k x d_k, v: ... x T_k x d_v.
    mask: boolean T_q x T_k (True = attend), broadcast over leading axes.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key dims differ: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value lengths differ: {k.shape} vs {v.shape}")
    scores = ad.scalar_mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        fill = _mask_tensor(mask, scores.dtype)
        if fill.ndim < scores.ndim:
            fill = ad.reshape(fill, (1,) * (scores.ndim - fill.ndim) + fill.shape)
            fill = Tensor(np.broadcast_to(fill.data, scores.shape).copy())
        scores = ad.add(scores, fill)
    weights = ad.softmax(scores, axis=-1)
    return ad.matmul(weights, v)


def multi_head_attention(x_q, x_kv, weights, mask=None):
    """h parallel attention heads over learned projections, concatenated and
    reprojected. Output has the shape of x_q."""
    model_dim = weights.w_o.shape[-1]
    if x_q.shape[-1] != model_dim or x_kv.shape[-1] != model_dim:
        raise ShapeError(
            f"inputs must have feature dim {model_dim}: {x_q.shape}, {x_kv.shape}")
    return attend_heads(project_heads(x_q, weights.w_q), project_heads(x_kv, weights.w_k),
                        project_heads(x_kv, weights.w_v), weights, mask=mask)


def project_heads(x, head_weights):
    """x projected by each head's D x d_k matrix: a list of h tensors."""
    return [ad.matmul(x, w) for w in head_weights]


def attend_heads(queries, keys, values, weights, mask=None):
    """Scaled dot-product attention per head, concatenated and reprojected by
    w_o. Keys and values may come from a cache of earlier projections."""
    heads = [scaled_dot_attention(q, k, v, mask=mask)
             for q, k, v in zip(queries, keys, values)]
    return ad.matmul(ad.concat_last(heads), weights.w_o)


def feed_forward(x, weights):
    """max(0, x w1 + b1) w2 + b2, applied position-wise."""
    hidden = ad.relu(ad.add(ad.matmul(x, weights.w1), weights.b1))
    return ad.add(ad.matmul(hidden, weights.w2), weights.b2)


def residual_sublayer(x, sublayer_output, gain, bias, dropout_rate=0.0,
                      training=False, rng=None):
    """Post-norm residual wrapper: layer_norm(x + dropout(sublayer_output))."""
    if x.shape != sublayer_output.shape:
        raise ShapeError(f"residual shapes differ: {x.shape} vs {sublayer_output.shape}")
    branch = ad.dropout(sublayer_output, dropout_rate, training, rng)
    return ad.layer_norm(ad.add(x, branch), gain, bias)
