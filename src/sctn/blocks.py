"""Attention machinery: scaled dot-product attention, multi-head attention,
position-wise feed-forward, and the residual Add -> Dropout -> Norm wrapper.

All entry points accept either single sequences (T x D) or a batch of agent
channels (N x T x D); batching rides on the engine's batched matmul. Heads are
an array axis: a projection's output is split into ... x h x T x d_k by a
reshape and an axis swap, so all heads attend in one batched product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import MaskError, ShapeError

MASK_FILL = -1e9


@dataclass
class MultiHeadWeights:
    """Query/key/value and output projections, each D x D; head i owns
    columns i*d_k .. (i+1)*d_k of w_q, w_k and w_v."""
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    heads: int = 1


@dataclass
class FeedForwardWeights:
    w1: Tensor = None  # D x ffn_dim
    b1: Tensor = None  # ffn_dim
    w2: Tensor = None  # ffn_dim x D
    b2: Tensor = None  # D


def _mask_fill(mask, dtype):
    """Boolean mask (True = may attend) -> additive fill for blocked slots."""
    m = np.asarray(mask, dtype=bool)
    if not m.any(axis=-1).all():
        raise MaskError("attention mask blocks every key for some query row")
    return np.where(m, 0.0, MASK_FILL).astype(dtype)


def causal_mask(t):
    """Lower-triangular-plus-diagonal boolean mask of shape t x t."""
    return np.tril(np.ones((t, t), dtype=bool))


def scaled_dot_attention(q, k, v, mask=None):
    """softmax(q kT / sqrt(d_k) + mask) v.

    q: ... x T_q x d_k, k: ... x T_k x d_k, v: ... x T_k x d_v.
    mask: boolean T_q x T_k (True = attend), broadcast over leading axes.
    Mismatched shapes raise ShapeError from the matmuls.
    """
    scores = ad.scalar_mul(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(q.shape[-1]))
    if mask is not None:
        fill = np.broadcast_to(_mask_fill(mask, scores.dtype), scores.shape)
        scores = ad.add(scores, Tensor(fill))
    weights = ad.softmax(scores)
    return ad.matmul(weights, v)


def multi_head_attention(x_q, x_kv, weights, mask=None):
    """h parallel attention heads over learned projections, merged and
    reprojected. Output has the shape of x_q."""
    model_dim = weights.w_o.shape[-1]
    if x_q.shape[-1] != model_dim or x_kv.shape[-1] != model_dim:
        raise ShapeError(
            f"inputs must have feature dim {model_dim}: {x_q.shape}, {x_kv.shape}")
    heads = weights.heads
    if model_dim % heads != 0:
        raise ShapeError(f"{heads} heads do not divide feature dim {model_dim}")
    return attend_heads(project_heads(x_q, weights.w_q, heads),
                        project_heads(x_kv, weights.w_k, heads),
                        project_heads(x_kv, weights.w_v, heads), weights, mask=mask)


def project_heads(x, w, heads):
    """x (... x T x D) projected by w and split into heads: ... x h x T x d_k."""
    y = ad.matmul(x, w)
    *lead, t, d = y.shape
    return ad.transpose(ad.reshape(y, (*lead, t, heads, d // heads)), -3, -2)


def attend_heads(queries, keys, values, weights, mask=None):
    """Attention of all heads at once (... x h x T x d_k), merged to ... x T x D
    and reprojected by w_o. Keys and values may come from a cache."""
    merged = ad.transpose(scaled_dot_attention(queries, keys, values, mask=mask), -3, -2)
    *lead, t, heads, d_k = merged.shape
    return ad.matmul(ad.reshape(merged, (*lead, t, heads * d_k)), weights.w_o)


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
