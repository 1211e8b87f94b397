"""Attention machinery: multi-head attention, position-wise feed-forward, and
the residual Add -> Dropout -> Norm wrapper.

Every attention in the model, the encoder's and the decoder's, cached or not,
is one ``multi_head_attention`` call. Its queries come from x; its keys and
values come ready split into heads, from ``keys_values`` of any input (the
same x, the encoder latent) or from a decoder cache. Heads are an array axis:
a projection's output is split into ... x h x T x d_k by a reshape and an
axis swap, so all heads attend in one ``autodiff.attention`` op. Inputs are a
single sequence (T x D) or a batch of agent channels (N x T x D); every
projection is one product of the stacked rows with a rank-2 weight.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

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
    w1: Tensor  # D x H, H the hidden width
    b1: Tensor  # H
    w2: Tensor  # H x D
    b2: Tensor  # D


def causal_fill(t, dtype):
    """t x t additive attention fill: MASK_FILL where a query would see a
    later key, 0 elsewhere. The diagonal stays open, so no row is blocked."""
    return np.triu(np.full((t, t), MASK_FILL, dtype=dtype), k=1)


def _project_heads(x, w, heads):
    """x (... x T x D) projected by w and split into heads: ... x h x T x d_k."""
    y = ad.matmul(x, w)
    *lead, t, d = y.shape
    return ad.transpose(ad.reshape(y, (*lead, t, heads, d // heads)), -3, -2)


def keys_values(x, weights):
    """The keys and values weights project from x, split into heads."""
    return (_project_heads(x, weights.w_k, weights.heads),
            _project_heads(x, weights.w_v, weights.heads))


def multi_head_attention(x, weights, kv, fill=None):
    """h parallel heads of x's queries over kv, the (keys, values) pair of
    ``keys_values``, merged and reprojected by w_o; output has x's shape.
    fill is an additive score fill such as ``causal_fill``."""
    queries = _project_heads(x, weights.w_q, weights.heads)
    merged = ad.transpose(ad.attention(queries, *kv, fill=fill), -3, -2)
    *lead, t, heads, d_k = merged.shape
    return ad.matmul(ad.reshape(merged, (*lead, t, heads * d_k)), weights.w_o)


def feed_forward(x, weights):
    """max(0, x w1 + b1) w2 + b2, applied position-wise."""
    hidden = ad.relu(ad.add(ad.matmul(x, weights.w1), weights.b1))
    return ad.add(ad.matmul(hidden, weights.w2), weights.b2)


def residual_sublayer(x, sublayer_output, gain, bias, dropout_rate=0.0,
                      training=False, rng=None):
    """Post-norm residual wrapper: layer_norm(x + dropout(sublayer_output)),
    the sum formed inside the layer norm."""
    branch = ad.dropout(sublayer_output, dropout_rate, training, rng)
    return ad.layer_norm(x, branch, gain, bias)
