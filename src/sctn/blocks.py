"""Attention machinery: multi-head attention, position-wise feed-forward, and
the residual Add -> Dropout -> Norm wrapper.

Every attention in the model, the encoder's and the decoder's, cached or not,
is one ``multi_head_attention`` call. Its queries come from x; its keys and
values are the plain projections ``keys_values`` makes of any input (the same
x, the encoder latent) or rows of a decoder cache. Every projection stays
... x T x D: all heads attend in one ``autodiff.attention`` op, the only code
that splits a projection into heads or merges them back. Inputs are a single
sequence (T x D) or a batch of agent channels (N x T x D); every projection
is one product of the stacked rows with a rank-2 weight.
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


def keys_values(x, weights):
    """The keys and values weights project from x, each ... x T x D."""
    return ad.matmul(x, weights.w_k), ad.matmul(x, weights.w_v)


def multi_head_attention(x, weights, kv, fill=None):
    """h parallel heads of x's queries over kv, the (keys, values) pair of
    ``keys_values``, reprojected by w_o; output has x's shape. fill is an
    additive score fill such as ``causal_fill``."""
    queries = ad.matmul(x, weights.w_q)
    return ad.matmul(ad.attention(queries, *kv, fill=fill, heads=weights.heads),
                     weights.w_o)


def feed_forward(x, weights):
    """max(0, x w1 + b1) w2 + b2, applied position-wise."""
    hidden = ad.relu(ad.matmul(x, weights.w1, weights.b1))
    return ad.matmul(hidden, weights.w2, weights.b2)


def residual_sublayer(x, sublayer_output, gain, bias, dropout_rate=0.0,
                      training=False, rng=None):
    """Post-norm residual wrapper: layer_norm(x + dropout(sublayer_output)),
    the sum formed inside the layer norm."""
    branch = ad.dropout(sublayer_output, dropout_rate, training, rng)
    return ad.layer_norm(x, branch, gain, bias)
