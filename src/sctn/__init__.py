"""Spatial-channel trajectory prediction toolkit."""

from .autodiff import (CounterRng, Tensor, attention, backward, dropout,
                       finite_difference_check, layer_norm)
from .blocks import (FeedForwardWeights, MultiHeadWeights, feed_forward,
                     multi_head_attention, residual_sublayer)
from .model import (ModelConfig, ModelWeights, Scene, decode_step, encode,
                    predict, teacher_forced_forward)
from .metrics import MetricsReport, ade, evaluate, fde, rmse
from .optim import OptimizerState, adam_init, adam_step, l2_loss, train

__version__ = "0.1.0"

__all__ = [
    "CounterRng", "FeedForwardWeights", "MetricsReport",
    "ModelConfig", "ModelWeights", "MultiHeadWeights", "OptimizerState",
    "Scene", "Tensor", "ade", "adam_init", "adam_step", "attention",
    "backward", "decode_step", "dropout", "encode", "evaluate", "fde",
    "feed_forward", "finite_difference_check", "l2_loss", "layer_norm",
    "multi_head_attention", "predict", "residual_sublayer",
    "rmse", "teacher_forced_forward", "train",
]
