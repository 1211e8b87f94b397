"""L2 training loop with Adam.

Gradients accumulate over a batch of segments in a fixed order, are averaged,
and a single bias-corrected Adam step is applied. Everything is driven by one
seed, so repeated runs produce bit-identical loss traces.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import CounterRng, Tensor
from .errors import DataError, NumericError, ShapeError, UsageError
from .model import teacher_forced_forward


def l2_loss(pred, target, channel_mask):
    """Mean squared error over real channels, timesteps and coordinates."""
    mask = np.asarray(channel_mask, dtype=bool)
    if not mask.any():
        raise DataError("loss over an all-masked scene")
    tgt = target if isinstance(target, Tensor) else Tensor(
        np.asarray(target, dtype=pred.dtype))
    if pred.shape != tgt.shape:
        raise ShapeError(f"prediction {pred.shape} vs target {tgt.shape}")
    diff = pred - tgt
    sq = ad.mul(diff, diff)
    weight = np.zeros(pred.shape, dtype=pred.data.dtype)
    weight[mask] = 1.0 / (mask.sum() * pred.shape[1] * pred.shape[2])
    total = ad.mean(ad.mul(sq, Tensor(weight)))
    return ad.scalar_mul(total, float(np.prod(pred.shape)))


@dataclass
class OptimizerState:
    """Adam moments, step counter and hyperparameters."""
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    return OptimizerState(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                          m=[np.zeros_like(p.data) for p in params],
                          v=[np.zeros_like(p.data) for p in params])


def adam_step(params, state):
    """Bias-corrected Adam update in place; gradients are zeroed afterwards."""
    state.step_count += 1
    t = state.step_count
    for i, p in enumerate(params):
        g = p.grad
        if g is None:
            continue
        if g.shape != state.m[i].shape:
            raise ShapeError(f"gradient shape {g.shape} vs moment {state.m[i].shape}")
        state.m[i] = state.beta1 * state.m[i] + (1 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1 - state.beta2) * g * g
        m_hat = state.m[i] / (1 - state.beta1 ** t)
        v_hat = state.v[i] / (1 - state.beta2 ** t)
        p.data = p.data - (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)
    for p in params:
        p.zero_grad()


@dataclass
class TrainResult:
    trace: list                 # per-epoch dicts: epoch, train_loss, val_loss, wall_ms
    best_state: dict            # parameter snapshot at the best validation loss
    best_val_loss: float


def _segment_loss(sample, weights, config, training, rng):
    pred = teacher_forced_forward(sample.scene, weights, config,
                                  training=training, rng=rng)
    target = sample.scene.future(config.t_obs).astype(config.np_dtype)
    return l2_loss(pred, target, sample.scene.channel_mask)


def evaluate_loss(samples, weights, config):
    """Mean inference-mode loss over samples, computed without a gradient graph."""
    total = 0.0
    with ad.no_grad():
        for sample in samples:
            total += _segment_loss(sample, weights, config, False, None).item()
    return total / len(samples) if samples else float("nan")


def train(train_samples, val_samples, weights, config, epochs, batch_size=16,
          seed=0, lr=0.01, log=None):
    """Teacher-forced training; checkpoints the best validation loss.

    Returns a TrainResult; `weights` holds the final-epoch parameters, while
    best_state snapshots the lowest-validation-loss epoch.
    """
    if epochs < 0:
        raise UsageError("epochs must be >= 0")
    if epochs > 0 and not train_samples:
        raise DataError("empty training split")
    params = weights.parameters()
    state = adam_init(params, lr=lr)
    rng = CounterRng(seed)
    trace = []
    best_state = weights.state_dict()
    best_val = float("inf")
    for epoch in range(epochs):
        t0 = time.perf_counter()
        epoch_loss = 0.0
        for start in range(0, len(train_samples), batch_size):
            batch = train_samples[start:start + batch_size]
            weights.zero_grads()
            batch_loss = 0.0
            for sample in batch:
                loss = _segment_loss(sample, weights, config, True, rng)
                val = loss.item()
                if not np.isfinite(val):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, segment "
                        f"({sample.source_file}, vehicle {sample.vehicle_id}, "
                        f"start {sample.start_frame})")
                batch_loss += val
                ad.backward(ad.scalar_mul(loss, 1.0 / len(batch)))
            adam_step(params, state)
            epoch_loss += batch_loss
        train_loss = epoch_loss / len(train_samples)
        val_loss = evaluate_loss(val_samples, weights, config) if val_samples else train_loss
        if val_loss < best_val:
            best_val = val_loss
            best_state = weights.state_dict()
        record = dict(epoch=epoch, train_loss=train_loss, val_loss=val_loss,
                      wall_ms=(time.perf_counter() - t0) * 1e3)
        trace.append(record)
        if log is not None:
            log(record)
    if epochs == 0:
        best_val = evaluate_loss(val_samples, weights, config) if val_samples else float("nan")
    return TrainResult(trace=trace, best_state=best_state, best_val_loss=best_val)
