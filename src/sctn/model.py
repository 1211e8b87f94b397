"""Full trajectory model: embedding + channel attention + transformer
encoder stack + autoregressive decoder.

Temporal attention runs inside each agent channel; interaction between
agents flows only through the squeeze-and-excitation block applied to the
embedded scene. The decoder cross-attends to the encoder latent of its own
agent channel and is seeded with the agent's last observed position. Each
decoder step predicts a displacement, which the output head adds to that
step's input point.

Training runs the decoder once over the whole shifted-right future
(``teacher_forced_forward``). ``predict`` decodes incrementally without a
gradient graph: a ``DecoderCache`` keeps each layer's self-attention keys and
values of the positions decoded so far, and the cross-attention keys and
values of the encoder latent, so each step runs the stack on the new
position only. The causal fill makes this exact; the parallel pass is the
test oracle. Both run each layer through ``_decoder_layer`` and differ only
in where its self-attention keys and values come from. Every attention, the
encoder's too, is one ``blocks.multi_head_attention`` call.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blocks, embedding, se
from .autodiff import Tensor
from .blocks import FeedForwardWeights, MultiHeadWeights
from .errors import ConfigError, DataError, UsageError

T_OBS = 15   # observed frames of a window
T_PRED = 25  # predicted frames that follow them


@dataclass
class ModelConfig:
    """The one definition of the model's keys, types, defaults and validation.

    The run config schema and the checkpoint sidecar are derived from these
    fields; a profile is a set of values applied over their defaults."""
    n_agents: int = 10
    t_obs: int = T_OBS
    t_pred: int = T_PRED
    model_dim: int = 512
    heads: int = 8
    layers: int = 2
    dropout: float = 0.1
    se_enabled: bool = True
    dtype: str = "float32"
    seed: int = 0

    def __post_init__(self):
        for key in ("n_agents", "t_obs", "t_pred", "model_dim", "heads", "layers"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"unsupported dtype {self.dtype}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


# applied over the ModelConfig defaults, before a config file and flags
PROFILES = {
    "desk": dict(model_dim=64, heads=4, dropout=0.0),
    "paper": dict(model_dim=512, heads=8, dropout=0.1),
}

# small enough that full-model finite differencing stays interactive
TOY_DIMS = dict(n_agents=3, t_obs=4, t_pred=3, model_dim=16, heads=2,
                layers=1, dropout=0.0, dtype="float64")


def config_for_profile(profile, **overrides):
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    kw = dict(PROFILES[profile])
    kw.update(overrides)
    return ModelConfig(**kw)


@dataclass
class Scene:
    """N agent channels over T frames of finite positions; channel 0 is
    conventionally the target."""
    positions: np.ndarray          # N x T x 2, metres in the segment frame
    channel_mask: np.ndarray       # N bools, True = real agent
    target_index: int = 0
    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.channel_mask = np.asarray(self.channel_mask, dtype=bool)
        shape = self.positions.shape
        if len(shape) != 3 or shape[2] != 2 or self.channel_mask.shape != shape[:1]:
            raise DataError(f"positions of shape {shape} and mask of shape "
                            f"{self.channel_mask.shape} are not N x T x 2 and N")
        if not (0 <= self.target_index < shape[0] and self.channel_mask[self.target_index]):
            raise DataError(f"target channel {self.target_index} must be a real agent")
        if not np.isfinite(self.positions).all():
            raise DataError("positions hold non-finite coordinates")

    @property
    def n_agents(self):
        return self.positions.shape[0]

    @property
    def n_frames(self):
        return self.positions.shape[1]

    def observed(self, t_obs):
        return self.positions[:, :t_obs]

    def future(self, t_obs):
        return self.positions[:, t_obs:]


class ModelWeights:
    """Named registry of every learnable tensor, in deterministic order.

    ModelWeights(config) draws a seeded random init. ModelWeights(config,
    state) takes every tensor from state, a {name: array} mapping such as
    load_tensors returns, and draws nothing; an array already of the
    config's dtype is kept, not copied. Either way _build names, shapes and
    orders the tensors."""

    def __init__(self, config, state=None):
        self.config = config
        self.registry = {}
        self.table = embedding.positional_encoding(
            np.arange(config.t_obs + config.t_pred), config.model_dim).astype(config.np_dtype)
        self._state = state
        self._rng = np.random.default_rng(config.seed) if state is None else None
        self._build()
        self._state = None

    def _register(self, name, shape, init):
        """Register parameter name of the given shape: from the state, or
        else init(), called only then, gives its initial values."""
        if name in self.registry:
            raise UsageError(f"duplicate parameter name {name}")
        if self._state is None:
            data = np.asarray(init(), dtype=self.config.np_dtype)
        else:
            data = self._state_entry(self._state, name, shape)
        t = Tensor(data, requires_grad=True)
        self.registry[name] = t
        return t

    def _state_entry(self, state, name, shape):
        """state[name] in the config's dtype, checked to have shape."""
        if name not in state:
            raise DataError(f"checkpoint is missing parameter {name}")
        arr = np.asarray(state[name], dtype=self.config.np_dtype)
        if arr.shape != shape:
            raise DataError(f"parameter {name} shape {arr.shape} != expected {shape}")
        return arr

    def _param(self, name, shape, fan_in=None):
        if fan_in is None:
            return self._register(name, shape, lambda: np.zeros(shape))
        bound = 1.0 / np.sqrt(fan_in)
        return self._register(name, shape,
                              lambda: self._rng.uniform(-bound, bound, size=shape))

    def _norm(self, prefix):
        shape = (self.config.model_dim,)
        return (self._register(f"{prefix}/gain", shape, lambda: np.ones(shape)),
                self._register(f"{prefix}/bias", shape, lambda: np.zeros(shape)))

    def _mha(self, prefix):
        cfg = self.config
        d, h = cfg.model_dim, cfg.heads
        bound = 1.0 / np.sqrt(d)
        # drawn per head, q then k then v, each head's D x d_k block becoming
        # its column block of the D x D projection; wq's init makes the one draw
        draws = functools.cache(
            lambda: self._rng.uniform(-bound, bound, size=(h, 3, d, d // h)))
        w_q, w_k, w_v = (self._register(
            f"{prefix}/{name}", (d, d),
            lambda j=j: draws()[:, j].transpose(1, 0, 2).reshape(d, d))
            for j, name in enumerate(("wq", "wk", "wv")))
        return MultiHeadWeights(w_q, w_k, w_v,
                                self._param(f"{prefix}/wo", (d, d), fan_in=d), heads=h)

    def _ffn(self, prefix):
        d = self.config.model_dim
        hidden = 4 * d  # the transformer's feed-forward width
        return FeedForwardWeights(
            w1=self._param(f"{prefix}/w1", (d, hidden), fan_in=d),
            b1=self._param(f"{prefix}/b1", (hidden,)),
            w2=self._param(f"{prefix}/w2", (hidden, d), fan_in=hidden),
            b2=self._param(f"{prefix}/b2", (d,)),
        )

    def _se(self, prefix):
        cfg = self.config
        width = se.bottleneck_width(cfg.n_agents)
        return se.SEWeights(
            w1=self._param(f"{prefix}/w1", (cfg.n_agents, width), fan_in=cfg.n_agents),
            w2=self._param(f"{prefix}/w2", (width, cfg.n_agents), fan_in=width),
        )

    def _build(self):
        cfg = self.config
        d = cfg.model_dim
        self.embed = embedding.EmbeddingWeights(
            mlp_w=self._param("embed/w", (2, d), fan_in=2),
            mlp_b=self._param("embed/b", (d,)))
        self.se_enc = self._se("se_enc") if cfg.se_enabled else None
        self.encoder = []
        for l in range(cfg.layers):
            self.encoder.append(dict(
                attn=self._mha(f"enc{l}/attn"),
                attn_norm=self._norm(f"enc{l}/attn_norm"),
                ffn=self._ffn(f"enc{l}/ffn"),
                ffn_norm=self._norm(f"enc{l}/ffn_norm"),
            ))
        self.decoder = []
        for l in range(cfg.layers):
            self.decoder.append(dict(
                self_attn=self._mha(f"dec{l}/self"),
                self_norm=self._norm(f"dec{l}/self_norm"),
                cross=self._mha(f"dec{l}/cross"),
                cross_norm=self._norm(f"dec{l}/cross_norm"),
                ffn=self._ffn(f"dec{l}/ffn"),
                ffn_norm=self._norm(f"dec{l}/ffn_norm"),
            ))
        self.out_w = self._param("out/w", (d, 2), fan_in=d)
        self.out_b = self._param("out/b", (2,))

    def parameters(self):
        return list(self.registry.values())

    def zero_grads(self):
        for t in self.registry.values():
            t.zero_grad()

    def state_dict(self):
        return {name: t.data.copy() for name, t in self.registry.items()}

    def load_state_dict(self, state):
        for name, t in self.registry.items():
            t.data = self._state_entry(state, name, t.data.shape)
            t.zero_grad()


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def encode(scene, weights, config, training=False, rng=None):
    """Observation half -> latent N x T_obs x D."""
    obs = scene.observed(config.t_obs)
    if obs.shape[1] != config.t_obs:
        raise DataError(f"scene has {obs.shape[1]} frames, expected {config.t_obs}")
    x = embedding.compose_input(obs, weights.embed, weights.table)
    if weights.se_enc is not None:
        x = se.se_pass(x, weights.se_enc, channel_mask=scene.channel_mask)
    for layer in weights.encoder:
        attn = blocks.multi_head_attention(x, layer["attn"],
                                           blocks.keys_values(x, layer["attn"]))
        x = blocks.residual_sublayer(x, attn, *layer["attn_norm"], config.dropout,
                                     training, rng)
        x = blocks.residual_sublayer(x, blocks.feed_forward(x, layer["ffn"]),
                                     *layer["ffn_norm"], config.dropout, training, rng)
    return x


def _decoder_layer(x, layer, self_kv, cross_kv, config, fill, training, rng):
    """One decoder layer: self-attention over the keys and values self_kv
    under the score fill, cross-attention over cross_kv (from the encoder
    latent), then feed-forward, each a post-norm residual sublayer drawing its
    own dropout."""
    x = blocks.residual_sublayer(
        x, blocks.multi_head_attention(x, layer["self_attn"], self_kv, fill),
        *layer["self_norm"], config.dropout, training, rng)
    x = blocks.residual_sublayer(
        x, blocks.multi_head_attention(x, layer["cross"], cross_kv),
        *layer["cross_norm"], config.dropout, training, rng)
    return blocks.residual_sublayer(x, blocks.feed_forward(x, layer["ffn"]),
                                    *layer["ffn_norm"], config.dropout, training, rng)


def _decode_sequence(dec_points, z, weights, config, training=False, rng=None):
    """Run the decoder stack over a (possibly partial) input sequence.

    dec_points: N x t x 2 (seed token first); returns N x t x 2 outputs.
    Every position's keys and values are projected afresh, under a causal
    fill; this is the oracle the cached decode_step is checked against.
    """
    x = embedding.compose_input(dec_points, weights.embed, weights.table,
                                start_t=config.t_obs)
    fill = blocks.causal_fill(dec_points.shape[1], config.np_dtype)
    for layer in weights.decoder:
        x = _decoder_layer(x, layer, blocks.keys_values(x, layer["self_attn"]),
                           blocks.keys_values(z, layer["cross"]), config, fill,
                           training, rng)
    return _output_head(x, dec_points, weights, config)


def _output_head(x, dec_points, weights, config):
    return ad.add(ad.matmul(x, weights.out_w, weights.out_b),
                  Tensor(np.asarray(dec_points, dtype=config.np_dtype)))


class DecoderCache:
    """Decoder keys and values of one rollout, per layer.

    The self-attention keys and values of the decoded positions fill an
    N x T_pred x D buffer each, laid out as the projections are; the cross
    ones are projected from the encoder latent z once. No gradient graph.
    """

    def __init__(self, z, weights, config):
        shape = (z.shape[0], config.t_pred, config.model_dim)
        with ad.no_grad():
            self.cross = [blocks.keys_values(z, layer["cross"]) for layer in weights.decoder]
        self.keys, self.values = ([np.empty(shape, config.np_dtype) for _ in weights.decoder]
                                  for _ in range(2))
        self.points = np.empty((shape[0], 0, 2))

    @property
    def length(self):
        return self.points.shape[1]

    def extend(self, i, x, attn):
        """Append the keys and values attn projects from x, the input of
        decoder layer i at the next position, to that layer's buffers, and
        return the keys and values of every position so far."""
        t = self.length + 1
        for buf, new in zip((self.keys[i], self.values[i]), blocks.keys_values(x, attn)):
            buf[:, t - 1:t] = new.data
        return Tensor(self.keys[i][:, :t]), Tensor(self.values[i][:, :t])


@ad.no_grad()
def decode_step(partial_outputs, weights, config, cache):
    """Next point for every agent given t already-decoded inputs: N x 1 x 2.

    partial_outputs extends the points in cache (a DecoderCache, filled by
    earlier calls) by exactly one position; the decoder runs on that position
    only and adds its keys and values to the cache. Builds no gradient graph.
    """
    points = np.asarray(partial_outputs)
    t = points.shape[1]
    if not 1 <= t <= config.t_pred:
        raise UsageError(f"decode step {t} outside 1..{config.t_pred}")
    start = cache.length
    if t != start + 1 or not np.array_equal(points[:, :start], cache.points):
        raise UsageError(
            f"decode input of {t} positions does not extend the {start} cached ones "
            f"by one")
    new = points[:, start:]
    x = embedding.compose_input(new, weights.embed, weights.table,
                                start_t=config.t_obs + start)
    for i, (layer, cross_kv) in enumerate(zip(weights.decoder, cache.cross)):
        # the new position attends to every cached one, so it needs no fill
        x = _decoder_layer(x, layer, cache.extend(i, x, layer["self_attn"]), cross_kv,
                           config, None, False, None)
    cache.points = points.copy()
    return _output_head(x, new, weights, config).data


def predict(scene, weights, config):
    """Autoregressive rollout: encode once, then T_pred cached decode steps,
    all without a gradient graph."""
    with ad.no_grad():
        z = encode(scene, weights, config, training=False)
        cache = DecoderCache(z, weights, config)
        buf = scene.observed(config.t_obs)[:, -1:, :].astype(config.np_dtype)
        for _ in range(config.t_pred):
            buf = np.concatenate([buf, decode_step(buf, weights, config, cache)], axis=1)
    return buf[:, 1:]


def teacher_forced_forward(scene, weights, config, training=True, rng=None):
    """Single parallel decoder pass on the ground-truth future shifted right.

    Requires the full T_obs + T_pred window; output is a Tensor aligned with
    the T_pred ground-truth frames.
    """
    if scene.n_frames != config.t_obs + config.t_pred:
        raise DataError(
            f"scene has {scene.n_frames} frames, expected {config.t_obs + config.t_pred}")
    z = encode(scene, weights, config, training=training, rng=rng)
    obs = scene.observed(config.t_obs)
    future = scene.future(config.t_obs)
    dec_in = np.concatenate([obs[:, -1:, :], future[:, :-1, :]], axis=1)
    return _decode_sequence(dec_in.astype(config.np_dtype), z, weights, config,
                            training=training, rng=rng)
