"""Full trajectory model: embedding + channel attention + transformer
encoder stack + autoregressive decoder.

Temporal attention runs inside each agent channel; interaction between
agents flows only through the squeeze-and-excitation block applied to the
embedded scene. The decoder cross-attends to the encoder latent of its own
agent channel and is seeded with the agent's last observed position.

Training runs the decoder once over the whole shifted-right future
(``teacher_forced_forward``). ``predict`` decodes incrementally without a
gradient graph: a ``DecoderCache`` keeps each layer's self-attention keys and
values of the positions decoded so far, and the cross-attention keys and
values of the encoder latent, so each step runs the stack on the new
position only. The causal mask makes this exact; the parallel pass is the
test oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import blocks, embedding, se
from .autodiff import Tensor
from .blocks import FeedForwardWeights, MultiHeadWeights
from .errors import ConfigError, DataError, UsageError


@dataclass
class ModelConfig:
    """The one definition of the model's keys, types, defaults and validation.

    The run config schema and the checkpoint sidecar are derived from these
    fields; a profile is a set of values applied over their defaults."""
    n_agents: int = 10
    t_obs: int = 15
    t_pred: int = 25
    model_dim: int = 512
    heads: int = 8
    layers: int = 2
    ffn_dim: int = 0          # 0 -> 4 * model_dim
    dropout: float = 0.1
    se_reduction: int = 2
    se_enabled: bool = True
    predict_offsets: bool = False
    dtype: str = "float32"
    seed: int = 0

    def __post_init__(self):
        for key in ("n_agents", "t_obs", "t_pred", "model_dim", "heads", "layers",
                    "se_reduction"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.ffn_dim < 0:
            raise ConfigError(f"ffn_dim must be >= 0, got {self.ffn_dim}")
        if not 0 <= self.dropout < 1:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}")
        if self.ffn_dim == 0:
            self.ffn_dim = 4 * self.model_dim
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
    """N agent channels over T frames; channel 0 is conventionally the target."""
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
    """Named registry of every learnable tensor, in deterministic order."""

    def __init__(self, config):
        self.config = config
        self.registry = {}
        self.table = embedding.positional_encoding(
            np.arange(config.t_obs + config.t_pred), config.model_dim)
        self._rng = np.random.default_rng(config.seed)
        self._build()

    def _register(self, name, data):
        if name in self.registry:
            raise UsageError(f"duplicate parameter name {name}")
        t = Tensor(data.astype(self.config.np_dtype), requires_grad=True)
        self.registry[name] = t
        return t

    def _param(self, name, shape, fan_in=None):
        if fan_in is None:
            return self._register(name, np.zeros(shape))
        bound = 1.0 / np.sqrt(fan_in)
        return self._register(name, self._rng.uniform(-bound, bound, size=shape))

    def _norm(self, prefix):
        d = self.config.model_dim
        return (self._register(f"{prefix}/gain", np.ones(d)),
                self._register(f"{prefix}/bias", np.zeros(d)))

    def _mha(self, prefix):
        cfg = self.config
        d, h = cfg.model_dim, cfg.heads
        bound = 1.0 / np.sqrt(d)
        # drawn per head, q then k then v, each head's D x d_k block becoming
        # its column block of the D x D projection
        draws = self._rng.uniform(-bound, bound, size=(h, 3, d, d // h))
        w_q, w_k, w_v = (self._register(f"{prefix}/{name}",
                                        draws[:, j].transpose(1, 0, 2).reshape(d, d))
                         for j, name in enumerate(("wq", "wk", "wv")))
        return MultiHeadWeights(w_q, w_k, w_v,
                                self._param(f"{prefix}/wo", (d, d), fan_in=d), heads=h)

    def _ffn(self, prefix):
        cfg = self.config
        return FeedForwardWeights(
            w1=self._param(f"{prefix}/w1", (cfg.model_dim, cfg.ffn_dim),
                           fan_in=cfg.model_dim),
            b1=self._param(f"{prefix}/b1", (cfg.ffn_dim,)),
            w2=self._param(f"{prefix}/w2", (cfg.ffn_dim, cfg.model_dim),
                           fan_in=cfg.ffn_dim),
            b2=self._param(f"{prefix}/b2", (cfg.model_dim,)),
        )

    def _se(self, prefix):
        cfg = self.config
        width = se.bottleneck_width(cfg.n_agents, cfg.se_reduction)
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
            if name not in state:
                raise DataError(f"checkpoint is missing parameter {name}")
            arr = np.asarray(state[name], dtype=self.config.np_dtype)
            if arr.shape != t.data.shape:
                raise DataError(
                    f"parameter {name} shape {arr.shape} != expected {t.data.shape}")
            t.data = arr
            t.zero_grad()


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _embed(points, weights, start_t):
    return embedding.compose_input(points, weights.embed, weights.table,
                                   start_t=start_t, dtype=weights.config.np_dtype)


def _sublayer(x, branch, norm, cfg, training, rng):
    gain, bias = norm
    return blocks.residual_sublayer(x, branch, gain, bias,
                                    dropout_rate=cfg.dropout,
                                    training=training, rng=rng)


def encode(scene, weights, config, training=False, rng=None):
    """Observation half -> latent N x T_obs x D."""
    obs = scene.observed(config.t_obs)
    if obs.shape[1] != config.t_obs:
        raise DataError(f"scene has {obs.shape[1]} frames, expected {config.t_obs}")
    x = _embed(obs, weights, start_t=0)
    if weights.se_enc is not None:
        x = se.se_pass(x, weights.se_enc, channel_mask=scene.channel_mask)
    for layer in weights.encoder:
        attn = blocks.multi_head_attention(x, x, layer["attn"])
        x = _sublayer(x, attn, layer["attn_norm"], config, training, rng)
        x = _sublayer(x, blocks.feed_forward(x, layer["ffn"]),
                      layer["ffn_norm"], config, training, rng)
    return x


def _decode_sequence(dec_points, z, weights, config, training=False, rng=None):
    """Run the decoder stack over a (possibly partial) input sequence.

    dec_points: N x t x 2 (seed token first); returns N x t x 2 outputs.
    """
    t = dec_points.shape[1]
    x = _embed(dec_points, weights, start_t=config.t_obs)
    mask = blocks.causal_mask(t)
    for layer in weights.decoder:
        attn = blocks.multi_head_attention(x, x, layer["self_attn"], mask=mask)
        x = _sublayer(x, attn, layer["self_norm"], config, training, rng)
        cross = blocks.multi_head_attention(x, z, layer["cross"])
        x = _sublayer(x, cross, layer["cross_norm"], config, training, rng)
        x = _sublayer(x, blocks.feed_forward(x, layer["ffn"]),
                      layer["ffn_norm"], config, training, rng)
    return _output_head(x, dec_points, weights, config)


def _output_head(x, dec_points, weights, config):
    out = ad.add(ad.matmul(x, weights.out_w), weights.out_b)
    if config.predict_offsets:
        # offset head: step t produces a displacement added to its input point
        out = ad.add(out, Tensor(np.asarray(dec_points, dtype=config.np_dtype)))
    return out


class DecoderCache:
    """Decoder keys and values of one rollout, per layer.

    The self-attention keys and values of the decoded positions fill
    N x h x T_pred x d_k buffers; the cross-attention ones are projected from
    the encoder latent z once. Built and used without a gradient graph.
    """

    def __init__(self, z, weights, config):
        h = config.heads
        shape = (z.shape[0], h, config.t_pred, config.model_dim // h)
        with ad.no_grad():
            self.cross = [(blocks.project_heads(z, layer["cross"].w_k, h),
                           blocks.project_heads(z, layer["cross"].w_v, h))
                          for layer in weights.decoder]
        self.keys, self.values = ([np.empty(shape, config.np_dtype) for _ in weights.decoder]
                                  for _ in range(2))
        self.points = np.empty((shape[0], 0, 2))

    @property
    def length(self):
        return self.points.shape[1]


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
    x = _embed(new, weights, start_t=config.t_obs + start)
    for layer, keys, values, (cross_k, cross_v) in zip(
            weights.decoder, cache.keys, cache.values, cache.cross):
        self_w, cross_w = layer["self_attn"], layer["cross"]
        h = self_w.heads
        keys[:, :, start:t] = blocks.project_heads(x, self_w.w_k, h).data
        values[:, :, start:t] = blocks.project_heads(x, self_w.w_v, h).data
        # the new position attends to every cached one, so it needs no mask
        attn = blocks.attend_heads(blocks.project_heads(x, self_w.w_q, h),
                                   Tensor(keys[:, :, :t]), Tensor(values[:, :, :t]),
                                   self_w)
        x = _sublayer(x, attn, layer["self_norm"], config, False, None)
        cross = blocks.attend_heads(blocks.project_heads(x, cross_w.w_q, h),
                                    cross_k, cross_v, cross_w)
        x = _sublayer(x, cross, layer["cross_norm"], config, False, None)
        x = _sublayer(x, blocks.feed_forward(x, layer["ffn"]),
                      layer["ffn_norm"], config, False, None)
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
