"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap numpy arrays of rank <= 4. Every differentiable operation records
its parents and a backward closure; calling ``backward`` on a scalar loss walks
the graph once in reverse topological order, accumulates gradients additively
across fan-out, and then unlinks the graph it ran. A graph holds no reference
cycle, so reference counting frees it once it is dropped, run or not. Only
leaves (tensors made with requires_grad, such as weights) keep their ``.grad``:
an interior node drops its gradient as soon as its closure has passed it on.
Inside ``with no_grad():`` operations record nothing, for inference.

Finiteness is checked once per op: matmul, add, mul, scalar_mul, mean and
layer_norm raise NumericError on a non-finite output (naming it, e.g.
``matmul output``), which a NaN or inf in any input always produces; an
overflowing residual sum inside layer_norm does too. relu and sigmoid map
+-inf to finite values, so they check their input. attention checks twice:
its masked, scaled scores, because softmax gives a -inf score weight 0, and
its output, which a bad value reaches only through v. scale_channels and
dropout are unchecked and leave a bad value to the next op.

attention alone splits ... x T x D projections into heads and merges them.
"""
from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, UsageError

MAX_RANK = 4

LAYER_NORM_EPS = 1e-5

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextmanager
def no_grad():
    """In the block, or a function decorated with no_grad(), ops record no graph."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _require_finite(name, arr):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")


class Tensor:
    """Dense float array participating in a reverse-mode graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, parents=()):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _make(data, parents):
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=parents)
    return Tensor(data)


def _link(out, backward_fn):
    """Give out the zero-argument closure backward runs: backward_fn(out.grad).

    backward_fn refers to the op's inputs but never to out, and the closure
    reaches out through a weak reference, so no graph node is in a reference
    cycle. Only a node that requires grad gets a closure."""
    if out.requires_grad:
        ref = weakref.ref(out)
        out._backward_fn = lambda: backward_fn(ref().grad)
    return out


def _acc(t, g):
    """Accumulate gradient g into tensor t (fan-out sums additively)."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, w, b=None):
    """The affine map a w + b: a (... x K; a vector is one row) times a
    rank-2 weight w (K x M), plus an optional length-M bias b.

    The leading axes of a fold into rows, so forward and backward are each
    one GEMM. b is added in place before the one scan; its gradient is the
    column sum of the output gradient."""
    if a.ndim < 1 or w.ndim != 2:
        raise ShapeError(f"matmul takes a rank >= 1 lhs and a rank-2 rhs, got "
                         f"{a.shape} @ {w.shape}")
    if a.shape[-1] != w.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {w.shape}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"matmul bias of shape {b.shape} vs weight {w.shape}")
    rows = a.data.reshape(-1, a.shape[-1])
    out_data = rows @ w.data
    if b is not None:
        out_data += b.data
    out_data = out_data.reshape(a.shape[:-1] + w.shape[1:])
    _require_finite("matmul output", out_data)
    out = _make(out_data, (a, w) if b is None else (a, w, b))

    def backward_fn(g):
        g = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _acc(a, (g @ w.data.T).reshape(a.shape))
        if w.requires_grad:
            _acc(w, rows.T @ g)
        if b is not None:
            _acc(b, g.sum(axis=0))

    return _link(out, backward_fn)


def add(a, b):
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out_data = a.data + b.data
    _require_finite("add output", out_data)
    out = _make(out_data, (a, b))

    def backward_fn(g):
        _acc(a, g)
        _acc(b, g)

    return _link(out, backward_fn)


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    out_data = a.data * b.data
    _require_finite("mul output", out_data)
    out = _make(out_data, (a, b))

    def backward_fn(g):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return _link(out, backward_fn)


def scalar_mul(a, c):
    c = float(c)
    if not np.isfinite(c):
        raise NumericError("non-finite scalar multiplier")
    out_data = a.data * c
    _require_finite("scalar_mul output", out_data)
    out = _make(out_data, (a,))
    return _link(out, lambda g: _acc(a, g * c))


def relu(a):
    _require_finite("relu input", a.data)
    out = _make(np.maximum(a.data, 0), (a,))
    return _link(out, lambda g: _acc(a, g * (a.data > 0)))


def sigmoid(a):
    _require_finite("sigmoid input", a.data)
    # tanh form is stable for large |x|; clamp keeps the output strictly
    # inside (0, 1) even where tanh saturates
    fi = np.finfo(a.data.dtype)
    s = np.clip(0.5 * (1.0 + np.tanh(0.5 * a.data)), fi.tiny, 1.0 - fi.epsneg)
    out = _make(s, (a,))
    return _link(out, lambda g: _acc(a, g * s * (1.0 - s)))


def mean(a, axis=None):
    """Mean reduction over all elements (axis=None) or over the given axes."""
    out_data = np.asarray(a.data.mean(axis=axis))
    _require_finite("mean output", out_data)
    out = _make(out_data, (a,))
    count = a.size // out_data.size

    def backward_fn(g):
        if axis is not None:
            g = np.expand_dims(g, axis=axis)
        _acc(a, np.broadcast_to(g, a.shape) / count)

    return _link(out, backward_fn)


def scale_channels(a, s):
    """Multiply channel c of a (C x ... ) by scalar s[c]."""
    if s.ndim != 1 or s.shape[0] != a.shape[0]:
        raise ShapeError(f"channel scale length {s.shape} vs channels {a.shape[0]}")
    factor = s.data.reshape((-1,) + (1,) * (a.ndim - 1))
    out = _make(a.data * factor, (a, s))

    def backward_fn(g):
        _acc(a, g * factor)
        _acc(s, (g * a.data).reshape(a.shape[0], -1).sum(axis=1))

    return _link(out, backward_fn)


def attention(q, k, v, fill=None, heads=1):
    """Multi-head softmax(q kT c + fill) v as one op, c = 1 / sqrt(d_k),
    softmax over the keys.

    q: ... x T_q x D, k: ... x T_k x D, v: ... x T_k x D_v, equal leading
    axes; head i attends with column block i of each (D / heads wide) and
    writes block i of the output. fill is an additive array broadcast onto
    the ... x h x T_q x T_k scores (e.g. -1e9 at blocked slots), not
    differentiated. The backward is hand-written, per head: with weights p,
    dv = pT g, ds = p (g vT - rowsum(g vT p)) c, dq = ds k and dk = dsT q."""
    if q.ndim < 2 or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise ShapeError(f"attention leading axes differ: {q.shape}, {k.shape}, {v.shape}")
    if (q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]
            or q.shape[-1] % heads or v.shape[-1] % heads):
        raise ShapeError(f"attention operands do not align ({heads} heads): "
                         f"{q.shape}, {k.shape}, {v.shape}")
    # ... x T x D as ... x h x T x d_k views, merged back by an axis swap and a copy
    qh, kh, vh = (np.swapaxes(a.data.reshape(*a.shape[:-1], heads, a.shape[-1] // heads),
                              -3, -2) for a in (q, k, v))
    # a Python float keeps float32 scores float32
    c = float(1.0 / np.sqrt(qh.shape[-1]))
    p = np.matmul(qh, np.swapaxes(kh, -1, -2))
    p *= c
    if fill is not None:
        p += fill
    _require_finite("attention scores", p)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out_data = np.matmul(p, vh).swapaxes(-3, -2).reshape(*q.shape[:-1], v.shape[-1])
    _require_finite("attention output", out_data)
    out = _make(out_data, (q, k, v))

    def backward_fn(g):
        g = np.swapaxes(g.reshape(*g.shape[:-1], heads, vh.shape[-1]), -3, -2)
        if v.requires_grad:
            _acc(v, np.matmul(np.swapaxes(p, -1, -2), g).swapaxes(-3, -2).reshape(v.shape))
        gp = np.matmul(g, np.swapaxes(vh, -1, -2))
        ds = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        ds *= c
        if q.requires_grad:
            _acc(q, np.matmul(ds, kh).swapaxes(-3, -2).reshape(q.shape))
        if k.requires_grad:
            # (qT ds)T, not dsT q: the product the unfused chain formed, bit for bit
            _acc(k, np.moveaxis(np.matmul(np.swapaxes(qh, -1, -2), ds), -1, -3).reshape(k.shape))

    return _link(out, backward_fn)


def layer_norm(x, branch, gain, bias):
    """Residual layer norm: normalize last-axis slices of x + branch to zero
    mean / unit variance, then affine.

    Zero-variance slices come out as the bias (variance floor LAYER_NORM_EPS).
    """
    if x.shape != branch.shape:
        raise ShapeError(f"residual shapes differ: {x.shape} vs {branch.shape}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine params must have shape ({d},)")
    # np.add.reduce is the reduction ndarray.mean and .var run, without their
    # Python-level wrappers; the results are the same bits
    centred = x.data + branch.data
    centred -= np.add.reduce(centred, axis=-1, keepdims=True) / d
    var = np.add.reduce(np.square(centred), axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centred * inv
    out_data = xhat * gain.data + bias.data
    _require_finite("layer_norm output", out_data)
    out = _make(out_data, (x, branch, gain, bias))

    def backward_fn(g):
        gx_hat = g * gain.data
        m1 = np.add.reduce(gx_hat, axis=-1, keepdims=True) / d
        m2 = np.add.reduce(gx_hat * xhat, axis=-1, keepdims=True) / d
        gx = (gx_hat - m1 - xhat * m2) * inv
        _acc(x, gx)
        _acc(branch, gx)
        _acc(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        _acc(bias, g.reshape(-1, d).sum(axis=0))

    return _link(out, backward_fn)


class CounterRng:
    """Counter-based seeded generator: draw n is a pure function of (seed, n).

    Re-running a training session replays the exact same dropout masks.
    """

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.counter = 0

    def uniform(self, shape):
        gen = np.random.Generator(np.random.Philox(key=[self.seed, self.counter]))
        self.counter += 1
        return gen.random(shape)


def dropout(x, rate, training, rng=None):
    """Inverted dropout: zero with probability rate, scale survivors by 1/(1-rate).

    In inference mode or at rate 0 it is the identity and returns x itself.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise UsageError("training-mode dropout requires a seeded generator")
    keep = (rng.uniform(x.shape) >= rate).astype(x.data.dtype)
    factor = keep / (1.0 - rate)
    out = _make(x.data * factor, (x,))
    return _link(out, lambda g: _acc(x, g * factor))


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss):
    """Populate .grad for every requires_grad leaf reachable from loss."""
    if loss.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn()
            node._backward_fn = None
            node._parents = ()
            node.grad = None


def finite_difference_check(f, x, step=1e-3, sample=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    f maps the Tensor x to a scalar Tensor and must be deterministic. When
    sample is given, only that many randomly chosen coordinates are probed
    (the analytic gradient is still the full backward pass).
    """
    if step <= 0:
        raise UsageError("finite-difference step must be positive")
    x.zero_grad()
    backward(f(x))
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    flat = x.data.reshape(-1)
    idxs = np.arange(flat.size)
    if sample is not None and sample < flat.size:
        gen = rng if rng is not None else np.random.default_rng(0)
        idxs = gen.choice(flat.size, size=sample, replace=False)
    worst = 0.0
    aflat = analytic.reshape(-1)
    for i in idxs:
        orig = flat[i]
        with no_grad():
            flat[i] = orig + step
            hi = f(x).item()
            flat[i] = orig - step
            lo = f(x).item()
        flat[i] = orig
        numeric = (hi - lo) / (2.0 * step)
        denom = max(1.0, abs(aflat[i]), abs(numeric))
        worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
