"""Spans around the program's functions, recorded from the benchmark's side.

`instrument` replaces module attributes of `sctn` with timing wrappers, at
the name each caller looks up, and `Instrumented.restore` puts the
originals back. A span records its name, start, end, parent span and the
workload; spans stay in memory until `Tracer.write` saves them. Every span
also adds its inclusive time, its self time (inclusive minus the time of
its child spans) and a call to running totals per name, kept apart for the
set-up phase and the measured phase.
"""
from __future__ import annotations

import os
import time
from array import array
from functools import partial

import numpy as np

PRIMITIVES = ("matmul", "add", "mul", "scalar_mul", "relu", "sigmoid",
              "transpose", "concat_last", "mean", "reshape", "index",
              "scale_channels", "softmax", "layer_norm", "dropout")
LAYERS = ("data", "checkpoint", "model", "embedding", "se", "blocks",
          "autodiff", "optim", "metrics")
PHASES = ("setup", "run")


class Tracer:
    def __init__(self, workload):
        self.workload = workload
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        # phase -> [calls, inclusive s, self s] per name id; phase -> {counter: value}
        self.totals = {p: [] for p in PHASES}
        self.counters = {p: {} for p in PHASES}
        self.set_phase("setup")

    def set_phase(self, phase):
        self.phase = phase
        self.current = self.totals[phase]

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for p in PHASES:
                self.totals[p].append([0, 0.0, 0.0])
        return nid

    def count(self, name, value):
        counters = self.counters[self.phase]
        counters[name] = counters.get(name, 0.0) + value

    def wrap(self, name, fn, after=None):
        """fn with a span named `name`; after(args, result) runs inside it."""
        nid = self.intern(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            t0 = clock()
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(t0)
            ends.append(t0)
            frame = [sid, 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                elapsed = t1 - t0
                total = tracer.current[nid]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    # -- summaries ----------------------------------------------------------

    def name_totals(self, phase):
        return {self.names[nid]: tuple(v) for nid, v in enumerate(self.totals[phase])}

    def self_time(self, phase):
        return sum(v[2] for v in self.totals[phase])

    def write(self, path):
        """Save every span; times are seconds on the perf_counter clock."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        n = len(self.span_name)
        np.savez(path,
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 workload=np.zeros(n, dtype=np.uint8),
                 workloads=np.array([self.workload]),
                 names=np.array(self.names))
        return n


class Instrumented:
    """Record of the attributes replaced by `instrument`."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()


def instrument(tracer):
    """Wrap every function the benchmark times, where its callers find it."""
    from sctn import autodiff, blocks, checkpoint, data, embedding, metrics, model, optim, se

    inst = Instrumented()

    def span(owner, attr, name, after=None):
        # a function the program no longer has records no work
        if hasattr(owner, attr):
            inst.patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    # data: the prepare pipeline
    span(data, "parse_trajectory_csv", "data.parse",
         lambda a, out: tracer.count("data.rows", len(out)))
    span(data, "resample", "data.resample")
    span(data, "build_segments", "data.build_segments",
         lambda a, out: tracer.count("data.segments", len(out)))
    span(data, "segment_windows", "data.segment_windows")
    span(data, "select_neighbors", "data.select_neighbors")
    span(data, "normalize", "data.normalize")
    span(data, "split_dataset", "data.split")

    # checkpoint
    span(checkpoint, "save_segment_cache", "checkpoint.cache_save",
         lambda a, out: tracer.count("checkpoint.cache_bytes",
                                     os.path.getsize(a[0])))
    span(checkpoint, "load_segment_cache", "checkpoint.cache_load")
    span(checkpoint, "load_model_checkpoint", "checkpoint.model_load")

    # model; optim and metrics bind some of these names by import
    span(model.ModelWeights, "__init__", "model.weights_init")
    span(model, "encode", "model.encode")
    span(model, "decode_step", "model.decode_step",
         lambda a, out: tracer.count("model.decoder_positions",
                                     np.asarray(a[0]).shape[1]))
    tff = tracer.wrap("model.teacher_forced_forward", model.teacher_forced_forward)
    inst.patch(model, "teacher_forced_forward", tff)
    inst.patch(optim, "teacher_forced_forward", tff)
    pred = tracer.wrap("model.predict", model.predict)
    inst.patch(model, "predict", pred)
    inst.patch(metrics, "predict", pred)

    span(embedding, "compose_input", "embedding.compose_input")
    span(se, "se_pass", "se.se_pass")
    span(blocks, "multi_head_attention", "blocks.multi_head_attention")
    span(blocks, "feed_forward", "blocks.feed_forward")
    span(blocks, "residual_sublayer", "blocks.residual_sublayer")

    # autodiff: each primitive's forward, and its backward closure
    for op in PRIMITIVES:
        bwd_wrap = _backward_wrapper(tracer, op)
        span(autodiff, op, f"autodiff.{op}", bwd_wrap)
    span(autodiff, "_require_finite", "autodiff.finite_check",
         lambda a, out: tracer.count("autodiff.finite_check_mb", a[1].nbytes / 1e6))
    span(autodiff, "backward", "autodiff.backward")

    span(optim, "l2_loss", "optim.l2_loss")
    span(optim, "adam_step", "optim.adam_step")
    span(optim, "train", "optim.train")
    span(metrics, "evaluate", "metrics.evaluate")
    return inst


def _backward_wrapper(tracer, op):
    """after-hook for a primitive: counts its graph node and puts a span
    around its backward closure."""
    bwd_span = tracer.wrap(f"autodiff.{op}_bwd", lambda closure: closure())
    if op == "matmul":
        def run_backward(closure, gflop):
            tracer.count("autodiff.matmul_gflop", gflop)
            bwd_span(closure)

        def after(args, out):
            # forward 2*M*K*N flops; backward two products of the same size
            gflop = 2e-9 * out.size * args[0].shape[-1]
            tracer.count("autodiff.matmul_gflop", gflop)
            if out.requires_grad:
                tracer.count("autodiff.grad_nodes", 1)
                out._backward_fn = partial(run_backward, out._backward_fn, 2 * gflop)
    else:
        def after(args, out):
            if out.requires_grad:
                tracer.count("autodiff.grad_nodes", 1)
                out._backward_fn = partial(bwd_span, out._backward_fn)
    return after


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _per_layer_table():
    """(metric name, unit, kind, key); kind is incl, calls, self, counter or
    layer, and key names the span, counter or layer it reads."""
    table = []

    def timed(span, calls=False):
        table.append((f"{span}_s", "s", "incl", span))
        if calls:
            table.append((f"{span}_calls", "count", "calls", span))

    def counter(name, unit):
        table.append((name, unit, "counter", name))

    for span in ("data.parse", "data.resample", "data.segment_windows"):
        timed(span)
    timed("data.select_neighbors", calls=True)
    timed("data.normalize")
    timed("data.split")
    counter("data.rows", "count")
    counter("data.segments", "count")
    timed("checkpoint.cache_save")
    counter("checkpoint.cache_bytes", "bytes")
    timed("checkpoint.cache_load")
    timed("checkpoint.model_load")
    timed("model.weights_init")
    timed("model.encode", calls=True)
    timed("model.decode_step", calls=True)
    counter("model.decoder_positions", "count")
    timed("model.teacher_forced_forward")
    timed("model.predict")
    timed("embedding.compose_input", calls=True)
    timed("se.se_pass", calls=True)
    timed("blocks.multi_head_attention", calls=True)
    timed("blocks.feed_forward")
    timed("blocks.residual_sublayer")
    table.append(("autodiff.ops", "count", "ops", None))
    table.append(("autodiff.op_self_s", "s", "op_self", None))
    counter("autodiff.grad_nodes", "count")
    for op in PRIMITIVES:
        table.append((f"autodiff.{op}_calls", "count", "calls", f"autodiff.{op}"))
        table.append((f"autodiff.{op}_s", "s", "incl", f"autodiff.{op}"))
        table.append((f"autodiff.{op}_bwd_s", "s", "incl", f"autodiff.{op}_bwd"))
    counter("autodiff.matmul_gflop", "GFLOP")
    timed("autodiff.finite_check", calls=True)
    counter("autodiff.finite_check_mb", "MB")
    timed("autodiff.backward", calls=True)
    timed("optim.l2_loss")
    timed("optim.adam_step", calls=True)
    table.append(("metrics.evaluate_self_s", "s", "self", "metrics.evaluate"))
    for layer in LAYERS:
        table.append((f"{layer}.self_s", "s", "layer", layer))
    table.append(("bench.trace_overhead_pct", "%", "bench", "overhead"))
    table.append(("bench.self_time_coverage_pct", "%", "bench", "coverage"))
    return table


PER_LAYER = _per_layer_table()


def per_layer_metrics(tracer, setup_reps, ops, timed_wall_s, overhead_pct):
    """Per-layer values: set-up spans per set-up repetition plus measured
    spans per operation. timed_wall_s is the traced wall time of set-up and
    measured rounds together, which the self times should add up to."""
    scale = {"setup": 1.0 / max(setup_reps, 1), "run": 1.0 / max(ops, 1)}
    totals = {p: tracer.name_totals(p) for p in PHASES}
    op_names = {f"autodiff.{op}" for op in PRIMITIVES}
    coverage = 100.0 * sum(tracer.self_time(p) for p in PHASES) / timed_wall_s

    def over_phases(fn):
        return sum(fn(p) * scale[p] for p in PHASES)

    def field(key, idx):
        return over_phases(lambda p: totals[p].get(key, (0, 0.0, 0.0))[idx])

    def layer_self(layer):
        return over_phases(lambda p: sum(v[2] for k, v in totals[p].items()
                                         if k.split(".", 1)[0] == layer))

    out = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "incl":
            value = field(key, 1)
        elif kind == "calls":
            value = field(key, 0)
        elif kind == "self":
            value = field(key, 2)
        elif kind == "counter":
            value = over_phases(lambda p: tracer.counters[p].get(key, 0.0))
        elif kind == "ops":
            value = sum(field(k, 0) for k in op_names)
        elif kind == "op_self":
            value = sum(field(k, 2) for k in op_names)
        elif kind == "layer":
            value = layer_self(key)
        else:
            value = overhead_pct if key == "overhead" else coverage
        out[name] = {"value": float(value), "unit": unit}
    return out
