"""The four workloads. Each drives the public functions `sctn.cli` calls, in
the same order, as one caller in one process.

A workload object goes through `generate` (make the seeded inputs, not
timed), `setup` (timed on its own and repeated), `precheck`, then whole
rounds of the same operations (`round`), then `postcheck`. Every round
returns a `Round`; correctness problems collect in `problems`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bench_checks as checks
import bench_inputs as inputs

clock = time.perf_counter


@dataclass
class Round:
    ops: int = 0                 # operations attempted
    failed: int = 0
    items: float = 0.0           # rows, segments or scenes, for items_per_s
    items_s: float = 0.0         # wall time the items took
    latencies_s: list = field(default_factory=list)
    timed_s: float = 0.0         # wall time of everything timed in the round


class Workload:
    name = ""
    setup_reps = 5
    min_rounds = 1

    def __init__(self, sctn, seed, workdir):
        self.sctn = sctn
        self.seed = seed
        self.workdir = Path(workdir)
        self.problems = []
        # the failures `sctn.cli` maps to exit codes 1-3
        err = sctn.errors
        self.errors = (err.UsageError, err.DataError, err.NumericError)

    def generate(self):
        pass

    def setup(self):
        raise NotImplementedError

    def precheck(self):
        pass

    def round(self):
        raise NotImplementedError

    def postcheck(self):
        pass


def _resolved(sctn, **overrides):
    return sctn.config.resolve(None, overrides)


def _split_from_scenes(sctn, scenes, sizes, seed):
    """DatasetSplit of the benchmark's own scenes, cut in order by sizes."""
    samples = []
    for i, (positions, mask, origin, kind) in enumerate(scenes):
        scene = sctn.model.Scene(positions=positions, channel_mask=mask,
                                 target_index=0, origin=origin)
        samples.append(sctn.data.SegmentSample(scene=scene, source_file=f"bench:{kind}",
                                               vehicle_id=i, start_frame=0))
    a, b = sizes[0], sizes[0] + sizes[1]
    return sctn.data.DatasetSplit(train=samples[:a], validation=samples[a:b],
                                  test=samples[b:], seed=seed)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

class Prepare(Workload):
    """`sctn prepare` on four NGSIM-style logs per round; one op per log."""
    name = "prepare"
    logs = 4
    n_channels = 10
    fractions = (0.7, 0.1, 0.2)

    def generate(self):
        self.truth = [inputs.ngsim_csv(self.workdir / f"log{i}.csv", (self.seed, i))
                      for i in range(self.logs)]
        self.reference = [None] * self.logs
        self._first_pass()

    def _prepare(self, i):
        """What `sctn prepare` does with one log; returns (samples, split)."""
        data, checkpoint = self.sctn.data, self.sctn.checkpoint
        path = self.truth[i].path
        records = data.parse_trajectory_csv(path, units="feet")
        records = data.resample(records, factor=2)
        samples = data.build_segments(records, self.n_channels, stride=5,
                                      source_file=path)
        split = data.split_dataset(samples, seed=self.seed, fractions=self.fractions)
        checkpoint.save_segment_cache(self._cache(i), split)
        return samples, split

    def _cache(self, i):
        return self.workdir / f"log{i}.sctn"

    def _first_pass(self):
        """Prepare each log once, untimed, and check it against the oracle."""
        for i, log in enumerate(self.truth):
            samples, split = self._prepare(i)
            where = f"log {i}: "
            expected = checks.expected_windows(log, self.n_channels)
            found = (checks.check_segments(samples, expected, inputs.expected_segments())
                     + checks.check_split(samples, split, self.fractions)
                     + checks.check_cache_roundtrip(
                         split, self.sctn.checkpoint.load_segment_cache(self._cache(i))))
            self.problems += [where + p for p in found]
            self.reference[i] = np.stack([s.scene.positions for s in samples])

    def setup(self):
        # every later command starts by reading the cache back
        self.sctn.checkpoint.load_segment_cache(self._cache(0))

    def round(self):
        r = Round()
        for i, log in enumerate(self.truth):
            r.ops += 1
            t0 = clock()
            try:
                samples, _ = self._prepare(i)
            except self.errors as exc:
                r.failed += 1
                self.problems.append(f"log {i}: {exc}")
                continue
            elapsed = clock() - t0
            r.latencies_s.append(elapsed)
            r.items += log.rows
            r.items_s += elapsed
            got = np.stack([s.scene.positions for s in samples])
            if not np.array_equal(got, self.reference[i]):
                self.problems.append(f"log {i}: segments differ from the first run")
        r.timed_s = r.items_s
        return r


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

class Train(Workload):
    """`sctn train`: optim.train from the same initial weights every round;
    one op per optimizer step."""
    profile = ""
    sizes = (0, 0, 0)            # train / validation / test segments
    epochs = 1
    batch_size = 1
    grad_coords = 0

    def generate(self):
        scenes = inputs.training_scenes(sum(self.sizes), self.seed)
        split = _split_from_scenes(self.sctn, scenes, self.sizes, self.seed)
        self.cache = self.workdir / "segments.sctn"
        self.sctn.checkpoint.save_segment_cache(self.cache, split)
        self.cfg = _resolved(self.sctn, profile=self.profile, seed=self.seed,
                             epochs=self.epochs, batch_size=self.batch_size)
        self.steps = self.epochs * -(-self.sizes[0] // self.batch_size)
        self.first_trace = None
        self.initial = None      # every set-up builds these same seeded weights

    def setup(self):
        sctn = self.sctn
        self.split = sctn.checkpoint.load_segment_cache(self.cache)
        n_agents = self.split.all_samples()[0].scene.n_agents
        self.mcfg = sctn.config.model_config_from(self.cfg, n_agents=n_agents)
        self.weights = sctn.model.ModelWeights(self.mcfg)

    def round(self):
        sctn, cfg = self.sctn, self.cfg
        if self.initial is None:
            self.initial = self.weights.state_dict()
        self.weights.load_state_dict(self.initial)
        stamps = []
        adam_step = sctn.optim.adam_step

        def stamped(params, state):
            adam_step(params, state)
            stamps.append(clock())

        sctn.optim.adam_step = stamped
        r = Round(ops=self.steps)
        t0 = clock()
        try:
            result = sctn.optim.train(self.split.train, self.split.validation,
                                      self.weights, self.mcfg, epochs=cfg["epochs"],
                                      batch_size=cfg["batch_size"], seed=cfg["seed"],
                                      lr=cfg["lr"])
        except self.errors as exc:
            self.problems.append(f"train: {exc}")
            result = None
        finally:
            elapsed = clock() - t0
            sctn.optim.adam_step = adam_step
        r.failed = self.steps - len(stamps)
        r.latencies_s = list(np.diff([t0] + stamps))
        r.items = self.sizes[0] * self.epochs
        r.items_s = r.timed_s = elapsed
        if result is not None:
            self._check_trace(result.trace)
        return r

    def precheck(self):
        # a warm-up round: its losses are the reference later rounds must
        # reproduce, its times are dropped
        self.round()

    def _check_trace(self, trace):
        losses = [(e["train_loss"], e["val_loss"]) for e in trace]
        if not np.all(np.isfinite(losses)):
            self.problems.append(f"non-finite loss in {losses}")
        if self.first_trace is None:
            self.first_trace = losses
        elif losses != self.first_trace:
            self.problems.append(f"loss trace {losses} differs from the first "
                                 f"round's {self.first_trace} for the same seed")

    def postcheck(self):
        sample = self.split.train[0]
        self.problems += checks.gradient_check(self.sctn, self.initial, self.mcfg,
                                               sample, self.grad_coords, self.seed)


class TrainDesk(Train):
    name = "train-desk"
    profile = "desk"
    sizes = (16, 4, 4)
    epochs = 3
    batch_size = 4
    grad_coords = 8

    def postcheck(self):
        super().postcheck()
        first, last = self.first_trace[0][0], self.first_trace[-1][0]
        if not last < first:
            self.problems.append(f"last epoch loss {last!r} not below the first {first!r}")


class TrainPaper(Train):
    name = "train-paper"
    profile = "paper"
    sizes = (4, 1, 1)
    epochs = 1
    batch_size = 1
    grad_coords = 4
    setup_reps = 3
    min_rounds = 6


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

class RolloutDesk(Workload):
    """`sctn evaluate` over the test split, then `sctn predict` on each test
    scene twice; one op per scene rolled out."""
    name = "rollout-desk"
    sizes = (16, 4, 8)
    singles = 2                  # single-scene predicts per test scene per round
    min_latencies = 100

    def generate(self):
        sctn = self.sctn
        scenes = inputs.training_scenes(sum(self.sizes), self.seed)
        split = _split_from_scenes(sctn, scenes, self.sizes, self.seed)
        self.cache = self.workdir / "segments.sctn"
        self.checkpoint = self.workdir / "model.sctn"
        sctn.checkpoint.save_segment_cache(self.cache, split)
        # the weights a short `sctn train` run writes
        cfg = _resolved(sctn, profile="desk", seed=self.seed)
        mcfg = sctn.config.model_config_from(cfg, n_agents=scenes[0][0].shape[0])
        weights = sctn.model.ModelWeights(mcfg)
        result = sctn.optim.train(split.train[:4], split.validation, weights, mcfg,
                                  epochs=1, batch_size=4, seed=self.seed, lr=cfg["lr"])
        weights.load_state_dict(result.best_state)
        sctn.checkpoint.save_model_checkpoint(self.checkpoint, weights)
        per_round = self.singles * self.sizes[2]
        self.min_rounds = -(-self.min_latencies // per_round)

    def setup(self):
        self.split = self.sctn.checkpoint.load_segment_cache(self.cache)
        self.weights = self.sctn.checkpoint.load_model_checkpoint(self.checkpoint)

    def precheck(self):
        sctn = self.sctn
        cfg = self.weights.config
        test = self.split.test
        self.preds = [sctn.model.predict(s.scene, self.weights, cfg) for s in test]
        captured = []
        predict = sctn.metrics.predict

        def capture(*args, **kwargs):
            out = predict(*args, **kwargs)
            captured.append(out)
            return out

        sctn.metrics.predict = capture
        try:
            self.report = sctn.metrics.evaluate(self.weights, test, cfg)
        finally:
            sctn.metrics.predict = predict
        if len(captured) != len(test) or not all(
                np.allclose(a, b, rtol=1e-6, atol=1e-6) for a, b in zip(captured, self.preds)):
            self.problems.append("evaluate's rollouts differ from single-scene predict")
        scenes = [s.scene for s in test]
        self.problems += checks.check_report(self.report, self.preds, scenes,
                                             cfg.t_obs, cfg.t_pred)
        for s, pred in zip(test, self.preds):
            self.problems += checks.check_causal(sctn, s.scene, pred, self.weights, cfg)

    def round(self):
        sctn = self.sctn
        cfg = self.weights.config
        test = self.split.test
        r = Round(ops=len(test) * (1 + self.singles))
        t0 = clock()
        try:
            report = sctn.metrics.evaluate(self.weights, test, cfg)
        except self.errors as exc:
            self.problems.append(f"evaluate: {exc}")
            r.failed += len(test)
            report = None
        r.items_s = clock() - t0
        r.items = len(test)
        if report is not None and report.rows != self.report.rows:
            self.problems.append("evaluate report differs from the first run")
        singles_s = 0.0
        for _ in range(self.singles):
            for i, s in enumerate(test):
                t0 = clock()
                try:
                    pred = sctn.model.predict(s.scene, self.weights, cfg)
                except self.errors as exc:
                    self.problems.append(f"predict: {exc}")
                    r.failed += 1
                    continue
                elapsed = clock() - t0
                singles_s += elapsed
                r.latencies_s.append(elapsed)
                if not np.array_equal(pred, self.preds[i]):
                    self.problems.append(f"predict on test scene {i} differs from the first run")
        r.timed_s = r.items_s + singles_s
        return r


WORKLOADS = {w.name: w for w in (Prepare, TrainDesk, RolloutDesk, TrainPaper)}
