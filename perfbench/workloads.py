"""The qkattn benchmark workloads.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns.  A workload has three phases, one
per throughput metric (optimizer steps, oracle-checked pairs, gradient
check trials).  A phase runs in rounds, and every round repeats the same
operations on the same inputs, which depend only on the workload seed.
The phases interleave so that each gets its share of the run.

A phase's throughput is scaled to a reference host speed.  The host is
shared and its speed changes for seconds to minutes at a time: the same
operation can take 1.6x as long in a slow spell, and whole 30 s runs
have run 40% slow.  So the benchmark times a fixed calibration kernel
just before and just after every operation, and every PROBE_INTERVAL_S
while it runs, from a SIGALRM handler.  An operation's cost is its time,
less the kernel time spent inside it, divided by the harmonic mean of
those kernel times; the rate uses the median cost over rounds.
Throughput is the units of work per second at the speed where the
kernel takes CAL_REF_S.  Each round's outputs must equal the first
round's, which checks determinism.

Library calls go through module attributes (``model.forward``, not a
name imported from ``model``), so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import signal
import statistics
import time
import traceback

import numpy as np

from qkattn import cli, data, model, sim, train
from qkattn.model import ModelConfig
from qkattn.sim import NoiseChannel
from qkattn.train import TrainConfig

CANONICAL, LITERAL = "all-zeros-canonical", "per-qubit-literal"
TOLERANCE = {"analytic": 1e-12, "density": 1e-10}  # fast path vs run_circuit oracle
GRADCHECK_BOUND = 1e-4  # criterion 3


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Context:
    """Operation counts and failures of one run, and the optional tracer
    that is switched on while operations run."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def tracing(self):
        """Record spans, if a tracer is installed, inside this block."""
        if self.tracer is not None:
            self.tracer.enabled = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False

    def attempt(self, label: str, fn):
        """Run one operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # every failure is counted and reported, the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                last = traceback.format_exc().strip().splitlines()[-1]
                self.errors.append(f"{label}: {last}")
            return None


_CAL_SMALL = np.random.default_rng(0).normal(size=(16, 16)) * (1 + 1j)
_CAL_LARGE = np.random.default_rng(1).normal(size=(64, 64)) * (1 + 1j) / 16
# about the kernel's time on the 2-core host the benchmark was defined on,
# when the host was quiet
CAL_REF_S = 2.5e-3
# a long operation (a train_loop call takes seconds) is sampled 10 times a
# second, at about 2.5% cost; a short one only at its ends
PROBE_INTERVAL_S = 0.1


def calibrate() -> float:
    """Time a fixed mix of the two kinds of work qkattn does: interpreter-
    bound code on 16 x 16 complex matrices (the analytic path) and 64 x 64
    complex products (the density path).  Contention on the shared host
    slows the two kinds by different factors, so the kernel has both."""
    t0 = time.perf_counter()
    v = np.ones(16, dtype=complex)
    m = np.eye(64, dtype=complex)
    seen = {}
    for k in range(200):
        v = _CAL_SMALL @ v
        v = v / np.linalg.norm(v)
        seen[k % 7] = (k, v[0])
        if k % 12 == 0:
            m = _CAL_LARGE @ m
            m /= np.abs(m).max()
    return time.perf_counter() - t0


@contextlib.contextmanager
def speed_probe():
    """Yield a list that receives a calibrate() time every PROBE_INTERVAL_S
    of wall time until the block ends.  The handler runs between
    bytecodes and touches no qkattn state, so outputs are unchanged."""
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(calibrate()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def digest_of(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        for arr in out or [None]:
            h.update(b"-" if arr is None else np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclasses.dataclass
class Phase:
    """One timed operation kind.  ``build()`` returns a round's operations,
    a list of (label, units, callable returning a list of outputs); it
    runs once, outside the timer, before the first round.  A traced run
    does exactly ``traced_rounds`` rounds, so its span counts are exact."""

    metric: str
    share: float
    traced_rounds: int
    build: object
    ops: list | None = None
    busy: float = 0.0
    op_times: list = dataclasses.field(default_factory=list)
    op_speeds: list = dataclasses.field(default_factory=list)
    digest: str | None = None

    @property
    def done(self) -> int:
        return len(self.op_times)

    def run_round(self, ctx: Context) -> None:
        if self.ops is None:
            self.ops = self.build()
        times, speeds, outputs = [], [], []
        before = calibrate()
        with ctx.tracing():
            for label, _, fn in self.ops:
                with speed_probe() as inside:
                    t0 = time.perf_counter()
                    outputs.append(ctx.attempt(label, fn))
                    elapsed = time.perf_counter() - t0
                after = calibrate()
                times.append(elapsed - sum(inside))
                # kernel time, averaged so that cost = time x mean(1 / kernel)
                speeds.append(statistics.harmonic_mean([before, *inside, after]))
                before = after
        self.op_speeds.append(speeds)
        self.busy += sum(times)
        self.op_times.append(times)
        digest = digest_of(outputs)
        if self.digest is None:
            self.digest = digest
        else:
            ctx.attempt(f"{self.metric} round {self.done - 1}",
                        lambda: check(digest == self.digest, "outputs differ from round 0"))

    def rate(self) -> float:
        """Units per second at the host speed where calibrate() takes
        CAL_REF_S (see the module docstring)."""
        if not self.ops:  # the operations could not be built
            return 0.0
        units = sum(u for _, u, _ in self.ops)
        cost = np.median(np.array(self.op_times) / np.array(self.op_speeds), axis=0)
        return units / float(cost.sum() * CAL_REF_S)

    def round_rates(self) -> list[float]:
        """Measured units per second of each round, not scaled."""
        units = sum(u for _, u, _ in self.ops)
        return [units / sum(times) if times else 0.0 for times in self.op_times]


# --- operations -----------------------------------------------------------

def oracle_pair(cfg: ModelConfig, wi, wj, params):
    """forward() on one pair, checked against the gate-by-gate density
    simulation of the full conditional circuit."""

    def op():
        e_val, rec = model.forward(wi, wj, params, cfg)
        circ = model.build_full_circuit(wi, wj, params, cfg,
                                        form="conditional", final_measure=True)
        ref = sim.run_circuit(circ, "density", noise=cfg.noise)
        e_ref = sum(w * (1 - 2 * bits[cfg.n]) for bits, w in ref.bits.items())
        tol = TOLERANCE[cfg.execution]
        check(np.isfinite(e_val) and abs(e_val - e_ref) <= tol,
              f"E {e_val!r} vs oracle {e_ref!r}")
        if cfg.link_mode == CANONICAL:
            # only the canonical circuit measures register 1 mid-circuit
            p0_ref = ref.measurement_probs[0][0]
            check(abs(rec.p0 - p0_ref) <= tol, f"p0 {rec.p0!r} vs oracle {p0_ref!r}")
        return [e_val, rec.distribution]

    return op


def gradcheck_seeds(rng, count: int) -> list[int]:
    """Seeds for ``count`` one-trial gradient checks whose batches hold
    2, 3, 4, 2, ... samples.  gradient_check draws the batch size first
    from its seed; fixing the sizes makes the work the same for every
    workload seed."""
    seeds = []
    while len(seeds) < count:
        seed = int(rng.integers(2**31))
        if np.random.default_rng(seed).integers(2, 5) == 2 + len(seeds) % 3:
            seeds.append(seed)
    return seeds


def gradcheck_trial(cfg: ModelConfig, seed: int):
    def op():
        report = train.gradient_check(cfg, 1, seed)
        worst = report["worst_rel_error"]
        check(np.isfinite(worst) and worst < GRADCHECK_BOUND,
              f"gradient check worst relative error {worst!r} on {report['worst_slot']}")
        return [worst]

    return op


def check_record(record, steps: int) -> list:
    check(record.steps == steps, f"ran {record.steps} of {steps} steps")
    theta = record.params.to_vector()
    losses = np.asarray(record.loss)
    check(np.all(np.isfinite(theta)) and np.all(np.isfinite(losses)),
          "non-finite parameters or loss")
    accs = np.asarray(record.train_acc)
    check(np.all((accs >= 0) & (accs <= 1)), "train accuracy outside [0, 1]")
    return [theta, losses, accs]


@dataclasses.dataclass
class GateJob:
    """A trained model that the correctness gates probe: its config, its
    training features and its final parameters."""

    cfg: ModelConfig
    x: np.ndarray
    params: object


def gate_phases(seed: int, jobs) -> list[Phase]:
    """Pairs and gradient-check phases that probe the trained models.

    ``jobs()`` returns the GateJobs; two seeded pairs are drawn from each
    job's training features and evaluated at its final parameters.
    ``gradient_check`` draws its own parameters and batch of 2-4 samples.
    """

    def pairs():
        rng = np.random.default_rng([seed, 1])
        ops = []
        for k, job in enumerate(jobs()):
            for i, j in rng.integers(job.x.shape[0], size=(2, 2)):
                ops.append((f"gate pair {k}", 1,
                            oracle_pair(job.cfg, job.x[i], job.x[j], job.params)))
        return ops

    def gradchecks():
        gates = jobs()
        seeds = gradcheck_seeds(np.random.default_rng([seed, 2]), len(gates))
        return [(f"gate gradcheck {k}", 1, gradcheck_trial(job.cfg, s))
                for k, (job, s) in enumerate(zip(gates, seeds))]

    return [Phase("pairs_per_s", 0.2, 8, pairs),
            Phase("gradcheck_trials_per_s", 0.2, 4, gradchecks)]


# --- workloads --------------------------------------------------------------

class TrainAnalytic:
    """train_loop in the criterion-9 shape: all four variants at n=2 with
    their pinned init seeds, plus AmHE at n=3 (dim 8, P=21) to vary the
    working set.  Analytic mode, so training never calls run_circuit;
    the gates do."""

    name = "train-analytic"
    # variant, n, init seed, optimizer steps per train_loop call; enough
    # steps that the call's fixed costs (evaluator construction and the
    # initial full-set metrics) stay a small share of a step
    JOBS = (("AmHE", 2, 0, 10), ("AnHE", 2, 0, 10), ("AmQAOA", 2, 0, 10),
            ("AnQAOA", 2, 3, 10), ("AmHE", 3, 0, 4))
    TRAIN = dict(learning_rate=0.09, momentum=0.9, batch_size=30)

    def __init__(self, seed: int):
        self.seed = seed
        self.mix = {"data": "two-gaussians count 80, d=4 at n=2 and d=8 at n=3",
                    "train": self.TRAIN,
                    "jobs": [dict(zip(("variant", "n", "init_seed", "steps"), j))
                             for j in self.JOBS]}
        self.final: dict[int, object] = {}
        self.phases = [Phase("steps_per_s", 0.6, 1, self._train_ops),
                       *gate_phases(seed, self._gate_jobs)]

    def setup(self) -> None:
        split4 = data.synthetic_dataset("two-gaussians", 80, 4, self.seed)
        angle4, _ = data.scale_features(split4.train_x, split4.test_x)
        split8 = data.synthetic_dataset("two-gaussians", 80, 8, self.seed)
        rng = np.random.default_rng([self.seed, 0])
        self.jobs = []
        for variant, n, init_seed, steps in self.JOBS:
            cfg = ModelConfig.from_variant(variant, n=n)
            split = split4 if n == 2 else split8
            x = angle4 if cfg.encoder == "angle" else split.train_x
            model.BatchEvaluator(x, x, cfg).evaluate(cfg.random_params(rng))
            tcfg = TrainConfig(steps=steps, seed=init_seed, **self.TRAIN)
            self.jobs.append((cfg, x, split.train_y, tcfg))

    def _train_ops(self):
        def job_op(k, cfg, x, y, tcfg):
            def op():
                record = train.train_loop(cfg, x, y, tcfg)
                out = check_record(record, tcfg.steps)
                self.final[k] = record.params
                return out
            return op

        return [(f"train {cfg.variant} n={cfg.n}", tcfg.steps, job_op(k, cfg, x, y, tcfg))
                for k, (cfg, x, y, tcfg) in enumerate(self.jobs)]

    def _gate_jobs(self):
        return [GateJob(cfg, x, self.final[k])
                for k, (cfg, x, _, _) in enumerate(self.jobs) if k in self.final]


class TrainDensity:
    """Density-mode training with noise, driven through in-process
    ``cli.main(["noise-sweep", ...])`` as users and criterion 7 drive it.
    The criterion-7 jobs (n=1, AmHE, d=2) run beside n=2 jobs and one
    per-qubit-literal job, whose link runs the full 2n-qubit density."""

    name = "train-density"
    # variant, n, link mode, d, channel, probabilities, optimizer steps per model
    JOBS = (("AmHE", 1, CANONICAL, 2, "bit-flip", "0.1,0.3", 10),
            ("AmHE", 1, CANONICAL, 2, "amplitude-damping", "0.1,0.3", 10),
            ("AmHE", 2, CANONICAL, 4, "bit-flip", "0.1", 4),
            ("AnQAOA", 2, CANONICAL, 4, "amplitude-damping", "0.1", 4),
            ("AmHE", 2, LITERAL, 4, "bit-flip", "0.05", 4))

    def __init__(self, seed: int, out_dir: str, ctx: Context):
        self.seed = seed
        self.ctx = ctx
        self.out_dir = os.path.join(out_dir, self.name)
        self.mix = {"data": "two-gaussians count 80", "command": "noise-sweep",
                    "jobs": [dict(zip(("variant", "n", "link_mode", "d", "channel",
                                       "probs", "steps"), j)) for j in self.JOBS]}
        self.sweep_rows: dict[int, list[str]] = {}
        self._gates = None
        self.phases = [Phase("steps_per_s", 0.6, 1, self._train_ops),
                       *gate_phases(seed, self._gate_jobs)]

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.jobs = []
        rng = np.random.default_rng([self.seed, 0])
        for k, (variant, n, link, d, channel, probs, steps) in enumerate(self.JOBS):
            path = os.path.join(self.out_dir, f"job{k}.json")
            with open(path, "w") as fh:
                json.dump({"seed": self.seed, "variant": variant,
                           "model": {"n": n, "link_mode": link}, "train": {"steps": steps},
                           "data": {"source": "synthetic", "kind": "two-gaussians",
                                    "count": 80, "d": d}}, fh)
            cfg = ModelConfig.from_variant(variant, n=n, link_mode=link, execution="density",
                                           noise=(NoiseChannel(channel, 0.1),))
            split = data.synthetic_dataset("two-gaussians", 80, d, self.seed)
            x = split.train_x
            if cfg.encoder == "angle":
                x, _ = data.scale_features(split.train_x, split.test_x)
            model.BatchEvaluator(x, x, cfg).evaluate(cfg.random_params(rng))
            argv = ["noise-sweep", "--config", path, "--out", os.path.join(self.out_dir, f"out{k}"),
                    "--channel", channel, "--probs", probs, "--seeds", str(self.seed)]
            self.jobs.append((argv, len(probs.split(",")), steps))

    def _train_ops(self):
        def job_op(k, argv, runs):
            def op():
                code = cli.main(argv)
                check(code == 0, f"noise-sweep exited with {code}")
                with open(os.path.join(argv[4], "sweep.csv")) as fh:
                    rows = fh.read().strip().split("\n")[1:]
                check(len(rows) == runs, f"sweep.csv has {len(rows)} rows, expected {runs}")
                values = np.array([[float(v) for v in row.split(",")] for row in rows])
                check(np.all(np.isfinite(values)), "non-finite value in sweep.csv")
                check(np.all((values[:, 2:4] >= 0) & (values[:, 2:4] <= 1)),
                      "accuracy outside [0, 1] in sweep.csv")
                self.sweep_rows[k] = rows
                return [values]
            return op

        return [(f"noise-sweep job {k}", runs * steps, job_op(k, argv, runs))
                for k, (argv, runs, steps) in enumerate(self.jobs)]

    def _gate_jobs(self):
        """The sweep's models, retrained once by direct train_loop calls
        (outside the timer) for their final parameters; each must
        reproduce its sweep.csv row, which checks the cli layer against
        the library."""
        if self._gates is None:
            self._gates = []
            for k, (argv, _, _) in enumerate(self.jobs):
                for row in self.sweep_rows.get(k, ()):
                    job = self.ctx.attempt(f"sweep reference {k}",
                                           lambda: self._reference(argv, row))
                    if job is not None:
                        self._gates.append(job)
        return self._gates

    def _reference(self, argv, row: str) -> GateJob:
        resolved = cli.load_config(argv[2])
        prob = float(row.split(",")[0])
        mcfg = cli.model_config_from(resolved, execution="density",
                                     noise=(NoiseChannel(argv[6], prob),))
        split = cli.load_dataset(resolved, mcfg.encoder)
        record = train.train_loop(mcfg, split.train_x, split.train_y,
                                  cli.train_config_from(resolved),
                                  test_x=split.test_x, test_y=split.test_y)
        fmt = "{:.12g}".format
        expect = ",".join([fmt(prob), str(resolved["seed"]), fmt(record.train_acc[-1]),
                           fmt(record.test_acc[-1]), fmt(record.loss[-1])])
        check(row == expect, f"sweep.csv row {row!r} differs from train_loop {expect!r}")
        return GateJob(mcfg, split.train_x, record.params)


class PairwiseOracle:
    """Per-pair, small-batch work at n in {1, 2, 3}, analytic and noisy
    density, both link modes.  Each pair builds its own BatchEvaluator
    and evaluates it once (inside forward), the opposite of training,
    so work moved into evaluator construction shows here as a loss."""

    name = "pairwise-oracle"
    # variant, n, link mode, execution; every variant, n, link and mode appears
    SLOTS = (("AmHE", 1, CANONICAL, "analytic"), ("AmHE", 1, LITERAL, "analytic"),
             ("AmQAOA", 1, CANONICAL, "density"), ("AmQAOA", 1, LITERAL, "density"),
             ("AnHE", 2, CANONICAL, "analytic"), ("AmQAOA", 2, LITERAL, "analytic"),
             ("AnQAOA", 2, CANONICAL, "density"), ("AmHE", 2, LITERAL, "density"),
             ("AmHE", 3, CANONICAL, "analytic"), ("AnQAOA", 3, LITERAL, "analytic"),
             ("AnHE", 3, CANONICAL, "density"), ("AmQAOA", 3, LITERAL, "density"))
    CHANNELS = ("bit-flip", "amplitude-damping")
    PAIRS_PER_SLOT = 2
    # n=3 density gradient checks and training steps take seconds each
    GRADCHECK_SLOTS = tuple(k for k, s in enumerate(SLOTS) if s[1] < 3 or s[3] == "analytic")
    TRAIN_SLOTS = tuple(k for k, s in enumerate(SLOTS) if s[1] < 3)

    def __init__(self, seed: int):
        self.seed = seed
        self.mix = {"data": "two-gaussians count 40 per slot, d = feature capacity",
                    "slots": [dict(zip(("variant", "n", "link_mode", "execution"), s))
                              for s in self.SLOTS],
                    "noise": "channel alternates by slot, strength uniform in [0.02, 0.3]",
                    "pairs_per_slot": self.PAIRS_PER_SLOT,
                    "gradcheck_slots": list(self.GRADCHECK_SLOTS),
                    "train_slots": list(self.TRAIN_SLOTS),
                    "train": "1 step on a batch of 4 (2 per class)"}
        self.phases = [Phase("pairs_per_s", 0.45, 24, self._pair_ops),
                       Phase("gradcheck_trials_per_s", 0.3, 8, self._gradcheck_ops),
                       Phase("steps_per_s", 0.25, 24, self._train_ops)]

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.slots = []
        for k, (variant, n, link, execution) in enumerate(self.SLOTS):
            noise = ()
            if execution == "density":
                noise = (NoiseChannel(self.CHANNELS[k % 2], float(rng.uniform(0.02, 0.3))),)
            cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                           execution=execution, noise=noise)
            split = data.synthetic_dataset("two-gaussians", 40, max(2, cfg.feature_dim),
                                           int(rng.integers(2**31)))
            x = split.train_x
            if cfg.encoder == "angle":
                x, _ = data.scale_features(split.train_x, split.test_x)
            model.forward(x[0], x[1], cfg.random_params(rng), cfg)
            self.slots.append((cfg, x, split.train_y))

    def _pair_ops(self):
        rng = np.random.default_rng([self.seed, 1])
        ops = []
        for k, (cfg, x, _) in enumerate(self.slots):
            for i, j in rng.integers(x.shape[0], size=(self.PAIRS_PER_SLOT, 2)):
                ops.append((f"pair slot {k}", 1,
                            oracle_pair(cfg, x[i], x[j], cfg.random_params(rng))))
        return ops

    def _gradcheck_ops(self):
        seeds = gradcheck_seeds(np.random.default_rng([self.seed, 2]), len(self.GRADCHECK_SLOTS))
        return [(f"gradcheck slot {k}", 1, gradcheck_trial(self.slots[k][0], s))
                for k, s in zip(self.GRADCHECK_SLOTS, seeds)]

    def _train_ops(self):
        rng = np.random.default_rng([self.seed, 3])
        ops = []
        for k in self.TRAIN_SLOTS:
            cfg, x, y = self.slots[k]
            pick = np.concatenate([rng.choice(np.flatnonzero(y == label), 2, replace=False)
                                   for label in (-1.0, 1.0)])
            tcfg = TrainConfig(steps=1, batch_size=4, seed=int(rng.integers(2**31)))

            def op(cfg=cfg, xb=x[pick], yb=y[pick], tcfg=tcfg):
                return check_record(train.train_loop(cfg, xb, yb, tcfg), 1)

            ops.append((f"small-batch step slot {k}", 1, op))
        return ops


WORKLOADS = {w.name: w for w in (TrainAnalytic, TrainDensity, PairwiseOracle)}
