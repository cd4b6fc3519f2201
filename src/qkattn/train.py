"""Hybrid training loop: squared loss, circuit gradients, Nesterov momentum.

The label head is sgn(E), whose loss has zero gradient almost everywhere,
so optimization runs on, and every run records, the smooth surrogate
(1/m)Σ(y − E)²; the sign loss (1/m)Σ(y − sgn E)² would only restate
accuracy, as 4·(1 − train_acc) for ±1 labels.  Each sample's feature
vector is fed to both model inputs (the token attends to itself).

Gradients of E are exact in every slot: ``BatchEvaluator.derivatives``
runs each register once on its parameter row and that row's derivative
rows, built from the same cached rotation factors, and the squared loss
contributes through the chain rule dL/dθ = −(2/m)·dE·(y − E), one
product over the batch of m.  Central finite differences survive only as
``gradient_check``'s reference.

``train_loop`` draws the parameters as one flat vector and keeps them
so, builds one evaluator over the train samples followed by the test
samples, and makes one pass over it per optimizer step: E and dE at the
Nesterov lookahead on the batch's samples only, for the gradient, and E
at the current parameters on every sample, for the train and test
metrics of the update before.  The last update's metrics, like
``gradient_check``'s reference, come from an E-only evaluation, which
reads register 1's firing probability and builds no distribution.

``train_loop`` is the one-run case of ``_train_runs``, which trains R
density models that differ in their noise alone in lockstep, as the noise
sweep does with one seed's strengths: one evaluator holds a density state
per run on a leading run axis, every pass serves all runs, and each run's
record equals its own ``train_loop`` run bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .ansatz import ParamSet, _random_vector
from .model import BatchEvaluator, ModelConfig, _lockstep_config

# the step of every central difference: at 1e-3 the truncation error on
# the HE CRY slots reached 1.3e-3 relative, at 1e-5 round-off 7.1e-5
_REFERENCE_STEP = 1e-4


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.09
    momentum: float = 0.9
    batch_size: int = 30
    steps: int = 120
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "steps"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name!r} must be an integer, got {value!r}")
        for name in ("learning_rate", "momentum"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name!r} must be a finite real number, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.steps < 0:
            raise ValueError("step budget cannot be negative")


@dataclasses.dataclass
class StepMetrics:
    loss: float
    train_acc: float
    test_acc: float


@dataclasses.dataclass
class RunRecord:
    """Metrics history of one training run.

    ``initial`` holds the metrics before any update; the per-step lists
    have one entry per optimizer step.
    """

    initial: StepMetrics
    loss: list[float]
    train_acc: list[float]
    test_acc: list[float]
    params: ParamSet

    @property
    def steps(self) -> int:
        return len(self.loss)

    @property
    def final(self) -> StepMetrics:
        """The last step's metrics, or ``initial`` before any step."""
        return (StepMetrics(self.loss[-1], self.train_acc[-1], self.test_acc[-1])
                if self.steps else self.initial)


def _checked(e_values, labels) -> tuple[np.ndarray, np.ndarray]:
    """E and the labels as float arrays, refused unless there is one ±1
    label per expectation and the batch is not empty."""
    e = np.asarray(e_values, dtype=float)
    y = np.asarray(labels, dtype=float)
    if e.shape != y.shape:
        raise ValueError("expectation and label counts differ")
    if not y.size:
        raise ValueError("no samples to score: the batch is empty")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    return e, y


def _chain_rule(labels, e_values, de) -> np.ndarray:
    """The surrogate loss's dL/dθ = mean(−2(y − E)·dE/dθ), one row of
    ``de`` per slot, as the one product −(2/m)·dE·r on the residuals
    r = y − E of the m samples."""
    r = np.asarray(labels, dtype=float) - e_values
    if not np.isfinite(r @ r):
        raise ValueError("loss is not finite")
    return (de @ r) * (-2.0 / r.size)


def _check_exact(model_config: ModelConfig) -> None:
    """Refuse a model that samples ``shots``: it has no exact E to differentiate."""
    if model_config.shots:
        raise ValueError("gradients need the exact E; set 'shots' to 0")


def gradient(evaluator: BatchEvaluator, theta, labels, idx=None) -> np.ndarray:
    """Exact gradient of the surrogate loss over one batch at the flat vector
    ``theta``; a model that samples ``shots`` has no exact E and is refused,
    and so are labels that are not one ±1 label per sample of the batch."""
    _check_exact(evaluator.config)
    e_values, de = evaluator.derivatives(theta, idx=idx)
    e_values, y = _checked(e_values, labels)
    return _chain_rule(y, e_values, de)


def nesterov_step(theta: np.ndarray, accumulator: np.ndarray,
                  grad_at_lookahead: np.ndarray, learning_rate: float,
                  momentum: float) -> tuple[np.ndarray, np.ndarray]:
    """a' = γa + η∇f(θ − γa);  θ' = θ − a'."""
    theta = np.asarray(theta, dtype=float)
    accumulator = np.asarray(accumulator, dtype=float)
    grad_at_lookahead = np.asarray(grad_at_lookahead, dtype=float)
    if theta.shape != accumulator.shape or theta.shape != grad_at_lookahead.shape:
        raise ValueError("parameter, accumulator, and gradient shapes differ")
    new_acc = momentum * accumulator + learning_rate * grad_at_lookahead
    return theta - new_acc, new_acc


def _metrics(e_values: np.ndarray, labels: np.ndarray, m: int) -> StepMetrics:
    """Metrics from E on the m train samples followed by the test
    samples, against their checked ±1 ``labels`` in the same order, in
    one pass: a prediction sgn(E) is right when E < 0 exactly when its
    label is −1."""
    hits = (e_values < 0) == (labels < 0)
    tests = hits.size - m
    test_acc = float(np.count_nonzero(hits[m:]) / tests) if tests else float("nan")
    return StepMetrics(float(np.mean((labels[:m] - e_values[:m]) ** 2)),
                       float(np.count_nonzero(hits[:m]) / m), test_acc)


def _labelled_set(x, y, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The "training" or "test" set (``what``) as float arrays, refused
    unless its labels are 1-D, one per sample and ±1, and it is not
    empty."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    prefix = "test " if what == "test" else ""
    if y.ndim != 1:
        raise ValueError(f"{prefix}labels must be a 1-D array, got shape {y.shape}")
    if x.shape[0] != y.size:
        raise ValueError(f"{prefix}feature and label counts differ")
    if x.shape[0] == 0:
        raise ValueError(f"{what} set is empty")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError(f"{prefix}labels must be -1 or +1")
    return x, y


def _check_test_set(train_x: np.ndarray, test_x, test_y):
    """The test set as arrays, or (None, None) without one."""
    if (test_x is None) != (test_y is None):
        raise ValueError("test_x and test_y must be given together")
    if test_x is None:
        return None, None
    test_x, test_y = _labelled_set(test_x, test_y, "test")
    if test_x.shape[1] != train_x.shape[1]:
        raise ValueError(f"test samples have {test_x.shape[1]} features, "
                         f"training samples {train_x.shape[1]}")
    return test_x, test_y


def train_loop(model_config: ModelConfig, train_x, train_y, config: TrainConfig,
               test_x=None, test_y=None,
               initial_params: ParamSet | None = None) -> RunRecord:
    """Run the optimizer for ``config.steps`` mini-batch updates: the
    one-run case of ``_train_runs``.

    Batches are drawn without replacement within an epoch and the order
    is reshuffled every epoch.  Metrics over the full train and test sets
    are recorded after every update.  Fully deterministic given the seed.

    One evaluator holds the train samples followed by the test samples.
    Each step makes one pass over it (``BatchEvaluator._steps``), which
    takes E and dE at the Nesterov lookahead θ − γ·a on the batch's
    samples, for the gradient, and E at the current θ on every sample,
    whose train and test columns give the metrics of the update before
    (at step 0, the initial metrics; there a = 0 and the lookahead is θ
    itself).  The last update's metrics come from one E-only evaluation,
    which reads register 1's firing probability and builds no
    distribution: ``steps + 1`` evaluator calls in all.  The derivative
    rows stay on the batch because the full sets can be many times larger
    (1000 + 100 samples against a batch of 30 in the image runs).  θ is
    drawn as one flat vector, with the values ``ParamSet.random`` gives,
    and stays one; the run's one ``ParamSet`` is built for the record.
    """
    return _train_runs([model_config], train_x, train_y, config, test_x, test_y,
                       initial_params)[0]


def _train_runs(model_configs, train_x, train_y, config: TrainConfig, test_x=None,
                test_y=None, initial_params: ParamSet | None = None) -> list[RunRecord]:
    """``train_loop`` for R models that differ in their noise alone, in
    lockstep: one ``RunRecord`` per config, each equal bit for bit to its
    own ``train_loop`` run.

    The runs share the data, the seed's draws (θ₀ and every batch order)
    and one evaluator (``BatchEvaluator._lockstep``), whose every pass
    serves all runs: one ``_steps`` pass per optimizer step and one E-only
    ``_stack`` evaluation at the end.  Each run's metrics, chain rule and
    Nesterov update read that run's slice.  Configs that differ in more
    than their noise, and several runs outside density execution, are
    refused.
    """
    model_config = _lockstep_config(model_configs)
    train_x, train_y = _labelled_set(train_x, train_y, "training")
    for label in (-1.0, 1.0):
        if not np.any(train_y == label):
            raise ValueError(f"training set has no samples with label {int(label)}")
    test_x, test_y = _check_test_set(train_x, test_x, test_y)

    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    n, link_mode = model_config.n, model_config.link_mode
    theta = (_random_vector(n, link_mode, init_rng) if initial_params is None
             else initial_params.checked_vector(n, link_mode))
    if config.steps:
        _check_exact(model_config)

    x, labels = ((train_x, train_y) if test_x is None else
                 (np.vstack([train_x, test_x]), np.concatenate([train_y, test_y])))
    evaluator = BatchEvaluator._lockstep(x, x, model_configs)

    histories: list[list[StepMetrics]] = [[] for _ in model_configs]
    thetas = np.repeat(theta[None], len(histories), axis=0)
    accs = np.zeros_like(thetas)
    count = train_x.shape[0]
    order: np.ndarray = np.empty(0, dtype=np.intp)
    cursor = 0

    for _ in range(config.steps):
        if cursor >= order.size:
            order = shuffle_rng.permutation(count)
            cursor = 0
        idx = order[cursor: cursor + config.batch_size]
        cursor += config.batch_size

        e_values, de, e_theta = evaluator._steps(thetas - config.momentum * accs, thetas, idx)
        # new arrays each step, so no pass's inputs change after it
        updated, accs_updated = np.empty_like(thetas), np.empty_like(accs)
        for r, history in enumerate(histories):
            history.append(_metrics(e_theta[r], labels, count))
            g = _chain_rule(train_y[idx], e_values[r], de[r])
            updated[r], accs_updated[r] = nesterov_step(thetas[r], accs[r], g,
                                                        config.learning_rate, config.momentum)
        thetas, accs = updated, accs_updated
    e_final = evaluator._stack(thetas[:, None], fired=True)[0][:, 0]

    records = []
    for history, e_values, theta in zip(histories, e_final, thetas):
        initial, *steps = history + [_metrics(e_values, labels, count)]
        records.append(RunRecord(initial, [m.loss for m in steps], [m.train_acc for m in steps],
                                 [m.test_acc for m in steps],
                                 ParamSet.from_vector(theta, n, link_mode)))
    return records


def _reference_gradient(evaluator: BatchEvaluator, theta: np.ndarray, labels) -> np.ndarray:
    """Central differences at ``_REFERENCE_STEP``: the 2P+1 rows
    [θ; θ + hI; θ − hI] in one E-only evaluation."""
    steps = np.diag(np.full(theta.size, _REFERENCE_STEP))
    e = evaluator._stack(np.vstack([theta, theta + steps, theta - steps])[None], fired=True)[0][0]
    de = (e[1: theta.size + 1] - e[theta.size + 1:]) / (2 * _REFERENCE_STEP)
    return _chain_rule(labels, e[0], de)


def gradient_check(model_config: ModelConfig, trials: int, seed: int) -> dict:
    """Compare the exact gradient against central differences.

    Each trial draws random features, labels, and parameters, computes
    both gradients on a small batch, the differences at step
    ``_REFERENCE_STEP``, and records every slot's worst relative error
    (with a denominator floor of 1e-6, so vanishing gradients compare on
    absolute error).  Returns a summary dict.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    names = ParamSet.zeros(model_config.n, model_config.link_mode).slot_names()
    per_slot = np.zeros(len(names))
    for _ in range(trials):
        batch = int(rng.integers(2, 5))
        if model_config.encoder == "amplitude":
            x = rng.uniform(-1.0, 1.0, size=(batch, model_config.feature_dim))
            x[np.linalg.norm(x, axis=1) < 1e-6] = 1.0
        else:
            x = rng.uniform(0.0, np.pi, size=(batch, model_config.feature_dim))
        y = np.where(rng.random(batch) < 0.5, -1.0, 1.0)
        theta = _random_vector(model_config.n, model_config.link_mode, rng)
        ev = BatchEvaluator(x, x, model_config)
        g_exact = gradient(ev, theta, y)
        g_fd = _reference_gradient(ev, theta, y)
        rel = np.abs(g_exact - g_fd) / np.maximum(np.abs(g_fd), 1e-6)
        per_slot = np.maximum(per_slot, rel)
    worst_slot = int(np.argmax(per_slot))
    return {
        "trials": trials,
        "worst_rel_error": float(per_slot[worst_slot]),
        "worst_slot": names[worst_slot],
        "slots": len(names),
        "per_slot": {name: float(v) for name, v in zip(names, per_slot)},
    }
