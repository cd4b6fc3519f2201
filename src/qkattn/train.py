"""Hybrid training loop: squared loss, circuit gradients, Nesterov momentum.

The label head is sgn(E), whose loss has zero gradient almost everywhere,
so optimization runs on, and every run records, the smooth surrogate
(1/m)Σ(y − E)²; the sign loss (1/m)Σ(y − sgn E)² would only restate
accuracy, as 4·(1 − train_acc) for ±1 labels.  Each sample's feature
vector is fed to both model inputs (the token attends to itself).

Gradients of E are exact in every slot: ``BatchEvaluator.derivatives``
runs each register once on its parameter row and that row's derivative
rows, built from the same cached rotation factors, and the squared loss
contributes through the chain rule dL/dθ = mean(−2(y − E)·dE/dθ).
Central finite differences survive only as ``gradient_check``'s reference.

``train_loop`` keeps the parameters as one flat vector, builds one
evaluator over the train samples followed by the test samples, and makes
two calls to it per optimizer step: the gradient on the batch's samples
only, then the updated parameters on every sample for the train and test
metrics.
"""
from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

from .ansatz import ParamSet
from .model import BatchEvaluator, ModelConfig

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


def loss(e_values, labels) -> float:
    e = np.asarray(e_values, dtype=float)
    y = np.asarray(labels, dtype=float)
    if e.shape != y.shape:
        raise ValueError("expectation and label counts differ")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be -1 or +1")
    return float(np.mean((y - e) ** 2))


def accuracy(predictions, labels) -> float:
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError("prediction and label counts differ")
    return float(np.mean(p == y))


def predictions_from_e(e_values) -> np.ndarray:
    return np.where(np.asarray(e_values, dtype=float) < 0, -1, 1)


def _chain_rule(labels, e_values, de) -> np.ndarray:
    """The surrogate loss's dL/dθ = mean(−2(y − E)·dE/dθ), one row of ``de`` per slot."""
    y = np.asarray(labels, dtype=float)
    if not np.isfinite(np.mean((y - e_values) ** 2)):
        raise ValueError("loss is not finite")
    return np.mean(-2.0 * (y - e_values) * de, axis=1)


def gradient(evaluator: BatchEvaluator, theta, labels, idx=None) -> np.ndarray:
    """Exact gradient of the surrogate loss over one batch at the flat vector
    ``theta``; a model that samples ``shots`` has no exact E and is refused."""
    if evaluator.config.shots:
        raise ValueError("gradients need the exact E; set 'shots' to 0")
    e_values, de = evaluator.derivatives(theta, idx=idx)
    return _chain_rule(labels, e_values, de)


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


def _metrics(evaluator: BatchEvaluator, theta: np.ndarray, train_y: np.ndarray,
             test_y: np.ndarray | None) -> StepMetrics:
    """Metrics of the flat parameter vector ``theta`` from one evaluation
    over the train samples followed by the test samples."""
    e_values = evaluator.evaluate_stack(theta[None])[0][0]
    m = train_y.size
    predictions = predictions_from_e(e_values)
    test_acc = float("nan") if test_y is None else accuracy(predictions[m:], test_y)
    return StepMetrics(loss(e_values[:m], train_y),
                       accuracy(predictions[:m], train_y), test_acc)


def _check_test_set(train_x: np.ndarray, test_x, test_y):
    """The test set as arrays, or (None, None) without one."""
    if (test_x is None) != (test_y is None):
        raise ValueError("test_x and test_y must be given together")
    if test_x is None:
        return None, None
    test_x = np.atleast_2d(np.asarray(test_x, dtype=float))
    test_y = np.asarray(test_y, dtype=float)
    if test_x.shape[0] != test_y.size:
        raise ValueError("test feature and label counts differ")
    if test_x.shape[1] != train_x.shape[1]:
        raise ValueError(f"test samples have {test_x.shape[1]} features, "
                         f"training samples {train_x.shape[1]}")
    if not np.all(np.isin(test_y, (-1.0, 1.0))):
        raise ValueError("test labels must be -1 or +1")
    return test_x, test_y


def train_loop(model_config: ModelConfig, train_x, train_y, config: TrainConfig,
               test_x=None, test_y=None,
               initial_params: ParamSet | None = None) -> RunRecord:
    """Run the optimizer for ``config.steps`` mini-batch updates.

    Batches are drawn without replacement within an epoch and the order
    is reshuffled every epoch.  Metrics over the full train and test sets
    are recorded after every update.  Fully deterministic given the seed.

    One evaluator holds the train samples followed by the test samples.
    Each step takes the ``gradient`` at the Nesterov lookahead θ − γ·a on
    the batch's samples only, then evaluates the updated θ on every
    sample, whose train and test columns give the step's metrics: with
    the initial metrics, ``2·steps + 1`` evaluator calls in all.  The
    gradient stays on the batch because the full sets can be many times
    larger (1000 + 100 samples against a batch of 30 in the image runs).
    θ stays a flat vector; the one ``ParamSet`` is built for the record.
    """
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    train_y = np.asarray(train_y, dtype=float)
    if train_x.shape[0] != train_y.size:
        raise ValueError("feature and label counts differ")
    if train_x.shape[0] == 0:
        raise ValueError("training set is empty")
    if not np.all(np.isin(train_y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    for label in (-1.0, 1.0):
        if not np.any(train_y == label):
            raise ValueError(f"training set has no samples with label {int(label)}")
    test_x, test_y = _check_test_set(train_x, test_x, test_y)

    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    if initial_params is None:
        initial_params = model_config.random_params(init_rng)
    theta = initial_params.to_vector()

    x = train_x if test_x is None else np.vstack([train_x, test_x])
    evaluator = BatchEvaluator(x, x, model_config)

    initial = _metrics(evaluator, theta, train_y, test_y)
    losses: list[float] = []
    train_accs: list[float] = []
    test_accs: list[float] = []

    acc = np.zeros_like(theta)
    count = train_x.shape[0]
    order: np.ndarray = np.empty(0, dtype=np.intp)
    cursor = 0

    for _ in range(config.steps):
        if cursor >= order.size:
            order = shuffle_rng.permutation(count)
            cursor = 0
        idx = order[cursor: cursor + config.batch_size]
        cursor += config.batch_size

        g = gradient(evaluator, theta - config.momentum * acc, train_y[idx], idx=idx)
        theta, acc = nesterov_step(theta, acc, g, config.learning_rate, config.momentum)

        m = _metrics(evaluator, theta, train_y, test_y)
        losses.append(m.loss)
        train_accs.append(m.train_acc)
        test_accs.append(m.test_acc)

    return RunRecord(initial, losses, train_accs, test_accs,
                     ParamSet.from_vector(theta, model_config.n, model_config.link_mode))


def _reference_gradient(evaluator: BatchEvaluator, theta: np.ndarray, labels) -> np.ndarray:
    """Central differences at ``_REFERENCE_STEP``: the 2P+1 rows
    [θ; θ + hI; θ − hI] in one ``evaluate_stack`` call."""
    steps = np.diag(np.full(theta.size, _REFERENCE_STEP))
    e, _ = evaluator.evaluate_stack(np.vstack([theta, theta + steps, theta - steps]))
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
        theta = model_config.random_params(rng).to_vector()
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
