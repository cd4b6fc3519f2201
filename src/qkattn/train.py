"""Hybrid training loop: squared loss, circuit gradients, Nesterov momentum.

The label head is sgn(E), whose loss has zero gradient almost everywhere,
so optimization runs on the smooth surrogate (1/m)Σ(y − E)² by default;
the sign-based literal loss stays available as a metric.  Each sample's
feature vector is fed to both model inputs (the token attends to itself).

Gradients of E use the parameter-shift rule for slots that feed a single
plain rotation gate and central finite differences for slots feeding
controlled rotations or the link; the squared loss then contributes
through the chain rule dL/dθ = mean(−2(y − E)·dE/dθ).  The shifted
parameter sets of one gradient are batched: the evaluator receives all
2P+1 of them as one stack.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .ansatz import ParamSet, param_slot_kinds
from .model import BatchEvaluator, ModelConfig

GRADIENT_METHODS = ("parameter-shift", "finite-difference")


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.09
    momentum: float = 0.9
    batch_size: int = 30
    steps: int = 120
    seed: int = 0
    gradient_method: str = "parameter-shift"
    fd_step: float = 1e-3
    surrogate: bool = True

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.steps < 0:
            raise ValueError("step budget cannot be negative")
        if self.gradient_method not in GRADIENT_METHODS:
            raise ValueError(f"unknown gradient method {self.gradient_method!r}")
        if self.fd_step <= 0:
            raise ValueError("finite-difference step must be positive")


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


def loss(e_values, labels, surrogate: bool = True) -> float:
    e = np.asarray(e_values, dtype=float)
    y = np.asarray(labels, dtype=float)
    if e.shape != y.shape:
        raise ValueError("expectation and label counts differ")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if not surrogate:
        e = np.where(e < 0, -1.0, 1.0)
    return float(np.mean((y - e) ** 2))


def accuracy(predictions, labels) -> float:
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError("prediction and label counts differ")
    return float(np.mean(p == y))


def predictions_from_e(e_values) -> np.ndarray:
    return np.where(np.asarray(e_values, dtype=float) < 0, -1, 1)


def gradient(evaluator: BatchEvaluator, params: ParamSet, labels, config: TrainConfig,
             idx=None, shift: float = np.pi / 2) -> np.ndarray:
    """Gradient of the surrogate loss over one batch.

    All 2P+1 parameter sets (the base point, then each slot shifted up,
    then each shifted down) go to the evaluator in one stacked call.
    ``shift`` is the parameter-shift constant; it is exposed so a
    deliberately wrong value can be injected to validate the gradient
    checker.  Deterministic execution modes only (analytic or density).
    """
    mcfg = evaluator.config
    if mcfg.execution == "shots":
        raise ValueError("gradients need a deterministic execution mode")
    y = np.asarray(labels, dtype=float)
    theta = params.to_vector()
    is_shift = np.equal(param_slot_kinds(mcfg.ansatz, mcfg.link_mode, mcfg.n), "shift")
    if config.gradient_method == "finite-difference":
        is_shift[:] = False
    steps = np.diag(np.where(is_shift, shift, config.fd_step))
    e, _ = evaluator.evaluate_stack(np.vstack([theta, theta + steps, theta - steps]), idx=idx)

    e_base = e[0]
    base_loss = np.mean((y - e_base) ** 2)
    if not np.isfinite(base_loss):
        raise ValueError("loss is not finite")
    chain = -2.0 * (y - e_base)
    plus, minus = e[1: theta.size + 1], e[theta.size + 1:]
    de = (plus - minus) / np.where(is_shift, 2.0, 2.0 * config.fd_step)[:, None]
    return np.mean(chain * de, axis=1)


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


def _metrics(train_eval, test_eval, params: ParamSet, train_y, test_y,
             surrogate: bool) -> StepMetrics:
    e_train, _ = train_eval.evaluate(params)
    run_loss = loss(e_train, train_y, surrogate)
    train_acc = accuracy(predictions_from_e(e_train), train_y)
    if test_eval is None:
        test_acc = float("nan")
    else:
        e_test, _ = test_eval.evaluate(params)
        test_acc = accuracy(predictions_from_e(e_test), test_y)
    return StepMetrics(run_loss, train_acc, test_acc)


def train_loop(model_config: ModelConfig, train_x, train_y, config: TrainConfig,
               test_x=None, test_y=None,
               initial_params: ParamSet | None = None) -> RunRecord:
    """Run the optimizer for ``config.steps`` mini-batch updates.

    Batches are drawn without replacement within an epoch and the order
    is reshuffled every epoch.  Metrics over the full train and test sets
    are recorded after every update.  Fully deterministic given the seed.
    """
    train_x = np.atleast_2d(np.asarray(train_x, dtype=float))
    train_y = np.asarray(train_y, dtype=float)
    if train_x.shape[0] != train_y.size:
        raise ValueError("feature and label counts differ")
    if train_x.shape[0] == 0:
        raise ValueError("training set is empty")
    for label in (-1.0, 1.0):
        if not np.any(train_y == label):
            raise ValueError(f"training set has no samples with label {int(label)}")

    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    if initial_params is None:
        params = model_config.random_params(init_rng)
    else:
        params = initial_params

    train_eval = BatchEvaluator(train_x, train_x, model_config)
    test_eval = None
    if test_x is not None:
        test_x = np.atleast_2d(np.asarray(test_x, dtype=float))
        test_y = np.asarray(test_y, dtype=float)
        test_eval = BatchEvaluator(test_x, test_x, model_config)

    initial = _metrics(train_eval, test_eval, params, train_y, test_y, config.surrogate)
    losses: list[float] = []
    train_accs: list[float] = []
    test_accs: list[float] = []

    theta = params.to_vector()
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

        lookahead = ParamSet.from_vector(theta - config.momentum * acc,
                                         model_config.n, model_config.link_mode)
        g = gradient(train_eval, lookahead, train_y[idx], config, idx=idx)
        theta, acc = nesterov_step(theta, acc, g, config.learning_rate, config.momentum)

        params = ParamSet.from_vector(theta, model_config.n, model_config.link_mode)
        m = _metrics(train_eval, test_eval, params, train_y, test_y, config.surrogate)
        losses.append(m.loss)
        train_accs.append(m.train_acc)
        test_accs.append(m.test_acc)

    return RunRecord(initial, losses, train_accs, test_accs, params)


def gradient_check(model_config: ModelConfig, trials: int, seed: int,
                   shift: float = np.pi / 2, fd_step: float = 1e-3,
                   rel_floor: float = 1e-6) -> dict:
    """Compare parameter-shift gradients against finite differences.

    Each trial draws random features, labels, and parameters, computes
    both gradients on a small batch, and records the worst relative error
    on the parameter-shift slots (with a denominator floor so vanishing
    gradients compare on absolute error).  Returns a summary dict.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    cfg_shift = TrainConfig(gradient_method="parameter-shift", fd_step=fd_step)
    cfg_fd = TrainConfig(gradient_method="finite-difference", fd_step=fd_step)
    kinds = param_slot_kinds(model_config.ansatz, model_config.link_mode, model_config.n)
    names = ParamSet.zeros(model_config.n, model_config.link_mode).slot_names()
    per_slot = np.zeros(len(kinds))
    for _ in range(trials):
        batch = int(rng.integers(2, 5))
        if model_config.encoder == "amplitude":
            x = rng.uniform(-1.0, 1.0, size=(batch, model_config.feature_dim))
            x[np.linalg.norm(x, axis=1) < 1e-6] = 1.0
        else:
            x = rng.uniform(0.0, np.pi, size=(batch, model_config.feature_dim))
        y = np.where(rng.random(batch) < 0.5, -1.0, 1.0)
        params = model_config.random_params(rng)
        ev = BatchEvaluator(x, x, model_config)
        g_shift = gradient(ev, params, y, cfg_shift, shift=shift)
        g_fd = gradient(ev, params, y, cfg_fd)
        for k, kind in enumerate(kinds):
            if kind != "shift":
                continue
            rel = abs(g_shift[k] - g_fd[k]) / max(abs(g_fd[k]), rel_floor)
            per_slot[k] = max(per_slot[k], rel)
    worst_slot = int(np.argmax(per_slot))
    return {
        "trials": trials,
        "worst_rel_error": float(per_slot[worst_slot]),
        "worst_slot": names[worst_slot],
        "slots": len(kinds),
        "per_slot": {name: float(v) for name, v in zip(names, per_slot)},
        "slot_kinds": dict(zip(names, kinds)),
    }
