import dataclasses
import itertools

import numpy as np
import pytest

from qkattn import ansatz
from qkattn.ansatz import LINK_MODES, ParamSet
from qkattn.model import BatchEvaluator, ModelConfig, forward
from qkattn.sim import NoiseChannel
from qkattn.train import (_REFERENCE_STEP, RunRecord, TrainConfig, StepMetrics,
                          _chain_rule, _metrics, _reference_gradient, _train_runs, gradient,
                          gradient_check, nesterov_step, train_loop)
from test_model import FOUR_TERM_RULE, NOISE_SETS


def separable_data(rng, count=24):
    half = count // 2
    xa = rng.normal(0, 0.3, size=(half, 4))
    xa[:, 0] += 2.0
    xb = rng.normal(0, 0.3, size=(half, 4))
    xb[:, 2] += 2.0
    x = np.vstack([xa, xb])
    y = np.concatenate([np.full(half, -1.0), np.full(half, 1.0)])
    return x, y


def metrics(e_values, labels, m=None):
    """``train_loop``'s metrics of E against ±1 labels, the first m
    (all by default) the training samples and the rest the test samples."""
    e, y = np.asarray(e_values, dtype=float), np.asarray(labels, dtype=float)
    return _metrics(e, y, y.size if m is None else m)


def sign(e_values):
    return np.where(np.asarray(e_values) < 0, -1.0, 1.0)


def test_loss_examples():
    assert metrics([1.0, -1.0], [1.0, -1.0]).loss == 0.0
    assert metrics([0.5], [1.0]).loss == 0.25
    # the sign loss is the loss of the predictions: 4·(1 − accuracy)
    e, y = np.array([0.5, -0.5, 0.2, -0.1]), np.array([1.0, 1.0, -1.0, -1.0])
    assert metrics(sign(e), y).loss == 4 * (1 - metrics(e, y).train_acc) == 2.0


def test_surrogate_literal_consistency():
    rng = np.random.default_rng(0)
    margin = 0.3
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    e = y * rng.uniform(margin, 1.0, size=20)
    assert metrics(sign(e), y).loss == 0.0
    assert metrics(e, y).loss <= (1 - margin) ** 2 + 1e-12


def test_accuracy():
    assert metrics([0.4, -0.2], [1, -1]).train_acc == 1.0
    assert metrics([0.4, -0.2], [-1, 1]).train_acc == 0.0
    assert metrics([0.4, 0.2], [1, -1]).train_acc == 0.5
    # the samples after the first m are the test set, scored apart
    split = metrics([0.4, -0.2, 0.3, 0.1, -0.5], [1, 1, -1, 1, -1], m=2)
    assert (split.train_acc, split.test_acc) == (0.5, 2 / 3)
    assert np.isnan(metrics([0.4], [1]).test_acc)


def test_predictions_tie_break():
    # a prediction is sgn(E), the tie E = 0 reading +1
    e = [0.0, -0.1, 0.2, 0.3, -0.0001, 0.0]
    assert metrics(e, [1, -1, 1, 1, -1, 1]).train_acc == 1.0
    assert metrics(e, [-1, 1, -1, -1, 1, -1]).train_acc == 0.0


def test_nesterov_plain_descent_at_zero_momentum():
    theta = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    t1, a1 = nesterov_step(theta, np.zeros(2), g, 0.1, 0.0)
    assert np.allclose(t1, theta - 0.1 * g)
    assert np.allclose(a1, 0.1 * g)


def test_nesterov_two_step_unroll():
    theta = np.array([0.3, 0.7, -1.1])
    g = np.array([1.0, -0.5, 0.25])
    eta, gamma = 0.09, 0.9
    t1, a1 = nesterov_step(theta, np.zeros(3), g, eta, gamma)
    t2, _ = nesterov_step(t1, a1, g, eta, gamma)
    assert np.allclose(t2, theta - eta * g * (2 + gamma), atol=1e-14)


def test_nesterov_shape_mismatch():
    with pytest.raises(ValueError):
        nesterov_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.9)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    # one objective and one gradient rule: nothing selects either
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "learning_rate", "momentum", "batch_size", "steps", "seed"]
    # non-finite, boolean or non-numeric optimizer settings name their key
    for key in ("learning_rate", "momentum"):
        for value in (float("nan"), float("inf"), -float("inf"), True, "0.1", None):
            with pytest.raises(ValueError, match=repr(key)):
                TrainConfig(**{key: value})


def test_gradient_zero_at_exact_fit():
    # with y = E for every sample the squared loss sits at its minimum in E,
    # so the chain-rule factor vanishes slot by slot
    rng = np.random.default_rng(1)
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    x = rng.uniform(0, np.pi, size=(3, 1))
    p = cfg.random_params(rng)
    ev = BatchEvaluator(x, x, cfg)
    e, de = ev.derivatives(p.to_vector())
    y = e.copy()  # not valid labels, so call gradient internals directly
    g = _chain_rule(y, e, de)
    assert np.max(np.abs(g)) < 1e-12


@pytest.mark.parametrize("labels, message", [
    ([1.0, -1.0, 1.0], "expectation and label counts differ"),
    ([1.0, -1.0, 1.0, 0.5], "labels must be -1 or \\+1"),
])
def test_gradient_checks_labels_as_loss_does(labels, message):
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    ev = BatchEvaluator(rng.uniform(0, np.pi, size=(4, 1)), rng.uniform(0, np.pi, size=(4, 1)),
                        cfg)
    theta = cfg.random_params(rng).to_vector()
    with pytest.raises(ValueError, match=message) as err:
        gradient(ev, theta, labels)
    assert "\n" not in str(err.value)


def test_empty_batch_is_refused():
    # before, gradient warned "Mean of empty slice" and then refused a
    # non-finite loss
    rng = np.random.default_rng(3)
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    x = rng.uniform(0, np.pi, size=(4, 1))
    ev = BatchEvaluator(x, x, cfg)
    theta = cfg.random_params(rng).to_vector()
    with pytest.raises(ValueError, match="^no samples to score: the batch is empty$"):
        gradient(ev, theta, [], idx=[])


def test_gradient_batch_duplication_invariance():
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    x = rng.uniform(0, np.pi, size=(4, 4))
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    p = cfg.random_params(rng)
    g1 = gradient(BatchEvaluator(x, x, cfg), p.to_vector(), y)
    xx = np.vstack([x, x])
    g2 = gradient(BatchEvaluator(xx, xx, cfg), p.to_vector(), np.concatenate([y, y]))
    assert np.allclose(g1, g2, atol=1e-13)


CENTRAL_DIFFERENCE = ((_REFERENCE_STEP, 1.0 / (2.0 * _REFERENCE_STEP)),)


def slotwise_gradient(evaluator, theta, labels, rule, idx=None):
    """Reference: one-parameter-set evaluate calls per slot, combined by
    ``rule``, pairs of (shift, weight): ``FOUR_TERM_RULE`` for the exact
    gradient, ``CENTRAL_DIFFERENCE`` for ``gradient_check``'s reference."""
    mcfg = evaluator.config

    def e_at(vec):
        return evaluator.evaluate(ParamSet.from_vector(vec, mcfg.n, mcfg.link_mode), idx=idx)[0]

    chain = -2.0 * (np.asarray(labels, dtype=float) - e_at(theta))
    grad = np.zeros(theta.size)
    for k in range(theta.size):
        for shift, weight in rule:
            plus, minus = theta.copy(), theta.copy()
            plus[k] += shift
            minus[k] -= shift
            grad[k] += weight * np.mean(chain * (e_at(plus) - e_at(minus)))
    return grad


@pytest.mark.parametrize("execution", ("analytic", "density"))
def test_stacked_gradient_matches_slotwise_reference(execution):
    rng = np.random.default_rng(11)
    noise = (NoiseChannel("amplitude-damping", 0.08),) if execution == "density" else ()
    for variant in ("AmHE", "AnQAOA"):
        for link in LINK_MODES:
            cfg = ModelConfig.from_variant(variant, n=2, link_mode=link,
                                           execution=execution, noise=noise)
            if cfg.encoder == "amplitude":
                x = rng.uniform(-1, 1, size=(4, 4))
            else:
                x = rng.uniform(0, np.pi, size=(4, 4))
            ev = BatchEvaluator(x, x, cfg)
            theta = cfg.random_params(rng).to_vector()
            idx = np.array([1, 3, 1])
            y = np.array([1.0, -1.0, 1.0])
            g = gradient(ev, theta, y, idx=idx)
            ref = slotwise_gradient(ev, theta, y, FOUR_TERM_RULE, idx=idx)
            assert np.max(np.abs(g - ref)) < 1e-12, (variant, link)
            # gradient_check's reference holds only the batch's samples
            g = _reference_gradient(BatchEvaluator(x[idx], x[idx], cfg), theta, y)
            ref = slotwise_gradient(ev, theta, y, CENTRAL_DIFFERENCE, idx=idx)
            assert np.max(np.abs(g - ref)) < 1e-9, (variant, link)


def test_gradient_shift_matches_finite_difference():
    for enc in ("amplitude", "angle"):
        for anz in ("qaoa", "hea"):
            cfg = ModelConfig(n=2, encoder=enc, ansatz=anz)
            report = gradient_check(cfg, trials=5, seed=3)
            assert report["worst_rel_error"] < 1e-4, report


@pytest.mark.parametrize("noise", list(NOISE_SETS))
@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("link", LINK_MODES)
def test_gradient_check_passes_in_density_mode(noise, n, link):
    for variant in ("AmHE", "AnHE", "AmQAOA", "AnQAOA"):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link, execution="density",
                                       noise=NOISE_SETS[noise])
        report = gradient_check(cfg, trials=3, seed=7 + n)
        assert report["worst_rel_error"] < 1e-4, (variant, report)


def test_gradient_check_detects_bad_shift(monkeypatch):
    # a deliberately wrong derivative: every dE scaled by 1.1
    exact = BatchEvaluator.derivatives

    def scaled(*args, **kwargs):
        e, de = exact(*args, **kwargs)
        return e, 1.1 * de

    monkeypatch.setattr(BatchEvaluator, "derivatives", scaled)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="qaoa")
    report = gradient_check(cfg, trials=3, seed=4)
    assert report["worst_rel_error"] > 1e-4
    assert report["worst_slot"].startswith("theta")


def test_gradient_rejects_shots_mode():
    # a positive shot count under either execution mode
    rng = np.random.default_rng(5)
    for execution, noise in (("analytic", ()), ("density", (NoiseChannel("bit-flip", 0.1),))):
        cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa", execution=execution,
                          noise=noise, shots=10)
        ev = BatchEvaluator([[0.3]], [[0.3]], cfg)
        with pytest.raises(ValueError, match="'shots'"):
            gradient(ev, cfg.random_params(rng).to_vector(), [1.0])
        # train_loop refuses it too, unless it takes no step
        x, y = np.array([[0.3], [2.1]]), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="'shots'"):
            train_loop(cfg, x, y, TrainConfig(steps=1, batch_size=2))
        assert train_loop(cfg, x, y, TrainConfig(steps=0)).steps == 0


def test_train_loop_determinism():
    rng = np.random.default_rng(6)
    x, y = separable_data(rng)
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    tc = TrainConfig(steps=4, batch_size=8, seed=11)
    r1 = train_loop(cfg, x, y, tc)
    r2 = train_loop(cfg, x, y, tc)
    assert r1.loss == r2.loss
    assert r1.train_acc == r2.train_acc
    assert np.array_equal(r1.params.to_vector(), r2.params.to_vector())


def test_train_loop_zero_steps():
    rng = np.random.default_rng(7)
    x, y = separable_data(rng)
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    rec = train_loop(cfg, x, y, TrainConfig(steps=0))
    assert rec.steps == 0
    assert rec.loss == [] and rec.train_acc == []
    assert np.isfinite(rec.initial.loss)


def test_train_loop_decreases_loss():
    rng = np.random.default_rng(8)
    x, y = separable_data(rng)
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    rec = train_loop(cfg, x, y, TrainConfig(steps=15, batch_size=12, seed=1))
    assert rec.loss[-1] < rec.initial.loss


def test_train_loop_rejects_single_class():
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    x = np.random.default_rng(9).uniform(0, np.pi, size=(4, 4))
    with pytest.raises(ValueError):
        train_loop(cfg, x, np.ones(4), TrainConfig(steps=1))


def test_run_record_lengths():
    rng = np.random.default_rng(10)
    x, y = separable_data(rng, count=12)
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    steps = 5
    rec = train_loop(cfg, x[:, :1], y, TrainConfig(steps=steps, batch_size=4),
                     test_x=x[:4, :1], test_y=y[:4])
    assert isinstance(rec, RunRecord)
    assert len(rec.loss) == len(rec.train_acc) == len(rec.test_acc) == steps
    assert all(0.0 <= a <= 1.0 for a in rec.train_acc + rec.test_acc)
    assert rec.final == StepMetrics(rec.loss[-1], rec.train_acc[-1], rec.test_acc[-1])
    rec = train_loop(cfg, x[:, :1], y, TrainConfig(steps=0))
    assert rec.steps == 0 and rec.final == rec.initial


@pytest.mark.parametrize("test_x, test_y, message", [
    (np.zeros((2, 4)), None, "together"),
    (None, np.ones(2), "together"),
    (np.zeros((3, 4)), np.ones(2), "counts differ"),
    (np.zeros((2, 3)), np.ones(2), "features"),
    (np.zeros((2, 4)), np.array([1.0, 0.0]), "labels"),
    (np.zeros((0, 4)), np.zeros(0), "^test set is empty$"),
])
def test_train_loop_checks_test_set_before_building(monkeypatch, test_x, test_y, message):
    rng = np.random.default_rng(12)
    x, y = separable_data(rng, count=8)
    built = []
    monkeypatch.setattr(BatchEvaluator, "_build", lambda *args: built.append(args))
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    with pytest.raises(ValueError, match=message) as err:
        train_loop(cfg, x, y, TrainConfig(steps=1), test_x=test_x, test_y=test_y)
    assert "\n" not in str(err.value)
    assert built == []


def test_train_loop_checks_labels_before_building(monkeypatch):
    rng = np.random.default_rng(12)
    x, y = separable_data(rng, count=8)
    y[3] = 0.5
    built = []
    monkeypatch.setattr(BatchEvaluator, "_build", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        train_loop(ModelConfig(n=2), x, y, TrainConfig(steps=1))
    assert built == []


@pytest.mark.parametrize("column", ["train", "test"])
def test_train_loop_rejects_column_vector_labels(monkeypatch, column):
    # refused up front, before the evaluator is built or any pass runs
    rng = np.random.default_rng(13)
    x, y = separable_data(rng, count=8)
    train_y, test_y = (y[:, None], y[:4]) if column == "train" else (y, y[:4, None])
    built = []
    monkeypatch.setattr(BatchEvaluator, "_build", lambda *args: built.append(args))
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    with pytest.raises(ValueError, match="labels must be a 1-D array, got shape \\((8|4), 1\\)$"):
        train_loop(cfg, x[:, :1], train_y, TrainConfig(steps=2, batch_size=1),
                   test_x=x[:4, :1], test_y=test_y)
    assert built == []


def reference_train_loop(model_config, train_x, train_y, config, test_x=None, test_y=None):
    """The loop with two evaluators: the batch gradient through
    ``gradient(..., idx=...)`` at the lookahead, then ``evaluate`` for the
    full-set metrics of the updated parameters."""
    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    params = model_config.random_params(init_rng)
    train_eval = BatchEvaluator(train_x, train_x, model_config)
    test_eval = None if test_x is None else BatchEvaluator(test_x, test_x, model_config)

    def scores(p):
        e_train, _ = train_eval.evaluate(p)
        test_acc = float("nan")
        if test_eval is not None:
            test_acc = np.mean(sign(test_eval.evaluate(p)[0]) == test_y)
        return np.mean((train_y - e_train) ** 2), np.mean(sign(e_train) == train_y), test_acc

    history = [scores(params)]
    theta, acc = params.to_vector(), np.zeros(model_config.parameter_count)
    order, cursor = np.empty(0, dtype=np.intp), 0
    for _ in range(config.steps):
        if cursor >= order.size:
            order, cursor = shuffle_rng.permutation(train_y.size), 0
        idx = order[cursor: cursor + config.batch_size]
        cursor += config.batch_size
        g = gradient(train_eval, theta - config.momentum * acc, train_y[idx], idx=idx)
        theta, acc = nesterov_step(theta, acc, g, config.learning_rate, config.momentum)
        history.append(scores(ParamSet.from_vector(theta, model_config.n,
                                                    model_config.link_mode)))
    return np.array(history), theta


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("with_test", (False, True))
def test_train_loop_matches_two_evaluator_reference(execution, with_test):
    # 20 samples in batches of 7: the third batch holds 6, the fourth starts
    # a new epoch
    rng = np.random.default_rng(13)
    x, y = separable_data(rng, count=26)
    order = rng.permutation(26)
    train_x, train_y = x[order[:20]], y[order[:20]]
    test_x, test_y = (x[order[20:]], y[order[20:]]) if with_test else (None, None)
    noise = (NoiseChannel("bit-flip", 0.05),) if execution == "density" else ()
    for variant in ("AmHE", "AnQAOA"):
        cfg = ModelConfig.from_variant(variant, n=2, execution=execution, noise=noise)
        tc = TrainConfig(steps=6, batch_size=7, seed=4)
        rec = train_loop(cfg, train_x, train_y, tc, test_x=test_x, test_y=test_y)
        ref, theta = reference_train_loop(cfg, train_x, train_y, tc, test_x, test_y)
        got = np.array([[rec.initial.loss, rec.initial.train_acc, rec.initial.test_acc]]
                       + list(zip(rec.loss, rec.train_acc, rec.test_acc)))
        assert got.shape == ref.shape == (tc.steps + 1, 3)
        assert np.allclose(got, ref, rtol=0, atol=1e-10, equal_nan=True), variant
        assert np.all(np.isnan(got[:, 2])) != with_test
        assert np.max(np.abs(rec.params.to_vector() - theta)) < 1e-10, variant


@pytest.mark.parametrize("steps", (0, 3))
@pytest.mark.parametrize("with_test", (False, True))
def test_train_loop_builds_one_evaluator_and_makes_one_pass_per_step(monkeypatch, steps,
                                                                      with_test):
    # training builds its evaluator through the lockstep route, whose one
    # run's passes are _steps calls with a leading run axis
    counts = {"__init__": 0, "_build": 0, "step_values": 0, "_steps": 0,
              "evaluate_stack": 0, "derivatives": 0, "_stack": 0}
    passes, last = [], []
    for name in counts:
        original = getattr(BatchEvaluator, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            if _name == "_steps":
                passes.append(args[1:3])
            if _name == "_stack":
                last.append((args[1], kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(BatchEvaluator, name, counted)
    rng = np.random.default_rng(14)
    x, y = separable_data(rng, count=12)
    test = dict(test_x=x[:4], test_y=y[:4]) if with_test else {}
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    rec = train_loop(cfg, x, y, TrainConfig(steps=steps, batch_size=5), **test)
    # one pass per step, the first at θ0 for both the lookahead and the
    # initial metrics; then one E-only evaluation, at the final θ, for the
    # last step's metrics
    assert counts == {"__init__": 0, "_build": 1, "step_values": 0, "_steps": steps,
                      "evaluate_stack": 0, "derivatives": 0, "_stack": 1}
    if steps:
        look, at = passes[0]
        assert np.array_equal(look, at)
    (thetas, kwargs), = last
    assert kwargs == {"fired": True}
    assert np.array_equal(thetas, rec.params.to_vector()[None, None])
    assert rec.steps == steps


def history(record):
    """A run's metrics, initial then per step, as one array (NaN test
    accuracies without a test set)."""
    return np.array([dataclasses.astuple(record.initial)]
                    + list(zip(record.loss, record.train_acc, record.test_acc)))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_lockstep_runs_equal_separate_train_loops(n):
    # each run of a lockstep group, one per strength, equals its own
    # train_loop bit for bit: every loss and accuracy and the parameters,
    # both encoders and ansatzes, both links, either channel, with and
    # without a test set, before any step and after 7
    rng = np.random.default_rng(250 + n)
    for k, (variant, link) in enumerate(itertools.product(("AmHE", "AnQAOA"), LINK_MODES)):
        channel = ("bit-flip", "amplitude-damping")[k % 2]
        cfgs = [ModelConfig.from_variant(variant, n=n, link_mode=link, execution="density",
                                         noise=(NoiseChannel(channel, p),))
                for p in (0.0, 0.1, 0.3, 1.0)]
        x = (rng.uniform(-1.0, 1.0, size=(14, cfgs[0].feature_dim)) if variant == "AmHE"
             else rng.uniform(0.0, np.pi, size=(14, cfgs[0].feature_dim)))
        y = np.where(np.arange(14) % 2, 1.0, -1.0)
        for steps, test in ((0, True), (7, False), (7, True)):
            sets = dict(test_x=x[10:], test_y=y[10:]) if test else {}
            tc = TrainConfig(steps=steps, batch_size=4, seed=k)
            records = _train_runs(cfgs, x[:10], y[:10], tc, **sets)
            assert len(records) == len(cfgs)
            for cfg, rec in zip(cfgs, records):
                ref = train_loop(cfg, x[:10], y[:10], tc, **sets)
                assert rec.steps == ref.steps == steps
                assert np.array_equal(history(rec), history(ref), equal_nan=True), (cfg, steps)
                assert np.array_equal(rec.params.to_vector(), ref.params.to_vector()), cfg


def test_lockstep_runs_refuse_models_that_differ_beyond_noise(monkeypatch):
    # refused before the data is checked or an evaluator is built
    built = []
    monkeypatch.setattr(BatchEvaluator, "_build", lambda *args: built.append(args))
    noisy = ModelConfig(n=1, execution="density", noise=(NoiseChannel("bit-flip", 0.1),))
    cases = [([], "^lockstep needs at least one model config$"),
             ([noisy, dataclasses.replace(noisy, link_mode="per-qubit-literal")],
              "^lockstep runs must differ in 'noise' alone$"),
             ([noisy, dataclasses.replace(noisy, noise=(), execution="analytic")],
              "^lockstep runs must differ in 'noise' alone$"),
             ([ModelConfig(n=1), ModelConfig(n=1)],
              "^several runs train in lockstep under density execution only, not 'analytic'$")]
    for configs, message in cases:
        with pytest.raises(ValueError, match=message):
            _train_runs(configs, np.zeros((2, 2)), np.array([1.0, -1.0, 1.0]), TrainConfig())
    assert built == []


class _Unread:
    """Stands in for an array that only the distributions read; any use
    of it fails the test."""

    __array_ufunc__ = None

    def __init__(self, name):
        self.name = name

    def _read(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was read: a distribution was built")

    __getitem__ = __matmul__ = __rmatmul__ = __array__ = _read


@pytest.mark.parametrize("execution", ("analytic", "density"))
def test_training_and_gradient_check_build_no_distribution(monkeypatch, execution):
    # training and gradient_check read E alone, so register 1's firing
    # probability is all they need.  The arrays only the distributions
    # read are replaced after each evaluator is built: analytic mode's
    # φ_i and U_φ(w_j)† of _pure's distribution branch, and density mode's
    # pulled-back projectors _p_j
    built = []
    original = BatchEvaluator._build

    def unread(self, *args, **kwargs):
        original(self, *args, **kwargs)
        names = ("_phi_i", "_v_j") if execution == "analytic" else ("_p_j",)
        for name in names:
            setattr(self, name, _Unread(name))
        built.append(self)

    monkeypatch.setattr(BatchEvaluator, "_build", unread)
    rng = np.random.default_rng(17)
    x, y = separable_data(rng, count=12)
    noise = (NoiseChannel("bit-flip", 0.05),) if execution == "density" else ()
    for variant, link in ((v, lk) for v in ("AmHE", "AnQAOA") for lk in LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=2, link_mode=link, execution=execution,
                                       noise=noise)
        for steps in (0, 3):
            rec = train_loop(cfg, x, y, TrainConfig(steps=steps, batch_size=5),
                             test_x=x[:4], test_y=y[:4])
            assert rec.steps == steps
        assert gradient_check(cfg, trials=2, seed=5)["worst_rel_error"] < 1e-4
    assert len(built) == 4 * (2 + 2)
    with pytest.raises(AssertionError, match="a distribution was built"):
        built[-1].evaluate_stack(np.zeros((1, cfg.parameter_count)))


@pytest.mark.parametrize("link", LINK_MODES)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_train_loop_draws_the_initial_parameters_as_param_set_random(n, link):
    # one flat draw of every slot gives the values of ParamSet.random,
    # which draws them the same way, and of the four block draws it once
    # made: Generator.uniform fills its output in order
    cfg = ModelConfig(n=n, encoder="angle", link_mode=link)
    rng = np.random.default_rng(18 + n)
    x = rng.uniform(0, np.pi, size=(6, cfg.feature_dim))
    y = np.array([1.0, -1.0] * 3)
    for seed in (0, 11):
        rec = train_loop(cfg, x, y, TrainConfig(steps=0, seed=seed))
        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        expected = ParamSet.random(n, link, init_rng).to_vector()
        assert np.array_equal(rec.params.to_vector(), expected), seed
        blocks = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
        by_block = [blocks.uniform(0.0, 2.0 * np.pi, size=k)
                    for k in (2 * n, 2 * n, 2 * n, ansatz.link_slot_count(link, n))]
        assert np.array_equal(np.concatenate(by_block), expected), seed


def test_chain_rule_is_the_mean_form():
    # −(2/m)·dE·(y − E) is mean(−2(y − E)·dE) summed in another order
    rng = np.random.default_rng(19)
    for m, p in ((1, 7), (5, 14), (30, 16)):
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        e = rng.uniform(-1.0, 1.0, size=m)
        de = rng.normal(size=(p, m))
        g = _chain_rule(y, e, de)
        ref = np.mean(-2.0 * (y - e) * de, axis=1)
        assert g.shape == (p,)
        assert np.max(np.abs(g - ref)) <= 1e-14 * np.max(np.abs(ref))
        for bad in (np.nan, np.inf, -np.inf):
            e_bad = e.copy()
            e_bad[-1] = bad
            with pytest.raises(ValueError, match="^loss is not finite$"):
                _chain_rule(y, e_bad, de)


@pytest.mark.parametrize("link, blocks, message", [
    ("all-zeros-canonical", (5, 3, 4, 2), "theta1 has 5 parameters, expected 4"),
    ("all-zeros-canonical", (4, 4, 4, 3), "theta4 has 3 parameters, expected 2"),
    ("per-qubit-literal", (4, 4, 5, 3), "theta3 has 5 parameters, expected 4"),
])
def test_parameter_blocks_are_checked_one_by_one(link, blocks, message):
    # at n = 2 the blocks hold 4, 4, 4 and the link's 2 or 4 angles; a set
    # whose total is right but whose blocks are not is refused by name
    rng = np.random.default_rng(16)
    cfg = ModelConfig(n=2, link_mode=link)
    p = ParamSet(*(rng.uniform(0, 2 * np.pi, size=k) for k in blocks))
    x, y = separable_data(rng, count=12)
    with pytest.raises(ValueError, match=message):
        forward(x[0], x[0], p, cfg)
    with pytest.raises(ValueError, match=message):
        BatchEvaluator(x, x, cfg).evaluate(p)
    with pytest.raises(ValueError, match=message):
        train_loop(cfg, x, y, TrainConfig(steps=2, batch_size=5), initial_params=p)


def test_train_loop_builds_parameter_sets_independently_of_steps(monkeypatch):
    # θ is drawn as a flat vector and stays one through the loop: the
    # record's ParamSet is the only one, whatever the step count
    rng = np.random.default_rng(15)
    x, y = separable_data(rng, count=12)
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    built = []
    original = ParamSet.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(ansatz.ParamSet, "__post_init__", counted)
    sizes = []
    for steps in (0, 1, 6):
        built.clear()
        rec = train_loop(cfg, x, y, TrainConfig(steps=steps, batch_size=5))
        assert rec.steps == steps and isinstance(rec.params, ParamSet)
        sizes.append(len(built))
    assert sizes == [1, 1, 1]
