import dataclasses

import numpy as np
import pytest

from qkattn import ansatz
from qkattn.ansatz import LINK_MODES, ParamSet
from qkattn.model import BatchEvaluator, ModelConfig
from qkattn.sim import NoiseChannel
from qkattn.train import (_REFERENCE_STEP, RunRecord, TrainConfig, StepMetrics,
                          _reference_gradient, accuracy, gradient, gradient_check, loss,
                          nesterov_step, predictions_from_e, train_loop)
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


def test_loss_examples():
    assert loss([1.0, -1.0], [1.0, -1.0]) == 0.0
    assert loss([0.5], [1.0]) == 0.25
    # the sign loss is the loss of the predictions: 4·(1 − accuracy)
    e, y = np.array([0.5, -0.5, 0.2, -0.1]), np.array([1.0, 1.0, -1.0, -1.0])
    assert loss(predictions_from_e(e), y) == 4 * (1 - accuracy(predictions_from_e(e), y)) == 2.0
    with pytest.raises(ValueError):
        loss([0.5, 0.2], [1.0])
    with pytest.raises(ValueError):
        loss([0.5], [2.0])


def test_surrogate_literal_consistency():
    rng = np.random.default_rng(0)
    margin = 0.3
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    e = y * rng.uniform(margin, 1.0, size=20)
    assert loss(predictions_from_e(e), y) == 0.0
    assert loss(e, y) <= (1 - margin) ** 2 + 1e-12


def test_accuracy():
    assert accuracy([1, -1], [1, -1]) == 1.0
    assert accuracy([1, -1], [-1, 1]) == 0.0
    assert accuracy([1, 1], [1, -1]) == 0.5
    with pytest.raises(ValueError):
        accuracy([1], [1, -1])


def test_predictions_tie_break():
    assert list(predictions_from_e([0.0, -0.1, 0.2])) == [1, -1, 1]


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
    e, _ = ev.evaluate(p)
    y = e.copy()  # not valid labels, so call gradient internals directly
    g = gradient(ev, p.to_vector(), y)
    assert np.max(np.abs(g)) < 1e-12


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
])
def test_train_loop_checks_test_set_before_building(monkeypatch, test_x, test_y, message):
    rng = np.random.default_rng(12)
    x, y = separable_data(rng, count=8)
    built = []
    monkeypatch.setattr(BatchEvaluator, "__init__", lambda *args: built.append(args))
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
    monkeypatch.setattr(BatchEvaluator, "__init__", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        train_loop(ModelConfig(n=2), x, y, TrainConfig(steps=1))
    assert built == []


@pytest.mark.parametrize("column", ["train", "test"])
def test_train_loop_rejects_column_vector_labels(column):
    rng = np.random.default_rng(13)
    x, y = separable_data(rng, count=8)
    train_y, test_y = (y[:, None], y[:4]) if column == "train" else (y, y[:4, None])
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    with pytest.raises(ValueError, match="counts differ"):
        train_loop(cfg, x[:, :1], train_y, TrainConfig(steps=2, batch_size=1),
                   test_x=x[:4, :1], test_y=test_y)


def reference_train_loop(model_config, train_x, train_y, config, test_x=None, test_y=None):
    """The loop with two evaluators: the batch gradient through
    ``gradient(..., idx=...)`` at the lookahead, then ``evaluate`` for the
    full-set metrics of the updated parameters."""
    seq = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    params = model_config.random_params(init_rng)
    train_eval = BatchEvaluator(train_x, train_x, model_config)
    test_eval = None if test_x is None else BatchEvaluator(test_x, test_x, model_config)

    def metrics(p):
        e_train, _ = train_eval.evaluate(p)
        test_acc = float("nan")
        if test_eval is not None:
            test_acc = accuracy(predictions_from_e(test_eval.evaluate(p)[0]), test_y)
        return (loss(e_train, train_y),
                accuracy(predictions_from_e(e_train), train_y), test_acc)

    history = [metrics(params)]
    theta, acc = params.to_vector(), np.zeros(model_config.parameter_count)
    order, cursor = np.empty(0, dtype=np.intp), 0
    for _ in range(config.steps):
        if cursor >= order.size:
            order, cursor = shuffle_rng.permutation(train_y.size), 0
        idx = order[cursor: cursor + config.batch_size]
        cursor += config.batch_size
        g = gradient(train_eval, theta - config.momentum * acc, train_y[idx], idx=idx)
        theta, acc = nesterov_step(theta, acc, g, config.learning_rate, config.momentum)
        history.append(metrics(ParamSet.from_vector(theta, model_config.n,
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
def test_train_loop_builds_one_evaluator_and_calls_it_twice_per_step(monkeypatch, steps,
                                                                      with_test):
    counts = {"__init__": 0, "evaluate_stack": 0, "derivatives": 0}
    for name in counts:
        original = getattr(BatchEvaluator, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(BatchEvaluator, name, counted)
    rng = np.random.default_rng(14)
    x, y = separable_data(rng, count=12)
    test = dict(test_x=x[:4], test_y=y[:4]) if with_test else {}
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    train_loop(cfg, x, y, TrainConfig(steps=steps, batch_size=5), **test)
    # the initial metrics, then per step the gradient and the metrics
    assert counts == {"__init__": 1, "evaluate_stack": steps + 1, "derivatives": steps}


def test_train_loop_builds_parameter_sets_independently_of_steps(monkeypatch):
    # θ stays a flat vector through the loop: the random initial ParamSet
    # and the record's are the only ones, whatever the step count
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
    assert sizes == [2, 2, 2]
