import numpy as np
import pytest

from qkattn.ansatz import LINK_MODES, ParamSet, param_slot_kinds
from qkattn.model import BatchEvaluator, ModelConfig
from qkattn.sim import NoiseChannel
from qkattn.train import (GRADIENT_METHODS, RunRecord, TrainConfig, accuracy,
                          gradient, gradient_check, loss, nesterov_step,
                          predictions_from_e, train_loop)


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
    assert loss([0.5], [1.0], surrogate=False) == 0.0
    assert loss([-0.5], [1.0], surrogate=False) == 4.0
    with pytest.raises(ValueError):
        loss([0.5, 0.2], [1.0])
    with pytest.raises(ValueError):
        loss([0.5], [2.0])


def test_surrogate_literal_consistency():
    rng = np.random.default_rng(0)
    margin = 0.3
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    e = y * rng.uniform(margin, 1.0, size=20)
    assert loss(e, y, surrogate=False) == 0.0
    assert loss(e, y, surrogate=True) <= (1 - margin) ** 2 + 1e-12


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
    with pytest.raises(ValueError):
        TrainConfig(gradient_method="spsa")


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
    tc = TrainConfig()
    g = gradient(ev, p, y, tc)
    assert np.max(np.abs(g)) < 1e-12


def test_gradient_batch_duplication_invariance():
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    x = rng.uniform(0, np.pi, size=(4, 4))
    y = np.array([-1.0, 1.0, 1.0, -1.0])
    p = cfg.random_params(rng)
    tc = TrainConfig()
    g1 = gradient(BatchEvaluator(x, x, cfg), p, y, tc)
    xx = np.vstack([x, x])
    g2 = gradient(BatchEvaluator(xx, xx, cfg), p, np.concatenate([y, y]), tc)
    assert np.allclose(g1, g2, atol=1e-13)


def slotwise_gradient(evaluator, params, labels, config, idx=None, shift=np.pi / 2):
    """Reference: two one-parameter-set evaluate calls per slot."""
    mcfg = evaluator.config
    theta = params.to_vector()
    kinds = param_slot_kinds(mcfg.ansatz, mcfg.link_mode, mcfg.n)
    if config.gradient_method == "finite-difference":
        kinds = ["fd"] * len(kinds)

    def e_at(vec):
        return evaluator.evaluate(ParamSet.from_vector(vec, mcfg.n, mcfg.link_mode), idx=idx)[0]

    chain = -2.0 * (np.asarray(labels, dtype=float) - e_at(theta))
    grad = np.empty(theta.size)
    for k, kind in enumerate(kinds):
        delta = shift if kind == "shift" else config.fd_step
        plus, minus = theta.copy(), theta.copy()
        plus[k] += delta
        minus[k] -= delta
        scale = 2.0 if kind == "shift" else 2.0 * config.fd_step
        grad[k] = np.mean(chain * (e_at(plus) - e_at(minus)) / scale)
    return grad, np.array(kinds) == "shift"


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
            p = cfg.random_params(rng)
            idx = np.array([1, 3, 1])
            y = np.array([1.0, -1.0, 1.0])
            for method in GRADIENT_METHODS:
                tc = TrainConfig(gradient_method=method)
                g = gradient(ev, p, y, tc, idx=idx)
                ref, is_shift = slotwise_gradient(ev, p, y, tc, idx=idx)
                err = np.abs(g - ref)
                assert np.all(err[is_shift] < 1e-12), (variant, link, method)
                assert np.all(err[~is_shift] < 1e-9), (variant, link, method)


def test_gradient_shift_matches_finite_difference():
    for enc in ("amplitude", "angle"):
        for anz in ("qaoa", "hea"):
            cfg = ModelConfig(n=2, encoder=enc, ansatz=anz)
            report = gradient_check(cfg, trials=5, seed=3)
            assert report["worst_rel_error"] < 1e-4, report


def test_gradient_check_detects_bad_shift():
    cfg = ModelConfig(n=2, encoder="angle", ansatz="qaoa")
    report = gradient_check(cfg, trials=3, seed=4, shift=np.pi / 2 * 1.1)
    assert report["worst_rel_error"] > 1e-4
    assert report["worst_slot"].startswith("theta")


def test_gradient_rejects_shots_mode():
    cfg = ModelConfig(n=1, encoder="angle", ansatz="qaoa")
    rng = np.random.default_rng(5)
    ev = BatchEvaluator([[0.3]], [[0.3]], cfg)
    bad = ModelConfig(n=1, encoder="angle", ansatz="qaoa",
                      execution="shots", shots=10)
    ev.config = bad
    with pytest.raises(ValueError):
        gradient(ev, cfg.random_params(rng), [1.0], TrainConfig())


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
