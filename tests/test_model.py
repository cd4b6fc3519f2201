import numpy as np
import pytest

from qkattn import sim
from qkattn.ansatz import ParamSet
from qkattn.ansatz import LINK_MODES
from qkattn.model import (VARIANTS, BatchEvaluator, ModelConfig, build_full_circuit,
                          build_register1, build_register2, forward, predict,
                          qksas)


def random_features(cfg, rng):
    if cfg.encoder == "amplitude":
        while True:
            v = rng.uniform(-1, 1, size=cfg.feature_dim)
            if np.linalg.norm(v) > 1e-6:
                return v
    return rng.uniform(0, np.pi, size=cfg.feature_dim)


def all_configs(n=2):
    for enc in ("amplitude", "angle"):
        for anz in ("qaoa", "hea"):
            yield ModelConfig(n=n, encoder=enc, ansatz=anz)


def test_config_validation_and_variants():
    assert ModelConfig(encoder="amplitude", ansatz="hea").variant == "AmHE"
    assert ModelConfig.from_variant("AnQAOA").ansatz == "qaoa"
    assert ModelConfig(n=2).parameter_count == 14
    assert ModelConfig(n=2, link_mode="per-qubit-literal").parameter_count == 16
    assert ModelConfig(n=3, encoder="angle").feature_dim == 9
    with pytest.raises(ValueError):
        ModelConfig(execution="shots")  # needs a shot count
    with pytest.raises(ValueError):
        ModelConfig(noise=(sim.NoiseChannel("bit-flip", 0.1),))  # needs density
    with pytest.raises(ValueError):
        ModelConfig.from_variant("AmVQE")


def test_kernel_self_consistency():
    rng = np.random.default_rng(0)
    for cfg in all_configs():
        for _ in range(25):
            w = random_features(cfg, rng)
            theta = rng.uniform(0, 2 * np.pi, size=2 * cfg.n)
            rec = qksas(w, w, theta, theta, cfg)
            assert abs(rec.p0 - 1.0) < 1e-10
            assert np.isclose(rec.distribution.sum(), 1.0, atol=1e-10)


def test_qksas_symmetry():
    rng = np.random.default_rng(1)
    for cfg in all_configs():
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        t1 = rng.uniform(0, 2 * np.pi, size=2 * cfg.n)
        t2 = rng.uniform(0, 2 * np.pi, size=2 * cfg.n)
        a = qksas(wi, wj, t1, t2, cfg)
        b = qksas(wj, wi, t2, t1, cfg)
        assert abs(a.p0 - b.p0) < 1e-12


def test_qksas_brute_force_oracle():
    # p0 equals |<0|U|0>|^2 with U assembled by explicit matrix products
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    wi, wj = random_features(cfg, rng), random_features(cfg, rng)
    t1 = rng.uniform(0, 2 * np.pi, size=4)
    t2 = rng.uniform(0, 2 * np.pi, size=4)
    circ = build_register1(wi, wj, t1, t2, cfg)
    total = np.eye(4, dtype=complex)
    for op in circ.ops:
        total = sim.expand_matrix(op.matrix(), op.coords, 2) @ total
    rec = qksas(wi, wj, t1, t2, cfg)
    assert abs(rec.p0 - abs(total[0, 0]) ** 2) < 1e-12


def test_register1_identity_example():
    cfg = ModelConfig(n=2, encoder="angle", ansatz="qaoa")
    rng = np.random.default_rng(3)
    w = random_features(cfg, rng)
    theta = rng.uniform(0, 2 * np.pi, size=4)
    state = sim.run_circuit(build_register1(w, w, theta, theta, cfg), "pure").state
    assert np.isclose(abs(state.amps[0]), 1.0, atol=1e-12)


def test_register2_locality():
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    circ = build_register2([0.4, 0.2, 0.9, 0.1], np.ones(4), cfg).shifted(2, 4)
    assert all(min(op.coords) >= 2 for op in circ.ops)


def test_forward_theta4_zero_is_identity_link():
    rng = np.random.default_rng(4)
    for cfg in all_configs():
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        p_zero = ParamSet(p.theta1, p.theta2, p.theta3, np.zeros_like(p.theta4))
        e, _ = forward(wi, wj, p_zero, cfg)
        bare = sim.run_circuit(build_register2(wj, p.theta3, cfg), "pure").state
        assert abs(e - sim.expectation_z(bare, cfg.n - 1)) < 1e-12


def test_forward_p0_one_single_branch():
    rng = np.random.default_rng(5)
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="hea")
    w = random_features(cfg, rng)
    theta = rng.uniform(0, 2 * np.pi, size=4)
    p = ParamSet(theta, theta, rng.uniform(0, 2 * np.pi, size=4),
                 rng.uniform(0, 2 * np.pi, size=2))
    e, rec = forward(w, w, p, cfg)
    assert abs(rec.p0 - 1.0) < 1e-10
    # E must equal <Z> of the link-applied register-2 state
    reg2 = build_register2(w, p.theta3, cfg)
    for c in range(cfg.n):
        reg2.gate("RY", (c,), float(p.theta4[c]))
    linked = sim.run_circuit(reg2, "pure").state
    assert abs(e - sim.expectation_z(linked, cfg.n - 1)) < 1e-10


def test_analytic_matches_deferred_full_circuit():
    rng = np.random.default_rng(6)
    for cfg in all_configs():
        for n in (1, 2):
            c = ModelConfig(n=n, encoder=cfg.encoder, ansatz=cfg.ansatz)
            wi, wj = random_features(c, rng), random_features(c, rng)
            p = c.random_params(rng)
            e, _ = forward(wi, wj, p, c)
            circ = build_full_circuit(wi, wj, p, c, form="deferred")
            state = sim.run_circuit(circ, "pure").state
            assert abs(e - sim.expectation_z(state, 2 * n - 1)) < 1e-10


def test_analytic_matches_density_at_zero_noise():
    rng = np.random.default_rng(7)
    for cfg in all_configs():
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        e, _ = forward(wi, wj, p, cfg)
        dcfg = ModelConfig(n=cfg.n, encoder=cfg.encoder, ansatz=cfg.ansatz,
                           execution="density")
        ed, _ = forward(wi, wj, p, dcfg)
        assert abs(e - ed) < 1e-12


def test_density_evaluator_matches_full_conditional_sim():
    rng = np.random.default_rng(8)
    noise = (sim.NoiseChannel("bit-flip", 0.07),
             sim.NoiseChannel("amplitude-damping", 0.05))
    for n in (1, 2):
        cfg = ModelConfig(n=n, encoder="amplitude", ansatz="hea",
                          execution="density", noise=noise)
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        e, probs = BatchEvaluator([wi], [wj], cfg).evaluate(p)
        circ = build_full_circuit(wi, wj, p, cfg, form="conditional")
        res = sim.run_circuit(circ, "density", noise=noise)
        assert abs(e[0] - sim.expectation_z(res.state, 2 * n - 1)) < 1e-12
        assert np.max(np.abs(probs[0] - res.measurement_probs[0])) < 1e-12


def test_literal_link_evaluator_matches_full_circuit():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        cfg = ModelConfig(n=n, encoder="angle", ansatz="qaoa",
                          link_mode="per-qubit-literal")
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        e, _ = BatchEvaluator([wi], [wj], cfg).evaluate(p)
        circ = build_full_circuit(wi, wj, p, cfg)
        state = sim.run_circuit(circ, "pure").state
        assert abs(e[0] - sim.expectation_z(state, 2 * n - 1)) < 1e-12


@pytest.mark.parametrize("n", (1, 2, 3))
def test_analytic_evaluator_matches_full_circuit_oracle(n):
    # E against the full conditional circuit, the distributions against a
    # measurement of the register-1 circuit; idx repeats a pair
    rng = np.random.default_rng(20 + n)
    for variant in VARIANTS:
        for link in LINK_MODES:
            cfg = ModelConfig.from_variant(variant, n=n, link_mode=link)
            wi = np.array([random_features(cfg, rng) for _ in range(3)])
            wj = np.array([random_features(cfg, rng) for _ in range(3)])
            p = cfg.random_params(rng)
            oracle = []
            for a, b in zip(wi, wj):
                full = build_full_circuit(a, b, p, cfg, form="conditional")
                e_ref = sim.expectation_z(sim.run_circuit(full, "density").state, 2 * n - 1)
                reg1 = sim.Circuit(n, clbits=n)
                reg1.extend(build_register1(a, b, p.theta1, p.theta2, cfg))
                reg1.measure(range(n), range(n))
                oracle.append((e_ref, sim.run_circuit(reg1, "density").measurement_probs[0]))
            ev = BatchEvaluator(wi, wj, cfg)
            idx = np.array([2, 0, 2])
            for rows, (e, probs) in ((range(3), ev.evaluate(p)), (idx, ev.evaluate(p, idx=idx))):
                for k, row in enumerate(rows):
                    e_ref, p_ref = oracle[row]
                    assert abs(e[k] - e_ref) < 1e-12, (variant, link)
                    assert np.max(np.abs(probs[k] - p_ref)) < 1e-12, (variant, link)


def test_evaluate_stack_rows_match_evaluate():
    rng = np.random.default_rng(21)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    x = rng.uniform(0, np.pi, size=(4, 4))
    ev = BatchEvaluator(x, x, cfg)
    thetas = np.array([cfg.random_params(rng).to_vector() for _ in range(3)])
    e, probs = ev.evaluate_stack(thetas, idx=[3, 1])
    assert e.shape == (3, 2) and probs.shape == (3, 2, 4)
    for k, vec in enumerate(thetas):
        e1, p1 = ev.evaluate(ParamSet.from_vector(vec, 2, cfg.link_mode), idx=[3, 1])
        assert np.max(np.abs(e[k] - e1)) < 1e-13
        assert np.max(np.abs(probs[k] - p1)) < 1e-13
    with pytest.raises(ValueError):
        ev.evaluate_stack(thetas[:, :-1])
    bad = thetas.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        ev.evaluate_stack(bad)


def test_batch_matches_single_evaluation():
    rng = np.random.default_rng(10)
    cfg = ModelConfig(n=2, encoder="amplitude", ansatz="qaoa")
    W = rng.uniform(-1, 1, size=(6, 4))
    p = cfg.random_params(rng)
    eb, pb = BatchEvaluator(W, W, cfg).evaluate(p)
    for k in range(6):
        e1, p1 = BatchEvaluator([W[k]], [W[k]], cfg).evaluate(p)
        assert abs(eb[k] - e1[0]) < 1e-13
        assert np.max(np.abs(pb[k] - p1[0])) < 1e-13


def test_shots_mode_agrees_within_three_standard_errors():
    rng = np.random.default_rng(11)
    shots = 100_000
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    scfg = ModelConfig(n=2, encoder="angle", ansatz="hea",
                       execution="shots", shots=shots)
    wi = rng.uniform(0, np.pi, size=4)
    wj = rng.uniform(0, np.pi, size=4)
    p = cfg.random_params(rng)
    e, _ = forward(wi, wj, p, cfg)
    es, _ = forward(wi, wj, p, scfg, rng=rng)
    se = np.sqrt(max(1.0 - e**2, 1e-6) / shots)
    assert abs(e - es) < 3 * se + 1e-6


def test_register_locality_wi_perturbation():
    # changing w_i must not move the unlinked register-2 state
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    rng = np.random.default_rng(12)
    p = cfg.random_params(rng)
    p = ParamSet(p.theta1, p.theta2, p.theta3, np.zeros(2))
    wj = rng.uniform(0, np.pi, size=4)
    e1, _ = forward(rng.uniform(0, np.pi, size=4), wj, p, cfg)
    e2, _ = forward(rng.uniform(0, np.pi, size=4), wj, p, cfg)
    assert abs(e1 - e2) < 1e-12


def test_qksas_grid_shape():
    rng = np.random.default_rng(13)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    rec = qksas(rng.uniform(0, np.pi, 4), rng.uniform(0, np.pi, 4),
                rng.uniform(0, 2 * np.pi, 4), rng.uniform(0, 2 * np.pi, 4), cfg)
    assert rec.grid().shape == (2, 2)
    assert np.isclose(rec.grid().sum(), 1.0, atol=1e-10)


def test_predict():
    assert predict(0.3) == 1
    assert predict(-0.0001) == -1
    assert predict(0.0) == 1
    with pytest.raises(ValueError):
        predict(float("nan"))
