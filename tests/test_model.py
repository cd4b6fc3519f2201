import collections
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from qkattn import cli, encoding, model, sim
from qkattn.ansatz import ParamSet
from qkattn.ansatz import LINK_FORMS, LINK_MODES, ansatz_layout, build_link
from qkattn.model import VARIANTS, BatchEvaluator, ModelConfig, build_full_circuit, forward
from qkattn.train import gradient
from test_encoding import encoder_circuit


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


def register1_oracle(wi, wj, params, cfg):
    """Register 1's outcome distribution, as the density oracle records the
    mid-circuit measurement of the conditional full circuit.  Register 1
    does not depend on the link, so a literal-link model is read through
    its canonical-link twin."""
    canonical = dataclasses.replace(cfg, link_mode="all-zeros-canonical")
    p = ParamSet(params.theta1, params.theta2, params.theta3, params.theta4[: cfg.n])
    res = sim.run_circuit(build_full_circuit(wi, wj, p, canonical), "density", noise=cfg.noise)
    return res.measurement_probs[0]


def register2_circuit(wj, theta3, cfg):
    """U(θ3) U_φ(w_j) on its own n qubits, from the layouts that
    ``build_full_circuit`` fills."""
    circ = encoder_circuit(cfg.encoder, wj, cfg.n)
    return circ.add_layout(ansatz_layout(cfg.ansatz, cfg.n), theta3)


def test_config_validation_and_variants():
    assert ModelConfig(encoder="amplitude", ansatz="hea").variant == "AmHE"
    assert ModelConfig.from_variant("AnQAOA").ansatz == "qaoa"
    assert ModelConfig(n=2).parameter_count == 14
    assert ModelConfig(n=2, link_mode="per-qubit-literal").parameter_count == 16
    assert ModelConfig(n=3, encoder="angle").feature_dim == 9
    # shots is a sample count under either mode, not a mode of its own
    with pytest.raises(ValueError, match="sample with 'shots' > 0 under 'analytic' or 'density'"):
        ModelConfig(execution="shots", shots=10)
    with pytest.raises(ValueError, match="'shots'"):
        ModelConfig(shots=-1)
    # forward's binomial draw takes at most 2^63 − 1
    assert ModelConfig(shots=2**63 - 1).shots == 2**63 - 1
    for shots in (2**63, 10**30):
        with pytest.raises(ValueError, match="'shots'"):
            ModelConfig(execution="density", shots=shots)
    noisy = ModelConfig(execution="density", shots=5, noise=(sim.NoiseChannel("bit-flip", 0.1),))
    assert noisy.shots == 5
    with pytest.raises(ValueError):
        ModelConfig(noise=(sim.NoiseChannel("bit-flip", 0.1),))  # needs density
    with pytest.raises(ValueError):
        ModelConfig.from_variant("AmVQE")


def test_config_refuses_malformed_noise():
    # a list of channels is kept as a hashable tuple; anything but a
    # sequence of NoiseChannel is refused at once, not deep in sim's caches
    channel = sim.NoiseChannel("bit-flip", 0.1)
    cfg = ModelConfig(execution="density", noise=[channel])
    assert cfg.noise == (channel,) and hash(cfg)
    rng = np.random.default_rng(12)
    w = random_features(cfg, rng)
    assert np.isfinite(forward(w, w, cfg.random_params(rng), cfg)[0])
    for noise in (channel, ("bit-flip",), [channel, 0.1], "bit-flip", None):
        with pytest.raises(ValueError, match="'noise' must be a sequence of NoiseChannel"):
            ModelConfig(execution="density", noise=noise)


@pytest.mark.parametrize("encoder, execution", [("amplitude", "analytic"), ("angle", "density")])
def test_feature_arrays_that_are_not_rows_name_their_shape(encoder, execution):
    # forward and build_full_circuit take one sample as a (d,) vector or a
    # (1, d) row, and refuse a (2, 2) batch rather than read it as one
    # 4-feature sample; a 3-D batch is not reported as empty
    cfg = ModelConfig(n=2, encoder=encoder, execution=execution)
    params = cfg.random_params(np.random.default_rng(13))
    vec = np.array([0.5, 0.25])
    e_val, record = forward(vec, vec[::-1], params, cfg)
    for wi, wj in ((vec[None], vec[::-1][None]), (vec[None], vec[::-1]), (vec, vec[::-1][None])):
        got, got_record = forward(wi, wj, params, cfg)
        assert got == e_val and np.array_equal(got_record.distribution, record.distribution)
    assert build_full_circuit(vec[None], vec, params, cfg).ops == build_full_circuit(
        vec, vec, params, cfg).ops
    batch = np.full((2, 2), 0.5)
    for call in (lambda: forward(batch, vec, params, cfg),
                 lambda: forward(vec, batch, params, cfg),
                 lambda: build_full_circuit(batch, vec, params, cfg),
                 lambda: build_full_circuit(vec, batch, params, cfg)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == ("expected one sample, a (d,) vector or a (1, d) row, "
                                      "got shape (2, 2)")
    stack = np.zeros((2, 2, 2))
    with pytest.raises(ValueError) as refused:
        BatchEvaluator(stack, stack, cfg)
    assert str(refused.value) == ("expected feature rows of shape (samples, features), "
                                  "got shape (2, 2, 2)")


def test_config_bounds_register_size():
    # 2^n ≤ 16 amplitudes per register
    assert ModelConfig(n=4).feature_dim == 16
    for n in (0, 5, 30):
        with pytest.raises(ValueError, match="'n'"):
            ModelConfig(n=n)


@pytest.mark.parametrize("link_mode", LINK_MODES)
def test_full_circuit_rejects_unknown_link_form(link_mode):
    cfg = ModelConfig(n=1, link_mode=link_mode)
    rng = np.random.default_rng(8)
    w = random_features(cfg, rng)
    with pytest.raises(ValueError, match="bogus"):
        build_full_circuit(w, w, cfg.random_params(rng), cfg, form="bogus")


def test_kernel_self_consistency():
    rng = np.random.default_rng(0)
    for cfg in all_configs():
        for _ in range(25):
            w = random_features(cfg, rng)
            p = cfg.random_params(rng)
            _, rec = forward(w, w, dataclasses.replace(p, theta2=p.theta1), cfg)
            assert abs(rec.p0 - 1.0) < 1e-10
            assert np.isclose(rec.distribution.sum(), 1.0, atol=1e-10)


def test_qksas_symmetry():
    rng = np.random.default_rng(1)
    for cfg in all_configs():
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        _, a = forward(wi, wj, p, cfg)
        _, b = forward(wj, wi, dataclasses.replace(p, theta1=p.theta2, theta2=p.theta1), cfg)
        assert abs(a.p0 - b.p0) < 1e-12


def test_qksas_brute_force_oracle():
    # p0 equals |<0|U|0>|^2 with U assembled by explicit matrix products of
    # the register-1 gates of the full circuit
    rng = np.random.default_rng(2)
    cfg = ModelConfig(n=2, encoder="angle", ansatz="hea")
    wi, wj = random_features(cfg, rng), random_features(cfg, rng)
    p = cfg.random_params(rng)
    total = np.eye(4, dtype=complex)
    for op in build_full_circuit(wi, wj, p, cfg).ops:
        if isinstance(op, sim.Measure):
            break
        if max(op.coords) < cfg.n:
            total = sim.expand_matrix(op.matrix(), op.coords, 2) @ total
    _, rec = forward(wi, wj, p, cfg)
    assert abs(rec.p0 - abs(total[0, 0]) ** 2) < 1e-12


def test_register1_identity_example():
    cfg = ModelConfig(n=2, encoder="angle", ansatz="qaoa")
    rng = np.random.default_rng(3)
    w = random_features(cfg, rng)
    p = cfg.random_params(rng)
    probs = register1_oracle(w, w, dataclasses.replace(p, theta2=p.theta1), cfg)
    assert abs(probs[0] - 1.0) < 1e-12


def _op_key(op):
    """An op's kind, coordinates, condition and bit-exact angle."""
    if isinstance(op, sim.Measure):
        return ("measure", op.qubits, op.clbits)
    cond = None if op.condition is None else (op.condition.bits, op.condition.pattern)
    return (op.kind, op.coords, cond, None if op.angle is None else float(op.angle).hex())


def _fragment_reference(wi, wj, p, cfg, form, final_measure):
    """build_full_circuit assembled fragment by fragment: each encoder and
    ansatz built on its own from its layout, the adjoints built here as
    the gates reversed on negated angles and register 2 as its gates with
    every coordinate moved up by n, then the link and the measurements."""
    n = cfg.n
    anz = ansatz_layout(cfg.ansatz, n)

    def fragment(layout, angles):
        return sim.Circuit(n).add_layout(layout, angles).ops

    def encoded(w):
        return encoder_circuit(cfg.encoder, w, n).ops

    def adjoint(ops):
        return [sim.GateOp(op.kind, op.coords, None if op.angle is None else -op.angle)
                for op in reversed(ops)]

    reg1 = (encoded(wi) + fragment(anz, p.theta1) + adjoint(fragment(anz, p.theta2))
            + adjoint(encoded(wj)))
    reg2 = [sim.GateOp(op.kind, tuple(c + n for c in op.coords), op.angle)
            for op in encoded(wj) + fragment(anz, p.theta3)]
    clbits = n + 1 if final_measure else n
    circ = sim.Circuit(2 * n, clbits=clbits)
    for op in reg1 + reg2:
        circ.add(op)
    canonical = cfg.link_mode == "all-zeros-canonical"
    if canonical and form == "conditional":
        circ.measure(range(n), range(n))
    circ.extend(build_link(cfg.link_mode, n, p.theta4, form=form))
    if final_measure:
        if canonical and form == "deferred":
            circ.measure(range(n), range(n))
        circ.measure((2 * n - 1,), (n,))
    return circ


def test_full_circuit_equals_its_fragments_built_one_by_one():
    rng = np.random.default_rng(61)
    for n, variant, link in itertools.product(range(1, 5), VARIANTS, LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link)
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        # a short w_j pads with zero angles, whose adjoints are −0.0
        wj = wj[: max(1, wj.size - 2)]
        p = cfg.random_params(rng)
        for form, final_measure in itertools.product(LINK_FORMS, (False, True)):
            got = build_full_circuit(wi, wj, p, cfg, form=form, final_measure=final_measure)
            ref = _fragment_reference(wi, wj, p, cfg, form, final_measure)
            assert (got.qubits, got.clbits) == (ref.qubits, ref.clbits)
            assert [_op_key(op) for op in got.ops] == [_op_key(op) for op in ref.ops], (
                n, variant, link, form, final_measure)


def test_forward_theta4_zero_is_identity_link():
    rng = np.random.default_rng(4)
    for cfg in all_configs():
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        p_zero = ParamSet(p.theta1, p.theta2, p.theta3, np.zeros_like(p.theta4))
        e, _ = forward(wi, wj, p_zero, cfg)
        bare = sim.run_circuit(register2_circuit(wj, p.theta3, cfg), "pure").state
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
    reg2 = register2_circuit(w, p.theta3, cfg)
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


@pytest.mark.parametrize("execution", ("analytic", "density"))
def test_self_pairs_are_encoded_once_and_match_full_circuit(monkeypatch, execution):
    # training pairs each sample with itself; those samples are encoded once
    rng = np.random.default_rng(12)
    encoded = []
    angles = encoding.encoder_angles
    monkeypatch.setattr(encoding, "encoder_angles",
                        lambda enc, w, n: encoded.append(len(w)) or angles(enc, w, n))
    noise = NOISE_SETS["both"] if execution == "density" else ()
    for variant in VARIANTS:
        cfg = ModelConfig.from_variant(variant, execution=execution, noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(3)])
        p = cfg.random_params(rng)
        e, probs = BatchEvaluator(x, x, cfg).evaluate(p)
        assert encoded[-1] == 3
        for k in range(3):
            res = sim.run_circuit(build_full_circuit(x[k], x[k], p, cfg), "density",
                                  noise=noise)
            assert abs(e[k] - sim.expectation_z(res.state, 3)) < 1e-12, variant
            assert np.max(np.abs(probs[k] - res.measurement_probs[0])) < 1e-12, variant


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
    # E against the full conditional circuit, the distributions against
    # its mid-circuit measurement of register 1; idx repeats a pair
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
                oracle.append((e_ref, register1_oracle(a, b, p, cfg)))
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
    with pytest.raises(ValueError, match="^expected rows of 14 parameters, got shape \\(3, 13\\)$"):
        ev.evaluate_stack(thetas[:, :-1])
    with pytest.raises(ValueError, match="^expected rows of 14 parameters, got shape \\(14,\\)$"):
        ev.evaluate_stack(thetas[0])
    bad = thetas.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="^parameters must be finite$"):
        ev.evaluate_stack(bad)


NOISE_SETS = {
    "bit-flip": (sim.NoiseChannel("bit-flip", 0.08),),
    "amplitude-damping": (sim.NoiseChannel("amplitude-damping", 0.12),),
    "both": (sim.NoiseChannel("bit-flip", 0.06), sim.NoiseChannel("amplitude-damping", 0.1)),
}


@pytest.mark.parametrize("noise", list(NOISE_SETS))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_noisy_density_evaluator_matches_full_circuit_oracle(n, noise):
    # E against the noisy full conditional circuit for every variant and
    # link; canonical links also compare the mid-circuit register-1
    # distribution.  A K=3 stack with a repeated idx matches per-row calls.
    rng = np.random.default_rng(30 + n)
    channels = NOISE_SETS[noise]
    for variant in VARIANTS:
        for link in LINK_MODES:
            cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                           execution="density", noise=channels)
            wi = np.array([random_features(cfg, rng) for _ in range(3)])
            wj = np.array([random_features(cfg, rng) for _ in range(3)])
            p = cfg.random_params(rng)
            ev = BatchEvaluator(wi, wj, cfg)
            e, probs = ev.evaluate(p)
            for k in range(3):
                full = build_full_circuit(wi[k], wj[k], p, cfg, form="conditional")
                res = sim.run_circuit(full, "density", noise=channels)
                e_ref = sim.expectation_z(res.state, 2 * n - 1)
                assert abs(e[k] - e_ref) < 1e-12, (variant, link)
                if link == "all-zeros-canonical":
                    p_ref = res.measurement_probs[0]
                    assert np.max(np.abs(probs[k] - p_ref)) < 1e-12, (variant, link)

            thetas = np.array([p.to_vector()] + [cfg.random_params(rng).to_vector()
                                                 for _ in range(2)])
            idx = np.array([2, 0, 2])
            e_stack, p_stack = ev.evaluate_stack(thetas, idx=idx)
            assert e_stack.shape == (3, 3) and p_stack.shape == (3, 3, 2**n)
            for k, vec in enumerate(thetas):
                e1, p1 = ev.evaluate(ParamSet.from_vector(vec, n, link), idx=idx)
                assert np.max(np.abs(e_stack[k] - e1)) < 1e-13, (variant, link)
                assert np.max(np.abs(p_stack[k] - p1)) < 1e-13, (variant, link)


def test_noisy_density_batch_and_sub_batch_agree_at_n3():
    # at n=3 a batch of at least 4^n = 64 samples builds the register-1
    # channel once; a smaller sub-batch applies the gates to its states.
    # Both must agree with each other and with the full circuit.
    rng = np.random.default_rng(35)
    channels = NOISE_SETS["both"]
    idx = np.array([5, 64, 0, 5])
    for variant in VARIANTS:
        for link in LINK_MODES:
            cfg = ModelConfig.from_variant(variant, n=3, link_mode=link,
                                           execution="density", noise=channels)
            wi = np.array([random_features(cfg, rng) for _ in range(65)])
            wj = np.array([random_features(cfg, rng) for _ in range(65)])
            thetas = np.array([cfg.random_params(rng).to_vector() for _ in range(2)])
            ev = BatchEvaluator(wi, wj, cfg)
            e_all, p_all = ev.evaluate_stack(thetas)
            e_sub, p_sub = ev.evaluate_stack(thetas, idx=idx)
            assert np.max(np.abs(e_sub - e_all[:, idx])) < 1e-12, (variant, link)
            assert np.max(np.abs(p_sub - p_all[:, idx])) < 1e-12, (variant, link)
            p = ParamSet.from_vector(thetas[0], 3, link)
            for k in idx[:3]:
                full = build_full_circuit(wi[k], wj[k], p, cfg, form="conditional")
                res = sim.run_circuit(full, "density", noise=channels)
                assert abs(e_all[0, k] - sim.expectation_z(res.state, 5)) < 1e-12, (variant, link)
                if link == "all-zeros-canonical":
                    p_ref = res.measurement_probs[0]
                    assert np.max(np.abs(p_all[0, k] - p_ref)) < 1e-12, (variant, link)


def gradient_stack(theta, shift=np.pi / 2):
    """The rows of a gradient: the base point, each slot shifted up, then
    each slot shifted down."""
    steps = np.diag(np.full(theta.size, shift))
    return np.vstack([theta, theta + steps, theta - steps])


Walk = collections.namedtuple("Walk", "layout rows shape dtype")


@pytest.fixture
def walks(monkeypatch):
    """Every call of sim's layout functions from here on, in order, as a
    ``Walk``: the layout, the angle rows that drive it, and the output's
    shape and dtype.  ``layout_unitaries`` serves analytic mode;
    ``_walk_runs`` is every density walk, ``apply_noisy_layout``'s
    included, whose angles and output lead with the run axis.  Clear the
    list to count from a later point."""
    calls = []
    for name, at in (("layout_unitaries", 0), ("_walk_runs", 1)):
        def spy(*args, _f=getattr(sim, name), _at=at, **kwargs):
            out = _f(*args, **kwargs)
            calls.append(Walk(args[_at], args[_at + 1].shape[-2], out.shape, out.dtype))
            return out
        monkeypatch.setattr(sim, name, spy)
    return calls


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_gradient_stack_rows_match_evaluate(n, execution):
    # each register is evaluated once per distinct sub-row; every row of
    # the stack still matches its own evaluate call, and a row that moves
    # only θ3 or θ4 shares the base row's distribution bit for bit
    rng = np.random.default_rng(60 + n)
    noise = NOISE_SETS["bit-flip"] if execution == "density" else ()
    for variant in VARIANTS:
        for link in LINK_MODES:
            cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                           execution=execution, noise=noise)
            x = np.array([random_features(cfg, rng) for _ in range(4)])
            ev = BatchEvaluator(x, x, cfg)
            thetas = gradient_stack(cfg.random_params(rng).to_vector())
            idx = np.array([3, 0, 3])
            e, probs = ev.evaluate_stack(thetas, idx=idx)
            assert e.shape == (len(thetas), 3) and probs.shape == (len(thetas), 3, 2**n)
            for k, vec in enumerate(thetas):
                e1, p1 = ev.evaluate(ParamSet.from_vector(vec, n, link), idx=idx)
                assert np.max(np.abs(e[k] - e1)) < 1e-13, (variant, link, k)
                assert np.max(np.abs(probs[k] - p1)) < 1e-13, (variant, link, k)
            slots = cfg.parameter_count
            for k in range(1, len(thetas)):
                if (k - 1) % slots >= 4 * n:
                    assert np.array_equal(probs[k], probs[0]), (variant, link, k)


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_registers_get_their_distinct_rows(walks, n, execution):
    # a gradient stack reaches register 1 as 8n+1 rows of [θ1, θ2] and
    # register 2 as 4n+1 rows of θ3: the θ3 and θ4 shifts repeat the base
    # row's θ1 and θ2, the θ1, θ2 and θ4 shifts its θ3.  The link angle
    # enters only the closed-form combination of the cached readouts, so
    # no layout function of sim sees the link gate.  In density mode this
    # first read of the distributions also carries the 2^n projectors
    # back through U_φ†(w_j), once for the 4 samples
    rng = np.random.default_rng(70 + n)
    noise = NOISE_SETS["bit-flip"] if execution == "density" else ()
    for variant, link in itertools.product(VARIANTS, LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                       execution=execution, noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(4)])
        ev = BatchEvaluator(x, x, cfg)
        walks.clear()
        ev.evaluate_stack(gradient_stack(cfg.random_params(rng).to_vector()))
        rows = {}
        for walk in walks:
            rows.setdefault(walk.layout, []).append(walk.rows)
        if execution == "analytic":
            assert rows == {ev._ansatz: [2 * (8 * n + 1) + 4 * n + 1]}, (variant, link)
        else:
            assert walks[0].shape == (1, 4, 2**n, 4**n)  # one run's projectors
            assert rows == {ev._unencode[0]: [4], ev._mid: [8 * n + 1],
                            ev._ansatz: [4 * n + 1]}, (variant, link)


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_derivatives_run_each_register_once(walks, n, execution):
    # analytic mode: one layout_unitaries call on the rows θ1, θ2, θ3, each
    # followed by its 2n derivative rows; density mode: the register-1
    # layout on [θ1, −θ2] (1 + 4n outputs), the ansatz on θ3 (1 + 2n),
    # after this first read of f has carried the fired row back through
    # U_φ†(w_j), one row for each of the 4 samples
    rng = np.random.default_rng(80 + n)
    noise = NOISE_SETS["bit-flip"] if execution == "density" else ()
    for variant, link in itertools.product(VARIANTS, LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                       execution=execution, noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(4)])
        ev = BatchEvaluator(x, x, cfg)
        walks.clear()
        ev.derivatives(cfg.random_params(rng).to_vector())
        calls = [(walk.layout, walk.rows, walk.shape[-3]) for walk in walks]
        if execution == "analytic":
            assert calls == [(ev._ansatz, 3, 3 * (2 * n + 1))], (variant, link)
        else:
            assert walks[0].shape == (1, 4, 1, 4**n)  # one run's fired row
            assert calls == [(ev._unencode[0], 4, 4), (ev._mid, 1, 1 + 4 * n),
                             (ev._ansatz, 1, 1 + 2 * n)], (variant, link)


# The four-term shift rule (Wierichs et al., "General parameter-shift
# rules for quantum gradients", Quantum 6, 677 (2022)) as (shift, weight)
# pairs, dE = Σ weight·(E(θ + shift) − E(θ − shift)): exact in every slot,
# since E holds no frequency above 1 in any angle (at most 1/2 and 1 for a
# CRY or a noisy channel)
FOUR_TERM_RULE = ((np.pi / 2, (np.sqrt(2) + 1) / (4 * np.sqrt(2))),
                  (3 * np.pi / 2, -(np.sqrt(2) - 1) / (4 * np.sqrt(2))))


def stack_derivatives(ev, theta, pairs, idx=None):
    """dE (P, batch) from one evaluate_stack call on θ ± shift in each
    slot, combined by the (shift, weight) ``pairs``."""
    eye = np.eye(theta.size)
    rows = [theta + sign * shift * eye for shift, _ in pairs for sign in (1.0, -1.0)]
    e = ev.evaluate_stack(np.vstack(rows), idx)[0].reshape(len(pairs), 2, theta.size, -1)
    return sum(weight * (e[k, 0] - e[k, 1]) for k, (_, weight) in enumerate(pairs))


def richardson_derivatives(ev, theta, idx=None, h=1e-3):
    """Central differences at h and h/2, Richardson-extrapolated (error
    O(h⁴))."""
    coarse = stack_derivatives(ev, theta, ((h, 0.5 / h),), idx)
    fine = stack_derivatives(ev, theta, ((h / 2, 1.0 / h),), idx)
    return (4.0 * fine - coarse) / 3.0


def dead_slots(ev):
    """Slots E cannot read: θ1, θ2, θ3 slots that drive no ansatz gate (the
    HE CRY slots at n = 1) and every θ4 slot but n − 1."""
    n = ev.config.n
    driven = {slot for _, _, slot in ev._ansatz if slot is not None}
    ansatz = [2 * n * block + k for block in range(3) for k in range(2 * n) if k not in driven]
    link = [6 * n + k for k in range(ev.config.parameter_count - 6 * n) if k != n - 1]
    return ansatz + link


@pytest.mark.parametrize("mode", ["analytic"] + list(NOISE_SETS))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_derivatives_match_shift_rule_and_richardson_differences(n, mode):
    # four samples: at n = 1 register 1 runs on the 4^n vec basis, above
    # on the states
    rng = np.random.default_rng(120 + n)
    kwargs = {} if mode == "analytic" else dict(execution="density", noise=NOISE_SETS[mode])
    for variant, link in itertools.product(VARIANTS, LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link, **kwargs)
        x = np.array([random_features(cfg, rng) for _ in range(4)])
        ev = BatchEvaluator(x, x, cfg)
        theta = cfg.random_params(rng).to_vector()
        idx = np.array([2, 0, 2])
        e, de = ev.derivatives(theta, idx)
        assert de.shape == (theta.size, 3)
        assert np.max(np.abs(e - ev.evaluate_stack(theta[None], idx)[0][0])) < 1e-13
        y = np.array([1.0, -1.0, -1.0])
        g = gradient(ev, theta, y, idx)
        for ref in (stack_derivatives(ev, theta, FOUR_TERM_RULE, idx),
                    richardson_derivatives(ev, theta, idx)):
            assert np.max(np.abs(de - ref)) < 1e-10, (variant, link)
            assert np.max(np.abs(g - np.mean(-2.0 * (y - e) * ref, axis=1))) < 1e-10
        dead = dead_slots(ev)
        assert len(dead) == (3 if n == 1 and cfg.ansatz == "hea" else 0) + theta.size - 6 * n - 1
        assert np.all(de[dead] == 0.0), (variant, link)


def test_density_derivatives_on_the_vec_basis_at_n3():
    # 64 samples reach the 4^n vec basis vectors: register 1 walks its
    # two-qubit steps on the basis instead of the states
    rng = np.random.default_rng(130)
    for variant in ("AmHE", "AnQAOA"):
        cfg = ModelConfig.from_variant(variant, n=3, execution="density",
                                       noise=NOISE_SETS["both"])
        x = np.array([random_features(cfg, rng) for _ in range(64)])
        ev = BatchEvaluator(x, x, cfg)
        theta = cfg.random_params(rng).to_vector()
        e, de = ev.derivatives(theta)
        _, de_states = ev.derivatives(theta, np.arange(5))
        assert np.max(np.abs(de[:, :5] - de_states)) < 1e-13, variant
        assert np.max(np.abs(de - richardson_derivatives(ev, theta))) < 1e-10, variant


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_step_pass_matches_derivatives_and_evaluation(walks, n, execution):
    # one pass gives derivatives(look, idx) and E at another vector on every
    # sample.  Batches of 3 take the states path; the whole shuffled set
    # takes the basis path when it holds at least 4^n samples, so at n = 3
    # the 70-sample evaluator walks register 1 twice, then once, and the
    # 10-sample one walks the states for both.  A density evaluator's first
    # pass first carries the fired row back through U_φ†(w_j)
    rng = np.random.default_rng(150 + n)
    noise = NOISE_SETS["bit-flip"] if execution == "density" else ()
    for variant, link in itertools.product(("AmHE", "AnQAOA"), LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                       execution=execution, noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(70)])
        for count in (10, 70):
            ev = BatchEvaluator(x[:count], x[:count], cfg)
            for first, idx in ((True, rng.permutation(count)[:3]),
                               (False, rng.permutation(count))):
                look, at = (cfg.random_params(rng).to_vector() for _ in range(2))
                walks.clear()
                e, de, e_at = (value[0] for value in ev._steps(look[None], at[None], idx))
                on_basis = len(idx) >= 4**n
                expected = ([ev._ansatz] if execution == "analytic" else
                            [ev._unencode[0]] * first + [ev._mid] * (1 if on_basis else 2)
                            + [ev._ansatz])
                assert [walk.layout for walk in walks] == expected, (variant, link, count, len(idx))
                e_ref, de_ref = ev.derivatives(look, idx)
                e_at_ref = ev.evaluate_stack(at[None])[0][0]
                assert e.shape == (len(idx),) and e_at.shape == (count,)
                assert np.max(np.abs(e - e_ref)) < 1e-12, (variant, link, count, len(idx))
                assert np.max(np.abs(de - de_ref)) < 1e-12, (variant, link, count, len(idx))
                assert np.max(np.abs(e_at - e_at_ref)) < 1e-12, (variant, link, count, len(idx))


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_fired_path_matches_the_distributions(n, execution):
    # derivatives and _steps read register 1's firing probability f
    # alone: one product on the cached per-sample forms, or one folded row
    # of the pulled-back projectors.  f must be the fired mass of the
    # distributions on a row and, by the four-term rule, on its derivative
    # rows in θ1 and θ2, for a batch below 4^n, one of at least 4^n and
    # the whole set; _steps' second row, on every sample, is read
    # the same way.  At n = 4 the whole set is the batch of at least 4^n
    # and density mode runs without noise: a noisy AmHE build over 258
    # samples takes about 0.6 s, and each walk on the 256 basis vectors
    # about 0.1 s, so there only the small batch takes the derivative
    # rows.  AmHE's forms are real and its A complex; AnQAOA's forms are
    # complex
    rng = np.random.default_rng(170 + n)
    noise = NOISE_SETS["bit-flip"] if execution == "density" and n < 4 else ()
    for variant, link in itertools.product(("AmHE", "AnQAOA"), LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                       execution=execution, noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(4**n + 2)])
        ev = BatchEvaluator(x, x, cfg)
        if execution == "analytic":
            assert np.iscomplexobj(ev._forms) == (variant == "AnQAOA"), (variant, link)
        thetas = np.array([cfg.random_params(rng).to_vector() for _ in range(2)])
        batches = [rng.permutation(len(x))[:3], rng.permutation(len(x))[: 4**n], None]
        for idx in batches[::2] if n == 4 else batches:
            e, _ = ev.derivatives(thetas[0], idx)
            e_ref = ev.evaluate_stack(thetas[:1], idx)[0][0]
            assert np.max(np.abs(e - e_ref)) < 1e-13, (variant, link, idx is None)
            # one run: the leading axis of _registers' rows and outputs
            (fire, _), (fire_at, _) = ev._registers(
                thetas[None, :1, : 4 * n], thetas[None, :1, 4 * n: 6 * n], idx, True,
                at=thetas[1:], fired=True)
            fire, fire_at = fire[0], fire_at[0]
            f_at = ev.evaluate_stack(thetas[1:])[1][0] @ ev._fire
            assert fire_at.shape == (1, len(x))
            assert np.max(np.abs(fire_at - f_at)) < 1e-13, (variant, link)
            steps = np.eye(thetas.shape[1])[: 4 * n]
            rows = [] if n == 4 and idx is None else [
                thetas[0] + sign * shift * steps for shift, _ in FOUR_TERM_RULE for sign in (1, -1)]
            f = ev.evaluate_stack(np.vstack([thetas[:1], *rows]), idx)[1] @ ev._fire
            assert fire.shape == (1 + 4 * n, f.shape[1])
            assert np.max(np.abs(fire[0] - f[0])) < 1e-13, (variant, link)
            if rows:
                f = f[1:].reshape(len(FOUR_TERM_RULE), 2, 4 * n, -1)
                df = sum(weight * (f[k, 0] - f[k, 1])
                         for k, (_, weight) in enumerate(FOUR_TERM_RULE))
                assert np.max(np.abs(fire[1:] - df)) < 1e-13, (variant, link)


@pytest.mark.parametrize("execution", ("analytic", "density"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_e_only_evaluation_matches_evaluate_stack(n, execution):
    # the E-only evaluation reads f alone, deduplicates rows as
    # evaluate_stack does and combines E with the same code: a stack whose
    # rows repeat, or differ only in θ3 or θ4, gives evaluate_stack's E
    # and the fired mass of its distributions, on every sample and on an
    # idx that repeats a sample
    rng = np.random.default_rng(200 + n)
    noise = NOISE_SETS["bit-flip"] if execution == "density" else ()
    for variant, link in itertools.product(("AmHE", "AnQAOA"), LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                       execution=execution, noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(5)])
        ev = BatchEvaluator(x, x, cfg)
        base, other = (cfg.random_params(rng).to_vector() for _ in range(2))
        link_only, theta3_only = base.copy(), base.copy()
        link_only[7 * n - 1] = other[7 * n - 1]
        theta3_only[4 * n: 6 * n] = other[4 * n: 6 * n]
        thetas = np.array([base, other, base, link_only, theta3_only])
        for idx in (None, np.array([3, 0, 3])):
            (e, ), (fire, ) = ev._stack(thetas[None], idx, fired=True)
            e_ref, probs = ev.evaluate_stack(thetas, idx)
            assert e.shape == fire.shape == e_ref.shape == (5, 5 if idx is None else 3)
            assert np.max(np.abs(e - e_ref)) < 1e-13, (variant, link)
            assert np.max(np.abs(fire - probs @ ev._fire)) < 1e-13, (variant, link)
            assert np.array_equal(e[0], e[2]) and np.array_equal(fire[3], fire[0])
    e, fire = ev._stack(np.zeros((1, 0, cfg.parameter_count)), fired=True)
    assert e.shape == fire.shape == (1, 0, 5)


# a zero-strength channel, each channel alone and both in one model
LOCKSTEP_NOISES = ((sim.NoiseChannel("bit-flip", 0.0),), NOISE_SETS["bit-flip"],
                   NOISE_SETS["amplitude-damping"], NOISE_SETS["both"])


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_lockstep_evaluator_equals_one_evaluator_per_run(n):
    # one evaluator for R noise models gives each run's own evaluator's
    # values bit for bit: the step pass, the E-only evaluation and the
    # distributions.  A batch below 4^n walks the states and one of 4^n
    # the basis, beside the step's second row on every sample, so both
    # register-1 paths run; n = 4 once, on the small batch
    rng = np.random.default_rng(230 + n)
    cases = ([("AnQAOA", "per-qubit-literal")] if n == 4 else
             itertools.product(("AmHE", "AnQAOA"), LINK_MODES))
    for variant, link in cases:
        cfgs = [ModelConfig.from_variant(variant, n=n, link_mode=link, execution="density",
                                         noise=noise) for noise in LOCKSTEP_NOISES]
        count = 6 if n == 4 else 4**n + 2
        x = np.array([random_features(cfgs[0], rng) for _ in range(count)])
        lockstep = BatchEvaluator._lockstep(x, x, cfgs)
        assert lockstep._p_fire.shape == (len(cfgs), count, 4**n)
        singles = [BatchEvaluator(x, x, cfg) for cfg in cfgs]
        looks, ats = (np.array([cfg.random_params(rng).to_vector() for cfg in cfgs])
                      for _ in range(2))
        thetas = np.array([[cfg.random_params(rng).to_vector() for _ in range(3)]
                           for cfg in cfgs])
        for size in (3,) if n == 4 else (3, 4**n):
            idx = rng.permutation(count)[:size]
            got = lockstep._steps(looks, ats, idx)
            for r, single in enumerate(singles):
                for value, ref in zip(got, single._steps(looks[r][None], ats[r][None], idx)):
                    assert np.array_equal(value[r], ref[0]), (variant, link, size, r)
            for sel, fired in itertools.product((idx, None), (True, False)):
                got = lockstep._stack(thetas, sel, fired=fired)
                for r, single in enumerate(singles):
                    for value, ref in zip(got, single._stack(thetas[r][None], sel, fired=fired)):
                        assert np.array_equal(value[r], ref[0]), (variant, link, size, r)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_lockstep_readouts_are_each_runs_own(n):
    # the readouts of R noise models, one walk for every run, hold run r's
    # own one-run readouts bit for bit, a noise-free run beside noisy ones
    noises = ((),) + LOCKSTEP_NOISES
    for link in LINK_MODES:
        readouts = model._link_readouts(n, link, noises)
        assert readouts.shape == (len(noises), 1, 4, 4**n) and not readouts.flags.writeable
        for r, noise in enumerate(noises):
            assert np.array_equal(readouts[r], model._link_readouts(n, link, (noise,))[0]), (
                link, r)


@pytest.mark.parametrize("link", LINK_MODES)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_fired_forms_cover_only_the_fired_outcomes(n, link):
    # analytic mode caches one read-only form per sample on the fired
    # outcomes only: one for the canonical link, as many entries as
    # U_φ(w_j)†, and 2^(n−1) for the literal link, never all 2^n outcomes
    # (count·8^n entries); density mode keeps one folded row per sample
    rng = np.random.default_rng(190 + n)
    fired = 2 ** (n - 1) if link == "per-qubit-literal" else 1
    for execution in ("analytic", "density"):
        cfg = ModelConfig.from_variant("AnHE", n=n, link_mode=link, execution=execution)
        x = np.array([random_features(cfg, rng) for _ in range(5)])
        ev = BatchEvaluator(x, x, cfg)
        if execution == "analytic":
            assert ev._forms.shape == (5, fired * 4**n)
            assert not ev._forms.flags.writeable
            if link != "per-qubit-literal":
                assert ev._forms.nbytes == ev._v_j.nbytes
        else:
            assert ev._p_fire.shape == (1, 5, 4**n)  # one run
            assert not ev._p_fire.flags.writeable


@pytest.mark.parametrize("link", LINK_MODES)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_projectors_are_carried_back_once_when_first_read(walks, n, link):
    # a density evaluator carries register 1's projectors back through
    # U_φ†(w_j) when they are first read, per sample: evaluate and
    # evaluate_stack walk the 2^n projectors and never the fired row;
    # derivatives, _steps and the E-only evaluation walk one fired row and
    # never the projectors; an evaluator that serves both walks each once.
    # Repeated calls walk neither again
    rng = np.random.default_rng(260 + n)
    for variant in ("AmHE", "AnQAOA"):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link, execution="density",
                                       noise=NOISE_SETS["both"])
        x = np.array([random_features(cfg, rng) for _ in range(5)])
        thetas = np.array([cfg.random_params(rng).to_vector() for _ in range(2)])

        def distributions(ev):
            ev.evaluate(ParamSet.from_vector(thetas[0], n, link))
            ev.evaluate_stack(thetas, [4, 1])

        def fired(ev):
            ev.derivatives(thetas[0], [0, 2])
            ev._steps(thetas[:1], thetas[1:], [3])
            ev._stack(thetas[None], fired=True)

        for reads, rows in (((distributions,), [2**n]), ((fired,), [1]),
                            ((fired, distributions), [1, 2**n])):
            ev = BatchEvaluator(x, x, cfg)
            walks.clear()
            for read in reads * 2:
                read(ev)
            carried = [walk.shape for walk in walks if walk.layout is ev._unencode[0]]
            assert carried == [(1, 5, r, 4**n) for r in rows], (variant, link, rows)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_fired_row_is_the_fired_projectors_sum(n):
    # _p_fire walks the fired projectors' sum as one row, and _p_j each
    # projector: the fired sum of _p_j equals _p_fire up to rounding, under
    # every noise set, for every variant and link, with w_j apart from w_i
    rng = np.random.default_rng(270 + n)
    for noise, variant, link in itertools.product(NOISE_SETS.values(), VARIANTS, LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link, execution="density",
                                       noise=noise)
        x = np.array([random_features(cfg, rng) for _ in range(4)])
        ev = BatchEvaluator(x[:3], x[1:], cfg)
        assert ev._p_fire.shape == (1, 3, 4**n) and ev._p_j.shape == (1, 3, 2**n, 4**n)
        assert np.max(np.abs(ev._p_fire - ev._fire @ ev._p_j)) < 1e-14, (variant, link, noise)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_closed_form_link_angle_matches_full_circuit(n):
    # E is read in closed form in θ4_{n−1}; sweep it over the quarter
    # turns and random angles against the full conditional circuit, in
    # analytic mode and under every noise set
    rng = np.random.default_rng(100 + n)
    modes = [("analytic", ())] + [("density", noise) for noise in NOISE_SETS.values()]
    for (execution, noise), variant, link in itertools.product(modes, VARIANTS, LINK_MODES):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link,
                                       execution=execution, noise=noise)
        wi = np.array([random_features(cfg, rng) for _ in range(2)])
        wj = np.array([random_features(cfg, rng) for _ in range(2)])
        angles = np.concatenate([np.arange(4) * np.pi / 2, rng.uniform(-2 * np.pi, 2 * np.pi, 2)])
        thetas = np.repeat(cfg.random_params(rng).to_vector()[None], len(angles), axis=0)
        thetas[:, 7 * n - 1] = angles
        e, _ = BatchEvaluator(wi, wj, cfg).evaluate_stack(thetas)
        tol = 1e-12 if execution == "analytic" else 1e-10
        for row, vec in enumerate(thetas):
            p = ParamSet.from_vector(vec, n, link)
            for k in range(2):
                full = build_full_circuit(wi[k], wj[k], p, cfg, form="conditional")
                state = sim.run_circuit(full, "density", noise=noise).state
                e_ref = sim.expectation_z(state, 2 * n - 1)
                assert abs(e[row, k] - e_ref) < tol, (variant, link, noise, angles[row])


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_cached_readouts_are_the_link_carried_back_in_closed_form(n):
    # B + cos θ·C + sin θ·S is Z carried back through the link gate (and its
    # noise) at θ; idle is Z, or the literal CRY's noise alone.  Both sides
    # are in the basis the walk runs in (sim.to_walk_basis)
    rng = np.random.default_rng(110 + n)
    dim = 2**n
    z = np.diag(1.0 - 2.0 * (np.arange(dim) >> (n - 1))).astype(complex)
    z_walk = sim.to_walk_basis(z.reshape(-1), n)
    link_gate = (("RY", (n - 1,), 0),)
    angles = np.concatenate([[0.0], rng.uniform(-2 * np.pi, 2 * np.pi, 5)])[:, None]
    for noise, link in itertools.product([()] + list(NOISE_SETS.values()), LINK_MODES):
        (idle, b, c, s), = model._link_readouts(n, link, (noise,))[0]
        fired = b + np.cos(angles) * c + np.sin(angles) * s
        ref = sim.apply_noisy_layout(np.broadcast_to(z_walk, (len(angles), 1, dim**2)),
                                     link_gate, angles, n, noise, adjoint=True)[:, 0]
        assert np.max(np.abs(fired - ref)) < 1e-14, (link, noise)
        if not noise:
            u = sim.layout_unitaries(link_gate, angles, n)
            conjugated = (model._adjoint(u) @ z @ u).reshape(len(angles), -1)
            assert np.max(np.abs(fired - sim.to_walk_basis(conjugated, n))) < 1e-14, link
        expected_idle = ref[0] if link == "per-qubit-literal" else z_walk
        assert np.max(np.abs(idle - expected_idle)) < 1e-14, (link, noise)
    # analytic mode reads the noiseless readouts in measurement form: ⟨ψ|O|ψ⟩
    # is Tr(O·ψψ†) = vec(O)ᴴ vec(ψψ†) in either basis
    psi = rng.normal(size=(5, dim)) + 1j * rng.normal(size=(5, dim))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    pure = sim.to_walk_basis((psi[:, :, None] * psi.conj()[:, None, :]).reshape(5, -1), n)
    bases, weights = model._readout_bases(n)
    for link in LINK_MODES:
        ref = (pure @ model._link_readouts(n, link, ((),))[0, 0].conj().T).real
        assert np.max(np.abs((np.abs(psi @ bases) ** 2) @ weights - ref)) < 1e-14, link
    # cached per (n, link, noise): once built, a one-pair forward, which
    # builds its own evaluator, does not build them again, nor convert the
    # zero state and the projectors into the walk's basis
    for execution, noise in (("analytic", ()), ("density", NOISE_SETS["both"])):
        cfg = ModelConfig(n=n, execution=execution, noise=noise)
        w = random_features(cfg, rng)
        forward(w, w, cfg.random_params(rng), cfg)
        caches = (model._link_readouts, model._readout_bases, model._walk_constants)
        misses = [f.cache_info().misses for f in caches]
        forward(w, w, cfg.random_params(rng), cfg)
        assert [f.cache_info().misses for f in caches] == misses, execution


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_density_walk_is_real_at_every_n(walks, n):
    # every cached vector and every walk output is float64, so every
    # product of them is real, the amplitude encoder's included.  16
    # samples reach the basis path at n <= 2, a sub-batch the states
    rng = np.random.default_rng(140 + n)
    for variant in VARIANTS:
        cfg = ModelConfig.from_variant(variant, n=n, execution="density",
                                       noise=NOISE_SETS["both"])
        x = np.array([random_features(cfg, rng) for _ in range(16)])
        walks.clear()
        ev = BatchEvaluator(x, x, cfg)
        theta = cfg.random_params(rng).to_vector()
        ev.evaluate_stack(gradient_stack(theta))
        ev.derivatives(theta)
        ev.derivatives(theta, np.arange(3))
        assert walks and {walk.dtype for walk in walks} == {np.dtype(float)}, variant
        for arr in (ev._rho_i, ev._rho_j, ev._p_j, ev._readouts, ev._basis,
                    *model._walk_constants(n)):
            assert arr.dtype == float, variant


@pytest.mark.parametrize("execution", ("analytic", "density"))
def test_empty_stack_returns_empty_arrays(execution):
    # n = 3 walks density mode's two-qubit steps on the empty stack
    for n in (2, 3):
        cfg = ModelConfig(n=n, execution=execution)
        x = np.random.default_rng(80).uniform(-1, 1, size=(3, 2**n))
        e, probs = BatchEvaluator(x, x, cfg).evaluate_stack(np.zeros((0, cfg.parameter_count)))
        assert e.shape == (0, 3) and probs.shape == (0, 3, 2**n)


@pytest.mark.parametrize("execution", ("analytic", "density"))
def test_forward_matches_eight_qubit_oracle_at_n4(execution):
    # the largest registers (2^4 amplitudes): forward against the noisy
    # 8-qubit conditional circuit, every variant and link, under bit-flip,
    # amplitude damping and both; canonical links also compare p0 with the
    # mid-circuit measurement
    rng = np.random.default_rng(50)
    noise_sets = [()]
    if execution == "density":
        noise_sets = [(sim.NoiseChannel("bit-flip", 0.05),),
                      NOISE_SETS["amplitude-damping"], NOISE_SETS["both"]]
    for noise in noise_sets:
        for variant in VARIANTS:
            for link in LINK_MODES:
                cfg = ModelConfig.from_variant(variant, n=4, link_mode=link,
                                               execution=execution, noise=noise)
                wi, wj = random_features(cfg, rng), random_features(cfg, rng)
                p = cfg.random_params(rng)
                e, rec = forward(wi, wj, p, cfg)
                full = build_full_circuit(wi, wj, p, cfg, form="conditional")
                res = sim.run_circuit(full, "density", noise=noise)
                assert abs(e - sim.expectation_z(res.state, 7)) < 1e-12, (variant, link, noise)
                if link == "all-zeros-canonical":
                    p0_ref = res.measurement_probs[0][0]
                    assert abs(rec.p0 - p0_ref) < 1e-12, (variant, link, noise)


def test_wide_gates_build_no_dense_superoperator(monkeypatch, clear_caches):
    # gates on more than two qubits (the amplitude encoder's and the
    # deferred link's MCRY-open) apply U and U* on their own axes in both
    # engines: no noisy gate factor and no U ⊗ U* is formed for them
    factor_calls, superop_dims = [], []
    gate_factors, superop = sim._gate_factors, sim._superop

    def spy_factors(kind, arity, rotation, noise):
        factor_calls.append((arity, noise is not None))
        return gate_factors(kind, arity, rotation, noise)

    def spy_superop(u):
        superop_dims.append(len(u))
        return superop(u)

    clear_caches()
    monkeypatch.setattr(sim, "_gate_factors", spy_factors)
    monkeypatch.setattr(sim, "_superop", spy_superop)
    noise = NOISE_SETS["both"]
    cfg = ModelConfig.from_variant("AmHE", n=4, execution="density", noise=noise)
    rng = np.random.default_rng(90)
    x = np.array([random_features(cfg, rng) for _ in range(6)])
    params = cfg.random_params(rng)
    gradient(BatchEvaluator(x, x, cfg), params.to_vector(), np.array([1.0, -1.0] * 3))
    circ = build_full_circuit(x[0], x[1], params, cfg, form="deferred", final_measure=True)
    sim.run_circuit(circ, "density", noise=noise)
    assert max(arity for arity, noisy in factor_calls if noisy) <= 2
    assert max(arity for arity, noisy in factor_calls if not noisy) == 4
    assert superop_dims and max(superop_dims) <= 4


def test_noisy_n4_amplitude_evaluator_builds_in_little_memory(clear_caches):
    # per-sample 256 × 256 superoperators for the arity-4 MCRY-open gates
    # would take about 500 MB; U and U* on their own axes need a few MB
    cfg = ModelConfig.from_variant("AmHE", n=4, execution="density",
                                   noise=(sim.NoiseChannel("bit-flip", 0.05),))
    rng = np.random.default_rng(91)
    x = np.array([random_features(cfg, rng) for _ in range(30)])
    assert "qkattn.sim._run_plan" in clear_caches()
    tracemalloc.start()
    try:
        BatchEvaluator(x, x, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("noise", [None, "bit-flip", "both"])
@pytest.mark.parametrize("link", LINK_MODES)
@pytest.mark.parametrize("n", (2, 3))
def test_only_theta4_slot_n_minus_1_reaches_the_readout(n, link, noise):
    # of the link's gates only the one on the readout qubit (slot n−1)
    # reaches E: perturbing any other θ4 slot leaves the full circuit's E
    # unchanged, and the gradient there is exactly 0
    rng = np.random.default_rng(40 + n)
    kwargs = {} if noise is None else dict(execution="density", noise=NOISE_SETS[noise])
    for variant in VARIANTS:
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link, **kwargs)
        x = np.array([random_features(cfg, rng) for _ in range(3)])
        p = cfg.random_params(rng)

        def oracle(params):
            full = build_full_circuit(x[0], x[1], params, cfg)
            state = sim.run_circuit(full, "density", noise=cfg.noise).state
            return sim.expectation_z(state, 2 * n - 1)

        e_ref = oracle(p)
        others = [s for s in range(p.theta4.size) if s != n - 1]
        for s in others:
            moved = ParamSet.from_vector(p.to_vector(), n, link)
            moved.theta4[s] += 1.3
            assert abs(oracle(moved) - e_ref) < 1e-12, (variant, s)
        g = gradient(BatchEvaluator(x, x, cfg), p.to_vector(), [1.0, -1.0, 1.0])
        assert np.all(g[6 * n:][others] == 0), variant
        assert g[7 * n - 1] != 0, variant


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
    scfg = ModelConfig(n=2, encoder="angle", ansatz="hea", shots=shots)
    wi = rng.uniform(0, np.pi, size=4)
    wj = rng.uniform(0, np.pi, size=4)
    p = cfg.random_params(rng)
    e, _ = forward(wi, wj, p, cfg)
    es, _ = forward(wi, wj, p, scfg, rng=rng)
    se = np.sqrt(max(1.0 - e**2, 1e-6) / shots)
    assert abs(e - es) < 3 * se + 1e-6


def forbid(monkeypatch, owner, name):
    def spy(*args, **kwargs):
        raise AssertionError(f"{name} called")

    monkeypatch.setattr(owner, name, spy)


def test_shots_mode_without_rng_fails_before_simulating(monkeypatch):
    forbid(monkeypatch, sim, "run_circuit")
    forbid(monkeypatch, BatchEvaluator, "__init__")
    scfg = ModelConfig(n=2, encoder="angle", ansatz="hea", shots=10)
    rng = np.random.default_rng(14)
    p = scfg.random_params(rng)
    with pytest.raises(ValueError, match="needs an rng"):
        forward(rng.uniform(0, np.pi, size=4), rng.uniform(0, np.pi, size=4), p, scfg)


# every way to run: analytic, then noisy density under each noise set
EXECUTIONS = [("analytic", ())] + [("density", noise) for noise in NOISE_SETS.values()]


@pytest.mark.parametrize("link_mode", LINK_MODES)
def test_shots_forward_is_one_binomial_draw_on_the_evaluator(monkeypatch, link_mode):
    # no oracle run: E comes from the evaluator of the same execution,
    # then one draw of the number of +1 readouts among the shots
    forbid(monkeypatch, sim, "run_circuit")
    rng = np.random.default_rng(16)
    shots = 1000
    for n, variant, (execution, noise) in itertools.product((1, 2, 3), VARIANTS, EXECUTIONS):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link_mode,
                                       execution=execution, noise=noise)
        scfg = dataclasses.replace(cfg, shots=shots)
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        e, probs = BatchEvaluator([wi], [wj], cfg).evaluate(p)
        plus = np.random.default_rng(n).binomial(shots, (1.0 + e[0]) / 2.0)
        es, rec = forward(wi, wj, p, scfg, rng=np.random.default_rng(n))
        assert es == 2.0 * plus / shots - 1.0, (variant, n, execution, noise)
        assert np.array_equal(rec.distribution, probs[0])


def oracle_shots(w_i, w_j, params, config, rng):
    """Shots-mode E sampled from the full circuit: ``config.shots`` joint
    outcomes of the branch-resolved conditional circuit, averaged over
    the readout bit.  Also returns the probability that the readout
    reads 0 (Z = +1) under the distribution it samples."""
    circ = build_full_circuit(w_i, w_j, params, config, form="conditional",
                              final_measure=True)
    bits = sim.run_circuit(circ, "density", noise=config.noise).bits
    patterns = list(bits)
    weights = np.clip([bits[b] for b in patterns], 0, None)
    weights = weights / weights.sum()
    z = np.array([1.0 - 2.0 * b[config.n] for b in patterns])
    draws = rng.choice(len(patterns), size=config.shots, p=weights)
    return z[draws].mean(), weights @ (z > 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_sampler_has_the_binomial_readout_distribution(n):
    # the full-circuit sampler reads 0 with probability (1 + E)/2, so the
    # mean of its readouts has the distribution of the single draw; with
    # noise (at n ≤ 2) the oracle's noisy circuit against the density E
    rng = np.random.default_rng(17)
    shots = 4000
    executions = EXECUTIONS if n <= 2 else EXECUTIONS[:1]
    for link_mode, variant, (execution, noise) in itertools.product(LINK_MODES, VARIANTS,
                                                                     executions):
        cfg = ModelConfig.from_variant(variant, n=n, link_mode=link_mode,
                                       execution=execution, noise=noise, shots=shots)
        wi, wj = random_features(cfg, rng), random_features(cfg, rng)
        p = cfg.random_params(rng)
        e = BatchEvaluator([wi], [wj], cfg).evaluate(p)[0][0]
        mean, p_plus = oracle_shots(wi, wj, p, cfg, rng)
        bound = 1e-12 if execution == "analytic" else 1e-10
        assert abs(p_plus - (1.0 + e) / 2.0) < bound, (variant, link_mode, noise)
        se = np.sqrt(max(1.0 - e**2, 1e-6) / shots)
        assert abs(mean - e) < 5 * se, (variant, link_mode, noise)


def test_cli_qksas_runs_one_evaluator(monkeypatch, tmp_path):
    forbid(monkeypatch, sim, "run_circuit")
    built = []
    init = BatchEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BatchEvaluator, "__init__", counting_init)
    config = tmp_path / "config.json"
    config.write_text('{"seed": 2, "model": {"n": 2, "shots": 10},'
                      ' "data": {"count": 24}}')
    assert cli.main(["qksas", "--config", str(config), "--out", str(tmp_path / "q"),
                     "--indices", "0,3,0"]) == 0
    assert len(built) == 1
    assert len(built[0][0]) == 3


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
    _, rec = forward(rng.uniform(0, np.pi, 4), rng.uniform(0, np.pi, 4),
                     cfg.random_params(rng), cfg)
    assert rec.grid().shape == (2, 2)
    assert np.isclose(rec.grid().sum(), 1.0, atol=1e-10)
