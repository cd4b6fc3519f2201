"""Simulator tests, including a brute-force Kronecker-product oracle that
builds every gate's full-space matrix by hand (plain Python loops, no
shared code with the simulator's embedding)."""
import numpy as np
import pytest

from qkattn import sim
from qkattn.model import ModelConfig, build_full_circuit
from qkattn.sim import (Circuit, Condition, GateOp, Measure, NoiseChannel,
                        StateVector, expand_matrix, expectation_z,
                        gate_matrix, outcome_probabilities, run_circuit)


# --- gate matrices -------------------------------------------------------

def test_fixed_gate_matrices():
    h = gate_matrix("H")
    assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert np.allclose(gate_matrix("X"), [[0, 1], [1, 0]])


def test_rotation_special_angles():
    assert np.allclose(gate_matrix("RY", np.pi), [[0, -1], [1, 0]])
    assert np.allclose(gate_matrix("RZ", 0.0), np.eye(2))
    rx = gate_matrix("RX", np.pi)
    assert np.allclose(rx, [[0, -1j], [-1j, 0]])


def test_cnot_control_is_first_coordinate():
    # |q0=1, q1=0> is index 1; CNOT[0,1] must send it to index 3
    m = gate_matrix("CNOT")
    vec = np.zeros(4)
    vec[1] = 1.0
    assert np.allclose(m @ vec, np.eye(4)[3])
    # control clear: indices 0 and 2 untouched
    assert np.allclose(m @ np.eye(4)[0], np.eye(4)[0])
    assert np.allclose(m @ np.eye(4)[2], np.eye(4)[2])


def test_cry_mixes_control_set_subspace():
    theta = 0.7
    m = gate_matrix("CRY", theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    expect = np.eye(4, dtype=complex)
    expect[1, 1] = c
    expect[1, 3] = -s
    expect[3, 1] = s
    expect[3, 3] = c
    assert np.allclose(m, expect)


def test_mcry_open_acts_on_all_controls_clear():
    theta = 1.1
    m = gate_matrix("MCRY-open", theta, qubits=3)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    # controls clear: local indices 0 (target 0) and 4 (target 1) mix
    assert np.isclose(m[0, 0], c) and np.isclose(m[0, 4], -s)
    assert np.isclose(m[4, 0], s) and np.isclose(m[4, 4], c)
    # any index with a control bit set is untouched
    for k in (1, 2, 3, 5, 6, 7):
        col = np.zeros(8)
        col[k] = 1
        assert np.allclose(m @ col, col)


def test_all_gates_unitary():
    rng = np.random.default_rng(1)
    for kind in ("H", "X"):
        m = gate_matrix(kind)
        assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)
    for kind in ("RX", "RY", "RZ", "CRY"):
        for _ in range(5):
            m = gate_matrix(kind, rng.uniform(0, 2 * np.pi))
            assert np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)
    m = gate_matrix("MCRY-open", 0.9, qubits=3)
    assert np.allclose(m @ m.conj().T, np.eye(8), atol=1e-12)


def test_gate_matrix_argument_validation():
    with pytest.raises(ValueError):
        gate_matrix("RY")
    with pytest.raises(ValueError):
        gate_matrix("H", 0.3)
    with pytest.raises(ValueError):
        gate_matrix("MCRY-open", 0.3)
    with pytest.raises(ValueError):
        gate_matrix("nope")


# --- brute-force Kronecker oracle ---------------------------------------

def _kron_embed(u, coords, q):
    """Embed a local gate by summing outer products over all basis states,
    using only integer bit twiddling."""
    dim = 2**q
    full = np.zeros((dim, dim), dtype=complex)
    m = len(coords)
    others = [k for k in range(q) if k not in coords]
    for row_loc in range(2**m):
        for col_loc in range(2**m):
            amp = u[row_loc, col_loc]
            if amp == 0:
                continue
            for rest in range(2 ** len(others)):
                base = 0
                for i, qb in enumerate(others):
                    base |= ((rest >> i) & 1) << qb
                row = base
                col = base
                for i, qb in enumerate(coords):
                    row |= ((row_loc >> i) & 1) << qb
                    col |= ((col_loc >> i) & 1) << qb
                full[row, col] += amp
    return full


def _random_gate(rng, q, kinds=None):
    """(kind, coords, angle) of a random gate on q qubits, of any kind that
    fits unless ``kinds`` is given."""
    if kinds is None:
        kinds = ["H", "X", "RX", "RY", "RZ"] + (["CNOT", "CRY", "MCRY-open"] if q >= 2 else [])
    kind = str(rng.choice(kinds))
    if kind in ("CNOT", "CRY"):
        coords = tuple(int(c) for c in rng.choice(q, size=2, replace=False))
    elif kind == "MCRY-open":
        arity = int(rng.integers(2, q + 1))
        coords = tuple(int(c) for c in rng.choice(q, size=arity, replace=False))
    else:
        coords = (int(rng.integers(q)),)
    angle = float(rng.uniform(0, 2 * np.pi)) if kind in sim.PARAMETERIZED_KINDS else None
    return kind, coords, angle


def _random_circuit(rng, q, length):
    circ = Circuit(q)
    for _ in range(length):
        circ.gate(*_random_gate(rng, q))
    return circ


def test_brute_force_kronecker_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        q = int(rng.integers(1, 4))
        circ = _random_circuit(rng, q, int(rng.integers(3, 12)))
        total = np.eye(2**q, dtype=complex)
        for op in circ.ops:
            total = _kron_embed(op.matrix(), op.coords, q) @ total
        expected = total[:, 0]
        result = run_circuit(circ, "pure")
        worst = max(worst, np.max(np.abs(result.state.amps - expected)))
    assert worst < 1e-12


def test_expand_matrix_matches_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        q = int(rng.integers(2, 4))
        arity = int(rng.integers(1, q + 1))
        coords = tuple(rng.choice(q, size=arity, replace=False))
        u = rng.normal(size=(2**arity, 2**arity)) + 1j * rng.normal(size=(2**arity, 2**arity))
        assert np.allclose(expand_matrix(u, coords, q), _kron_embed(u, coords, q),
                           atol=1e-12)


# --- states and measurement ----------------------------------------------

def test_bell_state_preparation():
    circ = Circuit(2).gate("H", (0,)).gate("CNOT", (0, 1))
    result = run_circuit(circ, "pure")
    assert np.allclose(result.state.amps, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_outcome_probabilities_ordering():
    # amplitude index 1 means qubit 0 is set
    state = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
    p = outcome_probabilities(state, (0,))
    assert np.allclose(p, [0, 1])
    p = outcome_probabilities(state, (1,))
    assert np.allclose(p, [1, 0])
    p = outcome_probabilities(state, (0, 1))
    assert np.allclose(p, [0, 1, 0, 0])


def test_expectation_z():
    assert np.isclose(expectation_z(StateVector.zero(2), 0), 1.0)
    minus = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))  # qubit 1 set
    assert np.isclose(expectation_z(minus, 1), -1.0)
    assert np.isclose(expectation_z(minus, 0), 1.0)
    plus = run_circuit(Circuit(1).gate("H", (0,)), "pure").state
    assert abs(expectation_z(plus, 0)) < 1e-12


# --- noise channels -------------------------------------------------------

@pytest.mark.parametrize("kind", ["bit-flip", "amplitude-damping"])
def test_channel_trace_preservation(kind):
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = float(rng.uniform(0, 1))
        ch = NoiseChannel(kind, p)
        kraus = ch.kraus()
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(2), atol=1e-12)
        out = run_circuit(_random_circuit(rng, 2, 4), "density", noise=ch).state
        assert np.isclose(out.trace(), 1.0)


def test_bit_flip_full_strength_flips():
    # RZ(0) is the identity; it only marks qubit 0 as touched
    circ = Circuit(1).gate("RZ", (0,), 0.0)
    out = run_circuit(circ, "density", noise=NoiseChannel("bit-flip", 1.0)).state
    assert np.isclose(out.mat[1, 1].real, 1.0)


def test_amplitude_damping_full_strength_resets():
    circ = Circuit(1).gate("X", (0,))
    out = run_circuit(circ, "density", noise=NoiseChannel("amplitude-damping", 1.0)).state
    assert np.isclose(out.mat[0, 0].real, 1.0)


def test_channel_validation():
    with pytest.raises(ValueError):
        NoiseChannel("depolarizing", 0.1)
    with pytest.raises(ValueError):
        NoiseChannel("bit-flip", 1.2)


# --- execution modes -------------------------------------------------------

def test_density_matches_pure_without_noise():
    rng = np.random.default_rng(9)
    for _ in range(20):
        q = int(rng.integers(1, 4))
        circ = _random_circuit(rng, q, 8)
        pure = run_circuit(circ, "pure").state
        dens = run_circuit(circ, "density").state
        assert np.allclose(dens.mat, np.outer(pure.amps, pure.amps.conj()), atol=1e-12)


def test_conditional_mid_circuit_branching():
    # H then measure, then X on qubit 1 if the bit read 1
    circ = Circuit(2, clbits=1)
    circ.gate("H", (0,))
    circ.measure((0,), (0,))
    circ.gate("X", (1,), condition=Condition((0,), (1,)))
    result = run_circuit(circ, "density")
    assert set(result.bits) == {(0,), (1,)}
    assert np.isclose(result.bits[(0,)], 0.5)
    assert np.isclose(result.bits[(1,)], 0.5)
    # branch (1,) holds |11>, branch (0,) holds |00>
    diag = np.diagonal(result.state.mat).real
    assert np.allclose(diag, [0.5, 0, 0, 0.5])


@pytest.mark.parametrize("case", ["noise", "measure", "trajectories"])
def test_pure_mode_rejects_noise(case):
    circ = Circuit(1, clbits=1).gate("H", (0,))
    kwargs = {"mode": "pure"}
    if case == "noise":
        kwargs["noise"] = NoiseChannel("bit-flip", 0.1)
    elif case == "measure":
        circ.measure((0,), (0,))
    else:
        kwargs["mode"] = "trajectories"
    with pytest.raises(ValueError) as err:
        run_circuit(circ, **kwargs)
    message = str(err.value)
    assert "\n" not in message
    assert ("unknown mode" if case == "trajectories" else "use density mode") in message


def test_adjoint_cancellation():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        circ = _random_circuit(rng, q, 6)
        both = Circuit(q)
        both.extend(circ)
        both.extend(circ.adjoint())
        state = run_circuit(both, "pure").state
        assert np.isclose(abs(state.amps[0]), 1.0, atol=1e-12)


def test_circuit_validation():
    circ = Circuit(2, clbits=1)
    circ.gate("X", (0,), condition=Condition((0,), (1,)))
    with pytest.raises(ValueError):
        circ.validate()  # condition read before any measurement write
    with pytest.raises(ValueError):
        Circuit(1).gate("H", (2,))
    with pytest.raises(ValueError):
        Circuit(2).measure((0,), (0,))  # no classical bits
    with pytest.raises(ValueError):
        GateOp("CNOT", (0, 0))


@pytest.mark.parametrize("build, message", [
    # was accepted, the outcome written into bit 1
    (lambda: Circuit(2, clbits=2).gate("H", (0,)).measure((0,), (-1,)),
     r"measurement classical bits \(-1,\) out of range \(valid: 0\.\.1\)"),
    # was accepted, then failed in density mode with a bare StopIteration
    (lambda: Circuit(2, clbits=1).measure((-1,), (0,)),
     r"measurement qubits \(-1,\) out of range \(valid: 0\.\.1\)"),
    (lambda: Circuit(2).gate("H", (-1,)),
     r"gate coordinates \(-1,\) out of range \(valid: 0\.\.1\)"),
    (lambda: Circuit(3).gate("CNOT", (0, -2)),
     r"gate coordinates \(0, -2\) out of range \(valid: 0\.\.2\)"),
    (lambda: Circuit(2, clbits=1).gate("X", (0,), condition=Condition((-1,), (1,))),
     r"condition classical bits \(-1,\) out of range \(valid: 0\.\.0\)"),
    (lambda: Circuit(2).measure((0,), (0,)),
     r"measurement classical bits \(0,\) out of range \(valid: none\)"),
    (lambda: Circuit(2).add_layout((("RY", (0,), 0),), [0.3], offset=-1),
     r"gate coordinates \(-1,\) out of range \(valid: 0\.\.1\)"),
    # was a bare "max() arg is an empty sequence" from Circuit.add
    (lambda: Condition((), ()), "condition needs at least one classical bit"),
])
def test_negative_and_overflowing_coordinates_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_shifted_fragment():
    circ = Circuit(1).gate("H", (0,)).gate("RY", (0,), 0.4)
    moved = circ.shifted(2, 3)
    assert [op.coords for op in moved.ops] == [(2,), (2,)]


# --- noisy layouts as superoperators ----------------------------------------

def _random_layout(rng, q, extra):
    """Random fixed-structure fragment over 3 angle slots; at q >= 2 it
    holds at least one CNOT, CRY, MCRY-open and X."""
    kinds = ["X"] + (["CNOT", "CRY", "MCRY-open"] if q >= 2 else [])
    kinds += list(rng.choice(["H", "X", "RX", "RY", "RZ"] + kinds, size=extra))
    layout = []
    for kind in rng.permutation(kinds):
        if kind in ("CNOT", "CRY"):
            coords = tuple(int(c) for c in rng.choice(q, size=2, replace=False))
        elif kind == "MCRY-open":
            arity = int(rng.integers(2, q + 1))
            coords = tuple(int(c) for c in rng.choice(q, size=arity, replace=False))
        else:
            coords = (int(rng.integers(q)),)
        slot = int(rng.integers(3)) if kind in sim.PARAMETERIZED_KINDS else None
        layout.append((str(kind), coords, slot))
    return tuple(layout)


def _lifted_channel(layout, row, q, noise):
    # vec(ρ) = ρ.reshape(-1), so vec(AρB) = (A ⊗ Bᵀ) vec(ρ)
    total = np.eye(4**q, dtype=complex)
    for kind, coords, slot in layout:
        angle = None if slot is None else row[slot]
        u = expand_matrix(gate_matrix(kind, angle, qubits=len(coords)), coords, q)
        total = np.kron(u, u.conj()) @ total
        for qubit in coords:
            for ch in noise:
                lifted = [expand_matrix(k, (qubit,), q) for k in ch.kraus()]
                total = sum(np.kron(k, k.conj()) for k in lifted) @ total
    return total


NOISE_SETS = [(), (NoiseChannel("bit-flip", 0.15),), (NoiseChannel("amplitude-damping", 0.2),),
              (NoiseChannel("bit-flip", 0.1), NoiseChannel("amplitude-damping", 0.3))]


def _channels(layout, angles, q, noise):
    """The superoperators (K, 4^q, 4^q) of a noisy fragment, one per row of
    ``angles``: ``apply_noisy_layout`` on the 4^q basis vectors, transposed."""
    basis = np.eye(4**q, dtype=complex)[None]
    return sim.apply_noisy_layout(basis, layout, angles, q, noise).transpose(0, 2, 1)


def _wide_arities(layout):
    return {len(coords) for _, coords, _ in layout if len(coords) > sim._FOLDED_ARITY}


@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_layout_channels_match_lifted_kraus_reference(q):
    # at q = 4 the layouts hold MCRY-open gates of arity 3 and 4, which
    # apply U and U* on their own axes instead of one fused superoperator
    rng = np.random.default_rng(60 + q)
    wide = set()
    for noise in NOISE_SETS:
        for _ in range(3):
            layout = _random_layout(rng, q, 6)
            wide |= _wide_arities(layout)
            angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
            got = _channels(layout, angles, q, noise)
            assert got.shape == (2, 4**q, 4**q)
            for k, row in enumerate(angles):
                ref = _lifted_channel(layout, row, q, noise)
                assert np.max(np.abs(got[k] - ref)) < 1e-12, (layout, noise)
    assert wide == set(range(3, q + 1))


@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_noisy_layout_adjoint_is_heisenberg_picture(q):
    # Tr(O·Λ(ρ)) = Tr(Λ†(O)·ρ) for Hermitian O and a density matrix ρ
    rng = np.random.default_rng(70 + q)
    dim = 2**q
    noise = NOISE_SETS[3]
    wide = set()
    for _ in range(6):
        layout = _random_layout(rng, q, 6)
        wide |= _wide_arities(layout)
        angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
        a = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
        rho = a @ a.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
        b = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
        obs = b + b.conj().transpose(0, 2, 1)
        out = sim.apply_noisy_layout(rho.reshape(2, 1, -1), layout, angles, q, noise)
        back = sim.apply_noisy_layout(obs.reshape(2, 1, -1), layout, angles, q, noise,
                                      adjoint=True)
        for k in range(2):
            forward = np.trace(obs[k] @ out[k, 0].reshape(dim, dim))
            heisenberg = np.trace(back[k, 0].reshape(dim, dim) @ rho[k])
            assert abs(forward - heisenberg) < 1e-12
            assert abs(np.trace(out[k, 0].reshape(dim, dim)) - 1.0) < 1e-12
    assert wide == set(range(3, q + 1))


def _derivative_layout(rng, q):
    """A fragment whose slots 0..2 each drive one rotation on at most two
    qubits, between fixed gates; slot 3 drives none."""
    kinds = ["RX", "RY", "RZ"] + (["CRY"] if q >= 2 else [])
    layout = [("H", (q - 1,), None)]
    for slot in rng.permutation(3):
        kind = str(rng.choice(kinds))
        size = 2 if kind == "CRY" else 1
        coords = tuple(int(c) for c in rng.choice(q, size=size, replace=False))
        layout += [(kind, coords, int(slot)), ("X", (int(rng.integers(q)),), None)]
    return tuple(layout)


@pytest.mark.parametrize("q", (1, 2, 3))
def test_layout_derivative_rows_match_richardson_differences(q):
    # each row is followed by its derivative in each of the 4 columns; the
    # column that drives no gate reads exactly 0
    rng = np.random.default_rng(140 + q)
    h = 1e-3
    shifts = np.eye(4)

    def richardson(build, angles):
        def central(step):
            d = (build((angles[:, None] + step * shifts).reshape(-1, 4))
                 - build((angles[:, None] - step * shifts).reshape(-1, 4))) / (2 * step)
            return d.reshape((len(angles), 4) + d.shape[1:])
        return (4 * central(h / 2) - central(h)) / 3

    for noise in [None] + NOISE_SETS:
        layout = _derivative_layout(rng, q)
        angles = rng.uniform(0, 2 * np.pi, size=(2, 4))
        if noise is None:
            def build(rows, derivatives=False):
                return sim.layout_unitaries(layout, rows, q, derivatives)
        else:
            def build(rows, derivatives=False):
                basis = np.eye(4**q, dtype=complex)[None]
                return sim.apply_noisy_layout(basis, layout, rows, q, noise,
                                              derivatives=derivatives)
        got = build(angles, True)
        got = got.reshape((2, 5) + got.shape[1:])
        assert np.max(np.abs(got[:, 0] - build(angles))) < 1e-14, noise
        assert np.max(np.abs(got[:, 1:] - richardson(build, angles))) < 1e-10, noise
        assert np.all(got[:, 4] == 0.0), noise


def test_derivative_rows_need_each_slot_on_one_gate():
    layout = (("RY", (0,), 0), ("RZ", (0,), 0))
    with pytest.raises(ValueError, match="at most one"):
        sim.layout_unitaries(layout, np.zeros((1, 1)), 1, derivatives=True)
    # the wide MCRY-open gate at q = 3 applies as two rotation steps, U and U*
    wide = (("MCRY-open", (0, 1, 2), 0),)
    with pytest.raises(ValueError, match="at most one"):
        sim.apply_noisy_layout(np.ones((1, 1, 64), dtype=complex), wide, np.zeros((1, 1)), 3,
                               NOISE_SETS[1], derivatives=True)


# --- noisy layouts as products of cached factors (q <= 2) ---------------------

def _assert_channels_match_lifted(layout, angles, q, noise, rng):
    got = _channels(layout, angles, q, noise)
    assert got.shape == (len(angles), 4**q, 4**q)
    vecs = rng.normal(size=(len(angles), 3, 4**q)) + 1j * rng.normal(size=(len(angles), 3, 4**q))
    forward = sim.apply_noisy_layout(vecs, layout, angles, q, noise)
    backward = sim.apply_noisy_layout(vecs, layout, angles, q, noise, adjoint=True)
    for k, row in enumerate(angles):
        ref = _lifted_channel(layout, row, q, noise)
        assert np.max(np.abs(got[k] - ref)) < 1e-12, (layout, noise)
        assert np.max(np.abs(forward[k] - vecs[k] @ ref.T)) < 1e-12, (layout, noise)
        assert np.max(np.abs(backward[k] - vecs[k] @ ref.conj())) < 1e-12, (layout, noise)


@pytest.mark.parametrize("q", (1, 2))
@pytest.mark.parametrize("noise", NOISE_SETS)
def test_layout_channel_factors_match_lifted_kraus_reference(q, noise):
    rng = np.random.default_rng(100 + q)
    # noisy fixed gates at both ends fold into the first and last factors
    fixed = (("H", (0,), None), ("X", (q - 1,), None))
    layout = fixed + _random_layout(rng, q, 4) + fixed[::-1]
    _assert_channels_match_lifted(layout, rng.uniform(0, 2 * np.pi, size=(2, 3)), q, noise, rng)
    # a list layout is accepted like its tuple
    _assert_channels_match_lifted(list(layout), rng.uniform(0, 2 * np.pi, size=(2, 3)), q,
                                  noise, rng)
    # no rotation at all: the fixed channel for every row
    _assert_channels_match_lifted(fixed, np.zeros((2, 0)), q, noise, rng)


@pytest.mark.parametrize("q", (1, 2))
def test_layout_channel_factors_depend_on_noise_strength(q):
    rng = np.random.default_rng(110 + q)
    layout = _random_layout(rng, q, 4)
    angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
    for kind in ("bit-flip", "amplitude-damping"):
        for strength in (0.1, 0.3):
            _assert_channels_match_lifted(layout, angles, q, (NoiseChannel(kind, strength),), rng)


@pytest.mark.parametrize("q", (1, 2))
def test_layout_channels_results_do_not_alias_the_cache(q):
    rng = np.random.default_rng(120 + q)
    angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
    for layout in (_random_layout(rng, q, 4), (("H", (0,), None), ("X", (q - 1,), None))):
        first = _channels(layout, angles, q, NOISE_SETS[3])
        expected = first.copy()
        first[...] = 0.0
        assert np.array_equal(_channels(layout, angles, q, NOISE_SETS[3]), expected)


# --- analytic layouts as products of cached factors ---------------------------

def _kron_unitary(layout, row, q):
    total = np.eye(2**q, dtype=complex)
    for kind, coords, slot in layout:
        angle = None if slot is None else row[slot]
        total = _kron_embed(gate_matrix(kind, angle, qubits=len(coords)), coords, q) @ total
    return total


def _assert_matches_kron(layout, angles, q):
    got = sim.layout_unitaries(layout, angles, q)
    assert got.shape == (len(angles), 2**q, 2**q)
    for k, row in enumerate(angles):
        assert np.max(np.abs(got[k] - _kron_unitary(layout, row, q))) < 1e-12, layout


@pytest.mark.parametrize("q", (1, 2, 3))
def test_layout_unitaries_match_kronecker_oracle(q):
    rng = np.random.default_rng(80 + q)
    for _ in range(6):
        layout = _random_layout(rng, q, 6)
        _assert_matches_kron(layout, rng.uniform(0, 2 * np.pi, size=(3, 3)), q)
    # unparameterized gates at both ends fold into the first and last factors
    fixed = (("H", (0,), None), ("X", (q - 1,), None))
    layout = fixed + _random_layout(rng, q, 4) + fixed[::-1]
    _assert_matches_kron(layout, rng.uniform(0, 2 * np.pi, size=(2, 3)), q)
    # a list layout is accepted like its tuple
    _assert_matches_kron(list(layout), rng.uniform(0, 2 * np.pi, size=(2, 3)), q)
    # no rotation at all: the fixed unitary for every row
    _assert_matches_kron(fixed, np.zeros((2, 0)), q)


def test_rotation_stack_matches_gate_matrix():
    rng = np.random.default_rng(90)
    angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=5)
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    for kind, arity in (("RX", 1), ("RY", 1), ("RZ", 1), ("CRY", 2),
                        ("MCRY-open", 2), ("MCRY-open", 3)):
        stack = sim._rotation_stack(kind, c, s, arity)
        assert stack.shape == (5, 2**arity, 2**arity)
        for k, angle in enumerate(angles):
            assert np.max(np.abs(stack[k] - gate_matrix(kind, angle, qubits=arity))) < 1e-15


def test_layout_unitaries_results_do_not_alias_the_cache():
    rng = np.random.default_rng(91)
    angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
    for layout in (_random_layout(rng, 2, 4), (("H", (0,), None), ("CNOT", (0, 1), None))):
        first = sim.layout_unitaries(layout, angles, 2)
        expected = first.copy()
        first[...] = 0.0
        assert np.array_equal(sim.layout_unitaries(layout, angles, 2), expected)


# --- density oracle against lifted Kraus operators ----------------------------

def _random_measured_circuit(rng, q):
    """Random gates, mid-circuit measurements of qubit subsets and gates
    conditioned on bits already written; at q >= 2 at least one
    conditioned gate is an MCRY-open."""
    clbits = min(q, 3)
    circ = Circuit(q, clbits=clbits)
    written: list[int] = []

    def measure():
        size = int(rng.integers(1, min(q, clbits) + 1))
        qubits = rng.choice(q, size=size, replace=False)
        bits = rng.choice(clbits, size=size, replace=False)
        circ.measure(qubits, bits)
        written.extend(b for b in bits if b not in written)

    def conditioned(kinds=None):
        bits = rng.choice(written, size=int(rng.integers(1, len(written) + 1)), replace=False)
        condition = Condition(tuple(int(b) for b in bits),
                              tuple(int(v) for v in rng.integers(2, size=len(bits))))
        circ.gate(*_random_gate(rng, q, kinds=kinds), condition=condition)

    for _ in range(3):
        circ.gate(*_random_gate(rng, q))
    measure()
    conditioned(["MCRY-open"] if q >= 2 else None)
    for _ in range(int(rng.integers(6, 12))):
        r = rng.random()
        if r < 0.15:
            measure()
        elif r < 0.4:
            conditioned()
        else:
            circ.gate(*_random_gate(rng, q))
    measure()
    return circ


def _lifted_density_run(circ, noise):
    """run_circuit's density mode by brute force: every gate, Kraus
    operator and projector lifted to the full space with _kron_embed, ρ
    evolved by dense products, one ρ per classical bit pattern.  Noise
    follows each gate on each of its qubits, as in run_circuit."""
    q = circ.qubits
    kraus = [[[_kron_embed(k, (qubit,), q) for k in ch.kraus()] for ch in noise]
             for qubit in range(q)]
    rho = np.zeros((2**q, 2**q), dtype=complex)
    rho[0, 0] = 1.0
    branches = {(0,) * circ.clbits: rho}
    probs = []
    for op in circ.ops:
        if isinstance(op, Measure):
            outcomes = 2 ** len(op.qubits)
            projectors = [_kron_embed(np.diag(e), op.qubits, q) for e in np.eye(outcomes)]
            agg = np.zeros(outcomes)
            split = {}
            for key, rho in branches.items():
                for outcome, proj in enumerate(projectors):
                    sub = proj @ rho @ proj
                    w = float(np.trace(sub).real)
                    agg[outcome] += w
                    if w <= 1e-15:
                        continue
                    new = list(key)
                    for i, cb in enumerate(op.clbits):
                        new[cb] = (outcome >> i) & 1
                    split[tuple(new)] = split.get(tuple(new), 0) + sub
            branches = split
            probs.append(agg)
            continue
        u = _kron_embed(op.matrix(), op.coords, q)
        for key, rho in branches.items():
            if op.condition is not None and not op.condition.holds(key):
                continue
            rho = u @ rho @ u.conj().T
            for qubit in op.coords:
                for ks in kraus[qubit]:
                    rho = sum(k @ rho @ k.conj().T for k in ks)
            branches[key] = rho
    weights = {key: float(np.trace(rho).real) for key, rho in branches.items()}
    return sum(branches.values()), weights, probs


@pytest.mark.parametrize("noise", NOISE_SETS)
def test_density_oracle_matches_lifted_kraus_reference(noise):
    rng = np.random.default_rng(130 + NOISE_SETS.index(noise))
    for q in range(1, 7):
        for _ in range(2):
            circ = _random_measured_circuit(rng, q)
            got = run_circuit(circ, "density", noise=noise)
            mat, weights, probs = _lifted_density_run(circ, noise)
            assert np.max(np.abs(got.state.mat - mat)) < 1e-12, (q, noise)
            assert set(got.bits) == set(weights), (q, noise)
            assert max(abs(got.bits[k] - w) for k, w in weights.items()) < 1e-12
            assert len(got.measurement_probs) == len(probs)
            for a, b in zip(got.measurement_probs, probs):
                assert np.max(np.abs(a - b)) < 1e-12, (q, noise)


def test_density_oracle_caches_are_keyed_by_channel_strength():
    # the oracle builds its noise superoperators once per noise model; a
    # cache key that dropped the strength would replay the first one
    circ = _noisy_branching_circuit()
    for channels in NOISE_SETS[1:]:
        for scale in (1.0, 2.0, 1.0):
            noise = tuple(NoiseChannel(ch.kind, scale * ch.strength) for ch in channels)
            got = run_circuit(circ, "density", noise=noise)
            mat, weights, probs = _lifted_density_run(circ, noise)
            assert np.max(np.abs(got.state.mat - mat)) < 1e-12, noise
            assert max(abs(got.bits[k] - w) for k, w in weights.items()) < 1e-12
            for a, b in zip(got.measurement_probs, probs, strict=True):
                assert np.max(np.abs(a - b)) < 1e-12
    weak, strong = ((NoiseChannel("bit-flip", p),) for p in (0.15, 0.4))
    assert not np.array_equal(sim._oracle_folds(weak)[0], sim._oracle_folds(strong)[0])
    assert not np.array_equal(sim._oracle_fixed("CNOT", 2, weak),
                              sim._oracle_fixed("CNOT", 2, strong))


def test_density_oracle_caches_are_read_only():
    noise = NOISE_SETS[3]
    for arr in (*sim._oracle_folds(noise),
                sim._oracle_fixed("H", 1, noise), sim._oracle_fixed("CNOT", 2, ()),
                sim._oracle_fixed("X", 1, NOISE_SETS[1])):
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 7.0
        assert np.array_equal(arr, before)


def _noisy_branching_circuit():
    """Noisy 1- and 2-qubit gates, a mid-circuit measurement of two qubits
    and a gate conditioned on one of the bits it writes."""
    circ = Circuit(3, clbits=3)
    circ.gate("H", (0,)).gate("CNOT", (0, 1)).gate("RY", (2,), 0.3)
    circ.measure((0, 1), (0, 1))
    circ.gate("X", (2,), condition=Condition((0,), (1,)))
    circ.gate("CRY", (1, 2), 0.4).gate("RX", (0,), 0.7)
    return circ


def _spy_apply_local(monkeypatch):
    """Record (tensor axes, operator) of every _apply_local call."""
    calls = []
    apply_local = sim._apply_local

    def spy(rho, sop, *args):
        calls.append((rho.ndim, sop))
        return apply_local(rho, sop, *args)

    monkeypatch.setattr(sim, "_apply_local", spy)
    return calls


def test_density_oracle_applies_one_operator_per_gate_per_branch(monkeypatch):
    # each gate's noise is folded into its superoperator: one application
    # per gate on every live branch its condition admits, none for the noise
    noise = (NoiseChannel("bit-flip", 0.1),)
    circ = _noisy_branching_circuit()
    calls = _spy_apply_local(monkeypatch)
    result = run_circuit(circ, "density", noise=noise)
    assert len(result.bits) == 4  # bit-flip noise leaves every outcome live
    fired = sum(key[0] == 1 for key in result.bits)
    assert len(calls) == 3 + fired + 2 * len(result.bits)
    mat, _, _ = _lifted_density_run(circ, noise)
    assert np.max(np.abs(result.state.mat - mat)) < 1e-12


def _meeting_branches_circuit():
    """Two qubits no gate couples, measured one after the other into the
    same classical bit: the branches that read 0 then 1 and 1 then 0 meet
    on one bit pattern, where their sum is no product of per-qubit
    factors.  A third uncoupled qubit is measured into a bit of its own."""
    circ = Circuit(3, clbits=2)
    circ.gate("H", (0,)).gate("RY", (1,), 1.1).gate("RX", (2,), 0.6)
    circ.measure((0,), (0,)).measure((1,), (0,))
    circ.gate("RY", (2,), 0.9, condition=Condition((0,), (1,)))
    circ.gate("RX", (0,), 0.4).measure((2,), (1,))
    return circ


def test_density_oracle_lifts_one_operator_per_measurement(monkeypatch):
    # perfbench's tracer probe sim.expand_matrix.calls counts these lifts
    calls = []
    expand = sim.expand_matrix

    def spy(u, coords, q):
        calls.append(len(coords))
        return expand(u, coords, q)

    monkeypatch.setattr(sim, "expand_matrix", spy)
    for circ in (_noisy_branching_circuit().measure((2,), (2,)), _meeting_branches_circuit()):
        calls.clear()
        run_circuit(circ, "density", noise=(NoiseChannel("amplitude-damping", 0.2),))
        assert calls == [len(op.qubits) for op in circ.ops if isinstance(op, Measure)]


@pytest.mark.parametrize("noise", NOISE_SETS)
def test_density_oracle_sums_branches_that_meet_on_one_bit_pattern(noise):
    circ = _meeting_branches_circuit()
    got = run_circuit(circ, "density", noise=noise)
    mat, weights, probs = _lifted_density_run(circ, noise)
    assert np.max(np.abs(got.state.mat - mat)) < 1e-12
    assert list(got.bits) == list(weights)
    assert max(abs(got.bits[k] - w) for k, w in weights.items()) < 1e-12
    for a, b in zip(got.measurement_probs, probs, strict=True):
        assert np.max(np.abs(a - b)) < 1e-12


def test_density_oracle_keeps_conditionally_linked_registers_apart(monkeypatch):
    # the canonical link couples the registers only through classical
    # bits: every gate acts on a register's own n-qubit factor (2n axes),
    # never on the 2n-qubit density (4n axes)
    n = 3
    noise = (NoiseChannel("bit-flip", 0.05), NoiseChannel("amplitude-damping", 0.1))
    cfg = ModelConfig.from_variant("AmHE", n=n, execution="density", noise=noise)
    rng = np.random.default_rng(140)
    x = rng.normal(size=(2, cfg.feature_dim))
    circ = build_full_circuit(x[0], x[1], cfg.random_params(rng), cfg,
                              form="conditional", final_measure=True)
    calls = _spy_apply_local(monkeypatch)
    result = run_circuit(circ, "density", noise=noise)
    assert calls and max(ndim for ndim, _ in calls) <= 2 * n
    mat, weights, probs = _lifted_density_run(circ, noise)
    assert np.max(np.abs(result.state.mat - mat)) < 1e-12
    assert list(result.bits) == list(weights)
    assert max(abs(result.bits[k] - w) for k, w in weights.items()) < 1e-12
    # the readout's outcome weights carry register 1's measured trace
    for a, b in zip(result.measurement_probs, probs, strict=True):
        assert np.max(np.abs(a - b)) < 1e-12


def test_density_oracle_couples_registers_at_the_first_literal_link_gate(monkeypatch):
    # the literal link's CRY gates are the first ops that span both
    # registers, so the first application to the full 2n-qubit density
    # is the first of them
    n = 2
    cfg = ModelConfig.from_variant("AmHE", n=n, link_mode="per-qubit-literal")
    rng = np.random.default_rng(141)
    x = rng.normal(size=(2, cfg.feature_dim))
    params = cfg.random_params(rng)
    circ = build_full_circuit(x[0], x[1], params, cfg, form="conditional")
    calls = _spy_apply_local(monkeypatch)
    run_circuit(circ, "density")
    assert len(calls) == len(circ.ops)  # noise-free, one branch: one call per gate
    first = next(k for k, (ndim, _) in enumerate(calls) if ndim == 4 * n)
    link = next(k for k, op in enumerate(circ.ops) if op.coords == (0, n))
    assert circ.ops[link].kind == "CRY" and first == link
    assert np.allclose(calls[first][1], sim._superop(gate_matrix("CRY", params.theta4[0])))
