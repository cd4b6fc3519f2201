"""Simulator tests, including a brute-force Kronecker-product oracle that
builds every gate's full-space matrix by hand (plain Python loops, no
shared code with the simulator's embedding)."""
import numpy as np
import pytest

from qkattn import ansatz, encoding, sim
from qkattn.model import ModelConfig, _reversed_layout, build_full_circuit
from qkattn.sim import (Circuit, Condition, GateOp, Measure, NoiseChannel,
                        StateVector, expand_matrix, expectation_z,
                        gate_matrix, run_circuit)


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
    # a random fragment followed by add_layout's adjoint of it, which
    # build_full_circuit appends for U†(θ2) and U_φ†(w_j)
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = int(rng.integers(1, 4))
        layout = _random_layout(rng, q, 6)
        angles = rng.uniform(0, 2 * np.pi, size=3)
        both = Circuit(q).add_layout(layout, angles).add_layout(layout, angles, adjoint=True)
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
    # vec(ρ) = ρ.reshape(-1), so vec(AρB) = (A ⊗ Bᵀ) vec(ρ).  Each gate and
    # the channels on each of its qubits compose on the gate's own vec
    # space (column bits low, row bits high), which is then lifted once
    # onto its qubits' column and row bits of vec(ρ)
    total = np.eye(4**q, dtype=complex)
    for kind, coords, slot in layout:
        angle = None if slot is None else row[slot]
        u = gate_matrix(kind, angle, qubits=len(coords))
        local = np.kron(u, u.conj())
        for k in range(len(coords)):
            for ch in noise:
                lifted = [expand_matrix(op, (k,), len(coords)) for op in ch.kraus()]
                local = sum(np.kron(op, op.conj()) for op in lifted) @ local
        pairs = tuple(coords) + tuple(c + q for c in coords)
        total = expand_matrix(local, pairs, 2 * q) @ total
    return total


NOISE_SETS = [(), (NoiseChannel("bit-flip", 0.15),), (NoiseChannel("amplitude-damping", 0.2),),
              (NoiseChannel("bit-flip", 0.1), NoiseChannel("amplitude-damping", 0.3))]


def _walk_channel(ref, q):
    """A superoperator S on vec(ρ) (…, 4^q, 4^q) in the basis that
    ``apply_noisy_layout`` walks, T S T†, where the walk carries
    T·vec(ρ) (``sim.to_walk_basis``)."""
    t = sim._pauli_basis(q)
    return t @ ref @ t.conj().T


PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]


@pytest.mark.parametrize("q", (1, 2, 3))
def test_pauli_basis_is_unitary_and_reads_pauli_expectations(q):
    # entry p of T·vec(ρ) is Tr(P ρ)/2^{q/2}, P the Pauli string whose
    # qubit k takes index bit k + 2·bit (q + k) of p; real for Hermitian ρ
    t = sim._pauli_basis(q)
    assert np.max(np.abs(t @ t.conj().T - np.eye(4**q))) < 1e-15
    assert not t.flags.writeable
    rng = np.random.default_rng(40 + q)
    dim = 2**q
    a = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    herm = a + a.conj().transpose(0, 2, 1)
    got = sim.to_walk_basis(herm.reshape(3, -1), q)
    assert got.dtype == float and got.shape == (3, 4**q)
    for p in range(4**q):
        string = np.eye(1)
        for k in range(q):
            string = np.kron(PAULIS[(p >> k & 1) + 2 * (p >> (q + k) & 1)], string)
        ref = np.trace(string @ herm, axis1=1, axis2=2) / np.sqrt(dim)
        assert np.max(np.abs(got[:, p] - ref)) < 1e-14, p
    with pytest.raises(ValueError, match="not real in the Pauli basis"):
        sim.to_walk_basis(a.reshape(3, -1), q)


@pytest.mark.parametrize("coords", [(0,), (1,), (0, 1), (1, 0)])
def test_local_superoperator_in_pauli_basis_is_the_full_conjugation(coords):
    # T_q is T_1 on each qubit's (column, row) bit pair in place, so a local
    # superoperator conjugated by its own qubits' T and then lifted is the
    # lifted one conjugated by T_q
    q, m = 2, len(coords)
    rng = np.random.default_rng(50 + len(coords) + coords[0])
    local = rng.normal(size=(4**m, 4**m)) + 1j * rng.normal(size=(4**m, 4**m))
    pairs = tuple(coords) + tuple(c + q for c in coords)  # column bits, then row bits
    lifted = expand_matrix(_walk_channel(local, m), pairs, 2 * q)
    ref = _walk_channel(expand_matrix(local, pairs, 2 * q), q)
    assert np.max(np.abs(lifted - ref)) < 1e-13


def _channels(layout, angles, q, noise):
    """The superoperators (K, 4^q, 4^q) of a noisy fragment, one per row of
    ``angles``, in the walk's basis: ``apply_noisy_layout`` on the 4^q
    basis vectors, transposed."""
    basis = np.eye(4**q, dtype=complex)[None]
    return sim.apply_noisy_layout(basis, layout, angles, q, noise).transpose(0, 2, 1)


def _wide_arities(layout):
    return {len(coords) for _, coords, _ in layout if len(coords) > sim._FOLDED_ARITY}


@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_layout_channels_match_lifted_kraus_reference(q):
    # at q = 4 the layouts hold MCRY-open gates of arity 3 and 4, which
    # apply U and U* on their own axes instead of one fused superoperator;
    # each noise's first layout is also checked without its wide gates, a
    # walk that never leaves the Pauli basis
    rng = np.random.default_rng(60 + q)
    wide = set()
    for noise in NOISE_SETS:
        for k in range(3):
            layout = _random_layout(rng, q, 6)
            wide |= _wide_arities(layout)
            angles = rng.uniform(0, 2 * np.pi, size=(2, 3))
            narrow = tuple(g for g in layout if len(g[1]) <= sim._FOLDED_ARITY)
            for fragment in {layout} if k else {layout, narrow}:
                got = _channels(fragment, angles, q, noise)
                assert got.shape == (2, 4**q, 4**q)
                for k, row in enumerate(angles):
                    ref = _walk_channel(_lifted_channel(fragment, row, q, noise), q)
                    assert np.max(np.abs(got[k] - ref)) < 1e-12, (fragment, noise)
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
        rho, obs = (sim.to_walk_basis(m.reshape(2, 1, -1), q) for m in (rho, obs))
        eye = sim.to_walk_basis(np.eye(dim).reshape(-1), q)
        out = sim.apply_noisy_layout(rho, layout, angles, q, noise)
        back = sim.apply_noisy_layout(obs, layout, angles, q, noise, adjoint=True)
        # Tr(A·B) = vec(A)ᴴ vec(B) for Hermitian A, in either basis: T is unitary
        for k in range(2):
            forward = np.vdot(obs[k, 0], out[k, 0])
            heisenberg = np.vdot(back[k, 0], rho[k, 0])
            assert abs(forward - heisenberg) < 1e-12
            assert abs(np.vdot(eye, out[k, 0]) - 1.0) < 1e-12
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
            def build(rows, derivatives=0):
                return sim.layout_unitaries(layout, rows, q, derivatives)
        else:
            def build(rows, derivatives=0):
                basis = np.eye(4**q, dtype=complex)[None]
                return sim.apply_noisy_layout(basis, layout, rows, q, noise,
                                              derivatives=derivatives)
        got = build(angles, len(angles))
        got = got.reshape((2, 5) + got.shape[1:])
        assert np.max(np.abs(got[:, 0] - build(angles))) < 1e-14, noise
        assert np.max(np.abs(got[:, 1:] - richardson(build, angles))) < 1e-10, noise
        assert np.all(got[:, 4] == 0.0), noise


def _repeated_coefficient_rows(angles, slots, channel):
    """Derivative coefficient rows built by repeating each row and writing
    the derivative blocks in place: the construction that the cached map
    of ``sim._expansion`` replaced."""
    half = angles[:, slots].T / 2
    c, s = np.cos(half), np.sin(half)
    coef = np.stack([np.ones_like(c), c, s] + ([c * s, s * s] if channel else []), axis=-1)
    width, terms = angles.shape[1], coef.shape[-1]
    out = np.repeat(coef[:, :, None], 1 + width, axis=2)
    out[np.arange(slots.size), :, 1 + slots] = coef @ sim._BASIS_DERIVATIVE[:terms, :terms]
    undriven = [1 + j for j in range(width) if j not in set(slots.tolist())]
    out[0, :, undriven] = 0.0
    return out.reshape(slots.size, -1, terms)


@pytest.mark.parametrize("channel", (False, True))
def test_derivative_coefficient_rows_are_one_product_with_a_cached_map(channel):
    # three rotations over five columns, of which 1 and 4 drive none; the
    # first `lead` rows get derivative rows, all k of them or fewer, and
    # the rest follow
    rng = np.random.default_rng(145)
    slots = np.array([3, 0, 2])
    for k in (1, 2, 4):
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(k, 5))
        ref = _repeated_coefficient_rows(angles, slots, channel)
        got = sim._coefficients(angles, slots, channel, k)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert np.all(got.reshape(3, k, 6, -1)[0, :, [2, 5]] == 0.0)
        plain = sim._coefficients(angles, slots, channel)
        for lead in range(1, k):
            got = sim._coefficients(angles, slots, channel, lead)
            assert np.array_equal(got[:, : 6 * lead], ref[:, : 6 * lead])
            assert np.array_equal(got[:, 6 * lead:], plain[:, lead:])
    assert sim._expansion(tuple(slots), 5, 5 if channel else 3) is sim._expansion(
        tuple(slots), 5, 5 if channel else 3)


def test_derivative_rows_need_each_slot_on_one_gate():
    layout = (("RY", (0,), 0), ("RZ", (0,), 0))
    with pytest.raises(ValueError, match="at most one"):
        sim.layout_unitaries(layout, np.zeros((1, 1)), 1, derivatives=1)
    # the wide MCRY-open gate at q = 3 applies as two rotation steps, U and U*
    wide = (("MCRY-open", (0, 1, 2), 0),)
    with pytest.raises(ValueError, match="at most one"):
        sim.apply_noisy_layout(np.ones((1, 1, 64), dtype=complex), wide, np.zeros((1, 1)), 3,
                               NOISE_SETS[1], derivatives=1)


# --- noisy layouts as products of cached factors (q <= 2) ---------------------

def _assert_channels_match_lifted(layout, angles, q, noise, rng):
    got = _channels(layout, angles, q, noise)
    assert got.shape == (len(angles), 4**q, 4**q)
    vecs = rng.normal(size=(len(angles), 3, 4**q)) + 1j * rng.normal(size=(len(angles), 3, 4**q))
    forward = sim.apply_noisy_layout(vecs, layout, angles, q, noise)
    backward = sim.apply_noisy_layout(vecs, layout, angles, q, noise, adjoint=True)
    for k, row in enumerate(angles):
        ref = _walk_channel(_lifted_channel(layout, row, q, noise), q)
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


# --- the walk over a stack ----------------------------------------------------

# (shift, weight) pairs of the four-term rule, exact for every rotation
# kind here: d/dθ f = Σ weight·(f(θ + shift) − f(θ − shift))
FOUR_TERM_RULE = ((np.pi / 2, (np.sqrt(2) + 1) / (4 * np.sqrt(2))),
                  (3 * np.pi / 2, -(np.sqrt(2) - 1) / (4 * np.sqrt(2))))


@pytest.mark.parametrize("q", (1, 2))
@pytest.mark.parametrize("noise", NOISE_SETS)
def test_walk_on_small_stacks_matches_lifted_kraus_reference(q, noise):
    # stacks of 1 and 3 vectors, row by row and shared, forward and
    # adjoint, and a shared one-row stack with derivative rows
    rng = np.random.default_rng(150 + q)
    fixed = (("H", (0,), None), ("X", (q - 1,), None))
    layout = fixed + _derivative_layout(rng, q) + fixed[::-1]
    angles = rng.uniform(0, 2 * np.pi, size=(2, 4))
    refs = [_walk_channel(_lifted_channel(layout, row, q, noise), q) for row in angles]
    for count in (1, 3):
        vecs = rng.normal(size=(2, count, 4**q)) + 1j * rng.normal(size=(2, count, 4**q))
        for stack in (vecs, vecs[:1]):
            forward = sim.apply_noisy_layout(stack, layout, angles, q, noise)
            backward = sim.apply_noisy_layout(stack, layout, angles, q, noise, adjoint=True)
            assert forward.shape == backward.shape == (2, count, 4**q)
            for k, ref in enumerate(refs):
                v = stack[k % len(stack)]
                assert np.max(np.abs(forward[k] - v @ ref.T)) < 1e-12
                assert np.max(np.abs(backward[k] - v @ ref.conj())) < 1e-12
        shared = vecs[:1]
        got = sim.apply_noisy_layout(shared, layout, angles, q, noise,
                                     derivatives=len(angles))
        got = got.reshape(2, 5, count, 4**q)
        for k, row in enumerate(angles):
            assert np.max(np.abs(got[k, 0] - shared[0] @ refs[k].T)) < 1e-12
            for j in range(4):
                step = np.eye(4)[j]
                ref = sum(weight * (_lifted_channel(layout, row + shift * step, q, noise)
                                    - _lifted_channel(layout, row - shift * step, q, noise))
                          for shift, weight in FOUR_TERM_RULE)
                ref = _walk_channel(ref, q)
                assert np.max(np.abs(got[k, 1 + j] - shared[0] @ ref.T)) < 1e-12, j


def test_cached_walk_factors_are_real_read_only_and_not_aliased():
    # the amplitude encoders, their reversed layouts and the link RY have
    # real factors under both channels, and so have the ansatzes' RZ steps
    # in the Pauli basis, at every q
    rng = np.random.default_rng(160)
    for q in (1, 2, 3, 4):
        encoder = encoding.encoder_layout("amplitude", q)
        for noise in NOISE_SETS[1:3]:
            for layout in (encoder, _reversed_layout(encoder), (("RY", (q - 1,), 0),)):
                slots, groups, steps = sim._layout_plan(layout, q, noise)
                assert not slots.flags.writeable
                for _, factors, _ in groups:
                    assert factors.dtype == float and not factors.flags.writeable
                for _, fixed, *_ in steps:
                    assert fixed is None or not fixed.flags.writeable
            _, groups, steps = sim._layout_plan(ansatz.ansatz_layout("hea", q), q, noise)
            assert all(factors.dtype == float for _, factors, _ in groups)
            assert all(fixed is None or fixed.dtype == float for _, fixed, *_ in steps)
        _, factors, tail = sim._layout_factors(encoder, q)
        assert factors.dtype == float
        assert not factors.flags.writeable and not tail.flags.writeable
        # the derivative rows' map, here of the HE ansatz's rotations
        hea = ansatz.ansatz_layout("hea", q)
        for slots, terms in ((sim._layout_factors(hea, q)[0], 3),
                             (sim._layout_plan(hea, q, NOISE_SETS[1])[0], 5)):
            assert not sim._expansion(tuple(slots.tolist()), 2 * q, terms).flags.writeable
        angles = rng.uniform(0, 2 * np.pi, size=(2, 2**q - 1))
        for build in (lambda: sim.layout_unitaries(encoder, angles, q),
                      lambda: sim.apply_noisy_layout(np.eye(4**q)[None], encoder, angles, q,
                                                     NOISE_SETS[1])):
            first = build()
            assert first.dtype == float
            expected = first.copy()
            first[...] = 0.0
            assert np.array_equal(build(), expected)


def _conversions(steps):
    """The steps of a plan that convert between the Pauli basis and vec(ρ):
    T_1 or T_1† on one qubit's (column, row) bit pair."""
    t = sim._pauli_basis(1)
    return sum(fixed is not None and fixed.shape == (1, 4, 4)
               and (np.array_equal(fixed[0], t) or np.array_equal(fixed[0], t.conj().T))
               for _, fixed, *_ in steps)


@pytest.mark.parametrize("q, counts", [
    (3, {"qaoa": 6, "hea": 6, "amplitude": 33}),  # one step per gate: 15 and 9
    (4, {"qaoa": 8, "hea": 8, "amplitude": 96}),  # one step per gate: 20 and 12
])
def test_walk_folds_fixed_gates_into_rotation_steps(q, counts):
    # H folds into its qubit's rotation and CNOT·RZ·CNOT is one step on
    # (c, f): every step is one rotation on at most two qubits, in the
    # Pauli basis
    for kind in ("qaoa", "hea"):
        layout = ansatz.ansatz_layout(kind, q)
        mid = layout + _reversed_layout(layout, 2 * q)
        for name, fragment, expected in (("ansatz", layout, counts[kind]),
                                         ("reversed", _reversed_layout(layout), counts[kind]),
                                         ("mid", mid, 2 * counts[kind])):
            for noise in ((), NOISE_SETS[1]):
                slots, _, steps = sim._layout_plan(fragment, q, noise)
                assert len(steps) == slots.size == expected, (kind, name)
                assert all(d <= 16 for _, _, d, _, _ in steps)
                assert _conversions(steps) == 0, (kind, name)
    # the amplitude encoder's wide MCRY-open gates walk vec(ρ), entered and
    # left through one conversion step on each qubit
    encoder = encoding.encoder_layout("amplitude", q)
    for fragment in (encoder, _reversed_layout(encoder)):
        _, _, steps = sim._layout_plan(fragment, q, NOISE_SETS[1])
        assert len(steps) == counts["amplitude"]
        assert _conversions(steps) == _conversions(steps[:q] + steps[-q:]) == 2 * q


@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_walk_of_a_real_pauli_input_is_real(q):
    # every layout the model walks returns float64 on real Pauli
    # coordinates, forward and adjoint, a wide gate's layout included
    rng = np.random.default_rng(170 + q)
    encoders = [encoding.encoder_layout(kind, q) for kind in ("amplitude", "angle")]
    layouts = encoders + [_reversed_layout(encoders[0])] + [
        ansatz.ansatz_layout(kind, q) for kind in ("hea", "qaoa")] + [(("RY", (q - 1,), 0),)]
    vecs = rng.normal(size=(1, 2, 4**q))
    for noise in NOISE_SETS[1:3]:
        for layout in layouts:
            angles = rng.uniform(0, 2 * np.pi, size=(2, 1 + max(
                slot for *_, slot in layout if slot is not None)))
            for adjoint in (False, True):
                out = sim.apply_noisy_layout(vecs, layout, angles, q, noise, adjoint=adjoint)
                assert out.dtype == np.float64 and out.shape == (2, 2, 4**q), (layout, adjoint)


# bit-flip, amplitude damping, both in one model, and a zero-strength channel
RUN_NOISES = (NOISE_SETS[1], NOISE_SETS[2], NOISE_SETS[3], (NoiseChannel("bit-flip", 0.0),))


@pytest.mark.parametrize("q", (1, 2, 3, 4))
def test_walk_over_runs_equals_one_walk_per_noise_model(q):
    # one walk for R noise models gives each run's own apply_noisy_layout
    # output bit for bit, forward and adjoint, on per-run stacks and on a
    # shared one-row stack, which takes derivative rows where every slot
    # drives one narrow gate
    rng = np.random.default_rng(180 + q)
    encoders = [encoding.encoder_layout(kind, q) for kind in ("amplitude", "angle")]
    ansatzes = [ansatz.ansatz_layout(kind, q) for kind in ("hea", "qaoa")]
    layouts = [(layout, 0) for layout in encoders + [_reversed_layout(encoders[0])]]
    layouts += [(layout, 1) for layout in ansatzes + [(("RY", (q - 1,), 0),)]]
    runs = len(RUN_NOISES)
    for layout, derivative in layouts:
        width = 1 + max(slot for *_, slot in layout if slot is not None)
        angles = rng.uniform(0, 2 * np.pi, size=(runs, 2, width))
        for stack in (rng.normal(size=(runs, 2, 3, 4**q)), rng.normal(size=(1, 1, 3, 4**q))):
            rows = 2 * derivative if len(stack[0]) == 1 else 0
            for adjoint in (False, True):
                got = sim._walk_runs(stack, layout, angles, q, RUN_NOISES, adjoint, rows)
                assert got.shape == (runs, 2 + rows * width, 3, 4**q)
                for r, noise in enumerate(RUN_NOISES):
                    ref = sim.apply_noisy_layout(stack[r % len(stack)], layout, angles[r], q,
                                                 noise, adjoint, rows)
                    assert np.array_equal(got[r], ref), (layout, adjoint, r)
        # angles shared by every run, as an evaluator's encoders take them
        shared = sim._walk_runs(stack, layout, angles[:1], q, RUN_NOISES)
        for r, noise in enumerate(RUN_NOISES):
            assert np.array_equal(shared[r], sim.apply_noisy_layout(stack[0], layout, angles[0],
                                                                    q, noise)), (layout, r)


def test_walk_over_runs_refuses_plans_with_other_steps():
    # at q >= 3 only a noisy plan follows a wide gate with per-qubit noise
    # steps, so a noise-free run cannot walk beside a noisy one; at q <= 2
    # every plan takes one step per rotation, and the walks agree
    encoder = encoding.encoder_layout("amplitude", 3)
    angles = np.zeros((2, 1, 7))
    with pytest.raises(ValueError, match="^lockstep runs need noise models whose walks take "
                                         "the same steps$"):
        sim._walk_runs(np.ones((1, 1, 1, 64)), encoder, angles, 3, ((), NOISE_SETS[1]))
    encoder = encoding.encoder_layout("amplitude", 2)
    vecs = np.random.default_rng(190).normal(size=(1, 1, 2, 16))
    got = sim._walk_runs(vecs, encoder, angles[:, :, :3], 2, ((), NOISE_SETS[1]))
    for r, noise in enumerate(((), NOISE_SETS[1])):
        assert np.array_equal(got[r], sim.apply_noisy_layout(vecs[0], encoder, angles[r, :, :3],
                                                             2, noise))


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
