import numpy as np
import pytest

from qkattn.encoding import encode, feature_capacity, normalized_amplitudes
from qkattn.sim import Circuit, run_circuit


def prepared_state(circ):
    return run_circuit(circ, "pure").state.amps


def test_normalized_amplitudes_pads_and_normalizes():
    v = normalized_amplitudes([3.0, 4.0], 2)
    assert np.allclose(v, [0.6, 0.8, 0.0, 0.0])
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_normalized_amplitudes_errors():
    with pytest.raises(ValueError):
        normalized_amplitudes([], 1)
    with pytest.raises(ValueError):
        normalized_amplitudes([0.0, 0.0], 1)
    with pytest.raises(ValueError):
        normalized_amplitudes([1, 2, 3, 4, 5], 2)
    with pytest.raises(ValueError):
        normalized_amplitudes([np.nan, 1.0], 1)


def test_amplitude_encode_exact_preparation():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 2**n + 1))
        v = rng.normal(size=size)
        if np.linalg.norm(v) < 1e-9:
            continue
        target = normalized_amplitudes(v, n)
        amps = prepared_state(encode("amplitude", v, n))
        worst = max(worst, np.max(np.abs(amps - target)))
    assert worst < 1e-12


def test_amplitude_encode_handles_signs():
    v = [0.5, -0.5, -0.5, 0.5]
    amps = prepared_state(encode("amplitude", v, 2))
    assert np.allclose(amps, v, atol=1e-12)


def test_amplitude_encode_basis_states():
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        amps = prepared_state(encode("amplitude", v, 2))
        assert np.allclose(amps, v, atol=1e-12)


def test_angle_encode_layer_axes():
    # one feature per (layer, qubit) slot; layer axis cycles X, Y, Z
    circ = encode("angle", np.arange(1, 10, dtype=float), 3)
    kinds = [op.kind for op in circ.ops]
    assert kinds == ["RX"] * 3 + ["RY"] * 3 + ["RZ"] * 3
    angles = [op.angle for op in circ.ops]
    assert angles == list(range(1, 10))


def test_angle_encode_zero_padding():
    circ = encode("angle", [0.7], 2)
    assert len(circ.ops) == 4
    assert circ.ops[0].angle == 0.7
    assert all(op.angle == 0.0 for op in circ.ops[1:])


def test_angle_encode_overflow_rejected():
    with pytest.raises(ValueError):
        encode("angle", np.ones(5), 2)


def test_single_feature_angle_state():
    # RX(t) on |0> leaves qubit 1 untouched
    amps = prepared_state(encode("angle", [np.pi], 2))
    assert np.isclose(abs(amps[1]), 1.0, atol=1e-12)


def test_encode_dispatch_and_capacity():
    assert feature_capacity("amplitude", 3) == 8
    assert feature_capacity("angle", 3) == 9
    with pytest.raises(ValueError):
        encode("fourier", [1.0], 2)
    with pytest.raises(ValueError):
        feature_capacity("fourier", 2)


def test_encoder_adjoint_inverts():
    rng = np.random.default_rng(8)
    for kind in ("amplitude", "angle"):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            v = rng.normal(size=feature_capacity(kind, n))
            circ = encode(kind, v, n)
            both = Circuit(n)
            both.extend(circ)
            both.extend(circ.adjoint())
            amps = prepared_state(both)
            assert np.isclose(abs(amps[0]), 1.0, atol=1e-12)
