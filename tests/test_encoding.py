import numpy as np
import pytest

from qkattn.encoding import encoder_angles, encoder_layout, feature_capacity
from qkattn.sim import Circuit, run_circuit


def encoder_circuit(kind, values, n):
    """The encoder fragment for one feature vector, as ``build_full_circuit``
    lays it out: ``encoder_layout`` filled with ``encoder_angles``."""
    rows = np.asarray(values, dtype=float).reshape(1, -1)
    return Circuit(n).add_layout(encoder_layout(kind, n), encoder_angles(kind, rows, n)[0])


def prepared_state(circ):
    return run_circuit(circ, "pure").state.amps


def normalized(values, n):
    """``values`` zero-padded to 2^n entries and scaled to unit norm."""
    v = np.zeros(2**n)
    v[: len(values)] = values
    return v / np.linalg.norm(v)


def test_normalized_amplitudes_pads_and_normalizes():
    amps = prepared_state(encoder_circuit("amplitude", [3.0, 4.0], 2))
    assert np.allclose(amps, [0.6, 0.8, 0.0, 0.0], atol=1e-12)
    assert np.isclose(np.linalg.norm(amps), 1.0)


def test_normalized_amplitudes_errors():
    for values, n, message in (
            ([[]], 1, "feature vector is empty"),
            ([3.0, 4.0], 1, r"^expected feature rows of shape \(samples, features\), "
                            r"got shape \(2,\)$"),
            ([[0.0, 0.0]], 1, "cannot amplitude-encode the zero vector"),
            ([[1, 2, 3, 4, 5]], 2, r"5 features exceed 2\^2 amplitude slots"),
            ([[np.nan, 1.0]], 1, "feature vector has non-finite entries")):
        with pytest.raises(ValueError, match=message):
            encoder_angles("amplitude", values, n)


def test_amplitude_encode_exact_preparation():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        size = int(rng.integers(1, 2**n + 1))
        v = rng.normal(size=size)
        if np.linalg.norm(v) < 1e-9:
            continue
        target = normalized(v, n)
        amps = prepared_state(encoder_circuit("amplitude", v, n))
        worst = max(worst, np.max(np.abs(amps - target)))
    assert worst < 1e-12


def test_amplitude_encode_handles_signs():
    v = [0.5, -0.5, -0.5, 0.5]
    amps = prepared_state(encoder_circuit("amplitude", v, 2))
    assert np.allclose(amps, v, atol=1e-12)


def test_amplitude_encode_basis_states():
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        amps = prepared_state(encoder_circuit("amplitude", v, 2))
        assert np.allclose(amps, v, atol=1e-12)


def test_angle_encode_layer_axes():
    # one feature per (layer, qubit) slot; layer axis cycles X, Y, Z
    circ = encoder_circuit("angle", np.arange(1, 10, dtype=float), 3)
    kinds = [op.kind for op in circ.ops]
    assert kinds == ["RX"] * 3 + ["RY"] * 3 + ["RZ"] * 3
    angles = [op.angle for op in circ.ops]
    assert angles == list(range(1, 10))


def test_angle_encode_zero_padding():
    circ = encoder_circuit("angle", [0.7], 2)
    assert len(circ.ops) == 4
    assert circ.ops[0].angle == 0.7
    assert all(op.angle == 0.0 for op in circ.ops[1:])


def test_angle_encode_overflow_rejected():
    with pytest.raises(ValueError, match="5 features exceed the n²=4 angle slots"):
        encoder_angles("angle", np.ones((1, 5)), 2)


def test_single_feature_angle_state():
    # RX(t) on |0> leaves qubit 1 untouched
    amps = prepared_state(encoder_circuit("angle", [np.pi], 2))
    assert np.isclose(abs(amps[1]), 1.0, atol=1e-12)


def test_encode_dispatch_and_capacity():
    assert feature_capacity("amplitude", 3) == 8
    assert feature_capacity("angle", 3) == 9
    for refuse in (encoder_layout, feature_capacity):
        with pytest.raises(ValueError, match="unknown encoder kind 'fourier'"):
            refuse("fourier", 2)
    with pytest.raises(ValueError, match="unknown encoder kind 'fourier'"):
        encoder_angles("fourier", [[1.0]], 2)


def test_encoder_adjoint_inverts():
    # the adjoint that build_full_circuit appends for U_φ†(w_j)
    rng = np.random.default_rng(8)
    for kind in ("amplitude", "angle"):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            v = rng.normal(size=(1, feature_capacity(kind, n)))
            layout, angles = encoder_layout(kind, n), encoder_angles(kind, v, n)[0]
            both = Circuit(n).add_layout(layout, angles).add_layout(layout, angles, adjoint=True)
            amps = prepared_state(both)
            assert np.isclose(abs(amps[0]), 1.0, atol=1e-12)
