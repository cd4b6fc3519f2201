"""Feature maps embedding classical vectors into register states.

Two encoders are provided: amplitude encoding, which writes the
normalized (zero-padded) feature vector directly into the state
amplitudes via a recursive multiplexed-RY rotation tree, and angle
encoding, which writes features into n layers of n Pauli rotations with
the axis cycling X, Y, Z by layer index.
"""
from __future__ import annotations

import functools

import numpy as np

from .sim import Circuit

ENCODER_KINDS = ("amplitude", "angle")


def _feature_rows(features, capacity: int, what: str) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("feature vector is empty")
    if not np.isfinite(x).all():
        raise ValueError("feature vector has non-finite entries")
    if x.shape[1] > capacity:
        raise ValueError(f"{x.shape[1]} features exceed {what}")
    padded = np.zeros((x.shape[0], capacity))
    padded[:, : x.shape[1]] = x
    return padded


def _normalized_rows(features, n: int) -> np.ndarray:
    x = _feature_rows(features, 2**n, f"2^{n} amplitude slots")
    norm = np.sqrt((x * x).sum(axis=1, keepdims=True))
    if not norm.all():
        raise ValueError("cannot amplitude-encode the zero vector")
    return x / norm


def normalized_amplitudes(values, n: int) -> np.ndarray:
    """Zero-padded, unit-norm amplitude vector of length 2^n."""
    return _normalized_rows(np.asarray(values, dtype=float).reshape(1, -1), n)[0]


def _tree_angles(amps: np.ndarray, n: int) -> list[np.ndarray]:
    """RY angles per level, leaves (target qubit 0) first, one row per
    sample.

    At the leaf level the signed pair (even, odd) fixes the angle via
    atan2, which carries the amplitude signs; upper levels rotate between
    nonnegative subtree norms.
    """
    levels = []
    cur = amps
    for _ in range(n):
        even, odd = cur[:, 0::2], cur[:, 1::2]
        levels.append(2.0 * np.arctan2(odd, even))
        cur = np.hypot(even, odd)
    return levels


def _amplitude_layout(n: int) -> tuple:
    # top of the tree targets qubit n-1; deeper levels add one control
    # each, one multiplexed branch per control pattern
    layout = []
    slot = 0
    for target in range(n - 1, -1, -1):
        controls = tuple(range(target + 1, n))
        for pattern in range(2 ** len(controls)):
            flips = [("X", (c,), None) for k, c in enumerate(controls) if (pattern >> k) & 1]
            branch = ("MCRY-open", controls + (target,), slot) if controls else ("RY", (target,), slot)
            layout += flips + [branch] + flips
            slot += 1
    return tuple(layout)


_AXES = ("RX", "RY", "RZ")


def _angle_layout(n: int) -> tuple:
    # layer c rotates qubit d by feature d + c·n, the axis cycling X, Y, Z
    return tuple((_AXES[layer % 3], (d,), d + layer * n) for layer in range(n) for d in range(n))


@functools.cache
def encoder_layout(kind: str, n: int) -> tuple:
    """Gate structure of an encoder; it does not depend on the features."""
    if kind == "amplitude":
        return _amplitude_layout(n)
    if kind == "angle":
        return _angle_layout(n)
    raise ValueError(f"unknown encoder kind {kind!r}")


def encoder_angles(kind: str, features, n: int) -> np.ndarray:
    """Angle rows (samples, slots) filling ``encoder_layout(kind, n)``.

    Amplitude encoding rejects the zero vector; angle encoding pads with
    zeros (identity rotations) and rejects vectors longer than n².
    """
    if kind == "amplitude":
        levels = _tree_angles(_normalized_rows(features, n), n)
        return np.concatenate(levels[::-1], axis=1)
    if kind == "angle":
        return _feature_rows(features, n * n, f"the n²={n * n} angle slots")
    raise ValueError(f"unknown encoder kind {kind!r}")


def encode(kind: str, values, n: int) -> Circuit:
    """Circuit fragment preparing the encoded feature vector from |0...0⟩."""
    layout = encoder_layout(kind, n)
    rows = np.asarray(values, dtype=float).reshape(1, -1)
    return Circuit.from_layout(n, layout, encoder_angles(kind, rows, n)[0])


def amplitude_encode(values, n: int) -> Circuit:
    """Prepares the normalized feature vector via a recursive
    multiplexed-RY rotation tree."""
    return encode("amplitude", values, n)


def angle_encode(values, n: int) -> Circuit:
    """n layers of n rotations; layer c rotates qubit d by feature d + c·n."""
    return encode("angle", values, n)


def feature_capacity(kind: str, n: int) -> int:
    if kind == "amplitude":
        return 2**n
    if kind == "angle":
        return n * n
    raise ValueError(f"unknown encoder kind {kind!r}")
