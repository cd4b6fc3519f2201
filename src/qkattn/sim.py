"""Exact simulation of few-qubit circuits.

Two exact engines: pure statevector evolution of measurement-free
circuits, and density-matrix evolution with Kraus noise channels,
resolved over every classical branch of mid-circuit measurements and
classically conditioned gates.  Outcome distributions and Z
expectations are read from either state.

``run_circuit`` is the gate-by-gate oracle.  Its density mode keeps each
classical branch's ρ as a product of factors, one per group of qubits
that no gate has coupled yet (groups start as single qubits and merge,
in every branch, when an op spans several), and applies every operator
on its group's own axes.  A gate on at most ``_FOLDED_ARITY`` (two)
qubits is one superoperator N^{⊗m}·(U ⊗ U*) built from ``gate_matrix``
and the noise channels, composed from ``NoiseChannel.kraus`` into one
4 × 4 superoperator N per qubit; a wider gate applies U on its row axes,
U* on its column axes, then N on each of its qubits, so no 4^m × 4^m
operator is formed for it.  N, its folds N^{⊗m} and the superoperators
of the unparameterized gates are built once per noise model, in
read-only caches of the oracle's own.  Only one label operator per
measurement is lifted, to the measured group's space (``expand_matrix``).
The batched layout builders (``layout_unitaries``, ``apply_noisy_layout``)
are the fast paths checked against it; the oracle uses none of their
compiled factors or caches.  At q ≥ 3 the noisy builder walks a per-gate plan
compiled once per layout, register size and noise (``_layout_plan``),
which places noise by the same rule.  Both builders also give exact
derivatives in the angles (``_coefficients``).

Basis ordering is little-endian throughout: qubit 0 is the least
significant bit of a basis index.  For two-qubit gates the first
coordinate is the control and maps to the low bit of the local 2-qubit
index, so CRY mixes local basis indices 1 and 3.

Global phase is never normalized away; every observable quantity exposed
here is phase-insensitive.
"""
from __future__ import annotations

import dataclasses
import functools
from math import cos, sin, sqrt
from typing import Sequence, Union

import numpy as np

SINGLE_QUBIT_KINDS = frozenset({"H", "X", "RX", "RY", "RZ"})
TWO_QUBIT_KINDS = frozenset({"CNOT", "CRY"})
PARAMETERIZED_KINDS = frozenset({"RX", "RY", "RZ", "CRY", "MCRY-open"})
GATE_KINDS = SINGLE_QUBIT_KINDS | TWO_QUBIT_KINDS | {"MCRY-open"}

_SQRT2_INV = 1.0 / sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def gate_matrix(kind: str, angle: float | None = None, qubits: int | None = None) -> np.ndarray:
    """Unitary matrix of a gate, in the little-endian local basis.

    ``qubits`` is only consulted for MCRY-open and gives the total arity
    (controls plus target); the target is the last coordinate and hence
    the high bit of the local index.
    """
    if kind in PARAMETERIZED_KINDS:
        if angle is None:
            raise ValueError(f"{kind} requires an angle")
    elif angle is not None:
        raise ValueError(f"{kind} takes no angle")

    if kind == "H":
        return _H.copy()
    if kind == "X":
        return _X.copy()
    if kind == "RX":
        c, s = cos(angle / 2), sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        c, s = cos(angle / 2), sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex)
    if kind == "CNOT":
        # control = low bit: swaps local indices 1 and 3
        m = np.eye(4, dtype=complex)
        m[[1, 3]] = m[[3, 1]]
        return m
    if kind == "CRY":
        c, s = cos(angle / 2), sin(angle / 2)
        m = np.eye(4, dtype=complex)
        m[1, 1] = c
        m[1, 3] = -s
        m[3, 1] = s
        m[3, 3] = c
        return m
    if kind == "MCRY-open":
        if qubits is None or qubits < 1:
            raise ValueError("MCRY-open requires its arity via qubits=")
        dim = 2**qubits
        hi = dim // 2  # target bit set, all (open) controls clear
        c, s = cos(angle / 2), sin(angle / 2)
        m = np.eye(dim, dtype=complex)
        m[0, 0] = c
        m[0, hi] = -s
        m[hi, 0] = s
        m[hi, hi] = c
        return m
    raise ValueError(f"unknown gate kind {kind!r}")


def _rotation_stack(kind: str, c: np.ndarray, s: np.ndarray, qubits: int) -> np.ndarray:
    """gate_matrix of a parameterized kind at K angles θ, given as
    c = cos(θ/2) and s = sin(θ/2) (K each): (K, D, D).

    Every entry is affine in (c, s), so the rows at (c, s) = (0, 0),
    (1, 0) and (0, 1) give the factors of R(θ) = M0 + c·M1 + s·M2 that
    ``_gate_factors`` caches.  Kept apart from gate_matrix, which the
    circuit oracle uses one gate at a time: the oracle tests then check
    these matrices against it.  RY, CRY and MCRY-open rotate between two
    local basis indices (lo, hi) and act as the identity elsewhere.
    """
    if kind == "RZ":
        m = np.zeros((c.size, 2, 2), dtype=complex)
        m[:, 0, 0] = c - 1j * s
        m[:, 1, 1] = c + 1j * s
        return m
    if kind == "RX":
        m = np.empty((c.size, 2, 2), dtype=complex)
        m[:, 0, 0] = m[:, 1, 1] = c
        m[:, 0, 1] = m[:, 1, 0] = -1j * s
        return m
    if kind == "RY":
        dim, lo, hi = 2, 0, 1
    elif kind == "CRY":
        dim, lo, hi = 4, 1, 3
    else:
        dim = 2**qubits
        lo, hi = 0, dim // 2
    m = np.zeros((c.size, dim, dim), dtype=complex)
    m[:, np.arange(dim), np.arange(dim)] = 1.0
    m[:, lo, lo] = m[:, hi, hi] = c
    m[:, lo, hi] = -s
    m[:, hi, lo] = s
    return m


@dataclasses.dataclass(frozen=True)
class Condition:
    """Classical predicate: the listed bits must all equal the pattern."""

    bits: tuple[int, ...]
    pattern: tuple[int, ...]

    def __post_init__(self):
        if not self.bits:
            raise ValueError("condition needs at least one classical bit")
        if len(self.bits) != len(self.pattern):
            raise ValueError("condition bits and pattern differ in length")
        if len(set(self.bits)) != len(self.bits):
            raise ValueError("condition bits must be distinct")
        if any(p not in (0, 1) for p in self.pattern):
            raise ValueError("condition pattern must be bits")

    @classmethod
    def all_zero(cls, bits: Sequence[int]) -> "Condition":
        bits = tuple(bits)
        return cls(bits, (0,) * len(bits))

    def holds(self, register: Sequence[int]) -> bool:
        return all(register[b] == p for b, p in zip(self.bits, self.pattern))


@dataclasses.dataclass(frozen=True)
class GateOp:
    kind: str
    coords: tuple[int, ...]
    angle: float | None = None
    condition: Condition | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.coords)) != len(self.coords):
            raise ValueError("gate coordinates must be distinct")
        if self.kind in SINGLE_QUBIT_KINDS and len(self.coords) != 1:
            raise ValueError(f"{self.kind} acts on exactly one qubit")
        if self.kind in TWO_QUBIT_KINDS and len(self.coords) != 2:
            raise ValueError(f"{self.kind} acts on exactly two qubits")
        if self.kind == "MCRY-open" and len(self.coords) < 2:
            raise ValueError("MCRY-open needs at least one control")
        if (self.angle is not None) != (self.kind in PARAMETERIZED_KINDS):
            raise ValueError(f"angle present iff {self.kind} is parameterized")

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.kind, self.angle, qubits=len(self.coords))

    def adjoint(self) -> "GateOp":
        if self.condition is not None:
            raise ValueError("cannot take the adjoint of a conditioned gate")
        angle = -self.angle if self.angle is not None else None
        return GateOp(self.kind, self.coords, angle)


@dataclasses.dataclass(frozen=True)
class Measure:
    """Projective measurement of a qubit subset into classical bits."""

    qubits: tuple[int, ...]
    clbits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "clbits", tuple(self.clbits))
        if not self.qubits:
            raise ValueError("measurement of an empty qubit subset")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("measured qubits must be distinct")
        if len(self.qubits) != len(self.clbits):
            raise ValueError("one classical bit per measured qubit")


CircuitOp = Union[GateOp, Measure]

# A fragment whose gate structure is fixed and whose angles vary: one
# (kind, coords, angle slot) per gate, slot None for unparameterized
# gates.  A row of angles fills the slots of one instance.  Layouts are
# hashable tuples (of tuples), so compiled forms can be cached per layout.
Layout = Sequence[tuple[str, tuple[int, ...], Union[int, None]]]


def _check_range(what: str, values: tuple[int, ...], size: int) -> None:
    """Refuse indices outside 0..size − 1, naming that range."""
    if min(values) < 0 or max(values) >= size:
        valid = f"0..{size - 1}" if size else "none"
        raise ValueError(f"{what} {values} out of range (valid: {valid})")


class Circuit:
    """Ordered gate/measurement sequence on ``qubits`` qubits."""

    def __init__(self, qubits: int, clbits: int = 0):
        if qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.qubits = qubits
        self.clbits = clbits
        self.ops: list[CircuitOp] = []

    @classmethod
    def from_layout(cls, qubits: int, layout: Layout, angles) -> "Circuit":
        """One instance of a fixed-structure fragment."""
        return cls(qubits).add_layout(layout, angles)

    def add_layout(self, layout: Layout, angles, offset: int = 0,
                   adjoint: bool = False) -> "Circuit":
        """Append one instance of a fixed-structure fragment, the gate of
        slot s at angle ``angles[s]`` and every coordinate moved up by
        ``offset``.  ``adjoint`` appends the fragment's adjoint instead:
        the gates in reverse order on negated angles, as
        ``Circuit.adjoint`` makes them (every unparameterized gate kind is
        self-inverse)."""
        for kind, coords, slot in (reversed(layout) if adjoint else layout):
            if offset:
                coords = tuple(c + offset for c in coords)
            angle = None if slot is None else float(angles[slot])
            if adjoint and angle is not None:
                angle = -angle
            self.add(GateOp(kind, coords, angle))
        return self

    def add(self, op: CircuitOp) -> "Circuit":
        if isinstance(op, Measure):
            _check_range("measurement qubits", op.qubits, self.qubits)
            _check_range("measurement classical bits", op.clbits, self.clbits)
        else:
            _check_range("gate coordinates", op.coords, self.qubits)
            if op.condition is not None:
                _check_range("condition classical bits", op.condition.bits, self.clbits)
        self.ops.append(op)
        return self

    def gate(self, kind: str, coords: Sequence[int], angle: float | None = None,
             condition: Condition | None = None) -> "Circuit":
        return self.add(GateOp(kind, tuple(coords), angle, condition))

    def measure(self, qubits: Sequence[int], clbits: Sequence[int]) -> "Circuit":
        return self.add(Measure(tuple(qubits), tuple(clbits)))

    def extend(self, other: "Circuit") -> "Circuit":
        """Append ``other``'s ops; ``add`` checked them against a circuit
        no wider than this one, so they are not checked again."""
        if other.qubits > self.qubits or other.clbits > self.clbits:
            raise ValueError("fragment does not fit this circuit")
        self.ops.extend(other.ops)
        return self

    def adjoint(self) -> "Circuit":
        """Reverse gate order and negate rotation angles.

        Only defined for purely unitary fragments.
        """
        if any(isinstance(op, Measure) for op in self.ops):
            raise ValueError("cannot take the adjoint of a circuit with measurements")
        out = Circuit(self.qubits, self.clbits)
        for op in reversed(self.ops):
            out.add(op.adjoint())
        return out

    def shifted(self, offset: int, qubits: int, clbits: int | None = None) -> "Circuit":
        """The same fragment with every qubit coordinate moved up by ``offset``."""
        out = Circuit(qubits, self.clbits if clbits is None else clbits)
        for op in self.ops:
            if isinstance(op, Measure):
                out.measure(tuple(c + offset for c in op.qubits), op.clbits)
            else:
                out.gate(op.kind, tuple(c + offset for c in op.coords), op.angle, op.condition)
        return out

    def validate(self) -> None:
        """Check that every condition reads classical bits written by an
        earlier measurement."""
        written: set[int] = set()
        for op in self.ops:
            if isinstance(op, Measure):
                written.update(op.clbits)
            elif op.condition is not None:
                missing = [b for b in op.condition.bits if b not in written]
                if missing:
                    raise ValueError(f"condition reads classical bits {missing} before any write")


@dataclasses.dataclass
class StateVector:
    qubits: int
    amps: np.ndarray

    @classmethod
    def zero(cls, qubits: int) -> "StateVector":
        amps = np.zeros(2**qubits, dtype=complex)
        amps[0] = 1.0
        return cls(qubits, amps)


@dataclasses.dataclass
class DensityMatrix:
    qubits: int
    mat: np.ndarray

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclasses.dataclass(frozen=True)
class NoiseChannel:
    """Single-qubit Kraus channel: bit-flip or amplitude-damping."""

    kind: str
    strength: float

    def __post_init__(self):
        if self.kind not in ("bit-flip", "amplitude-damping"):
            raise ValueError(f"unknown noise channel {self.kind!r}")
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError("channel strength must be a probability")

    def kraus(self) -> list[np.ndarray]:
        p = self.strength
        if self.kind == "bit-flip":
            return [sqrt(1 - p) * np.eye(2, dtype=complex), sqrt(p) * _X]
        return [
            np.array([[1, 0], [0, sqrt(1 - p)]], dtype=complex),
            np.array([[0, sqrt(p)], [0, 0]], dtype=complex),
        ]


def _coord_axes(coords: Sequence[int], q: int) -> list[int]:
    # axis of qubit k in the [2]*q reshape is q-1-k; order: high local bit first
    return [q - 1 - c for c in reversed(coords)]


def _apply_stack(states: np.ndarray, mats: np.ndarray, coords: Sequence[int], q: int) -> np.ndarray:
    """Apply a local unitary to the listed qubits of a (K, B, 2^q) stack of
    states; ``mats`` is (K, 2^m, 2^m), the gate for row k, or (1, 2^m, 2^m),
    shared."""
    lead = states.shape[:2]
    axes = [2 + a for a in _coord_axes(coords, q)]
    # gate axes right after the row axis: one matrix product per row
    perm = [0, *axes] + [a for a in range(1, 2 + q) if a not in axes]
    t = states.reshape(lead + (2,) * q).transpose(perm)
    moved = t.shape
    t = mats @ t.reshape(lead[0], 2 ** len(coords), -1)
    return t.reshape(moved).transpose(np.argsort(perm)).reshape(lead + (2**q,))


# b_i·b_j for b = [1, c, s] (column 3i + j) in the basis [1, c, s, cs, s²]
# of a rotation's superoperator coefficients, using c² = 1 − s²
_PAIR_BASIS = np.array([[1, 0, 0, 0, 1, 0, 0, 0, 0],
                        [0, 1, 0, 1, 0, 0, 0, 0, 0],
                        [0, 0, 1, 0, 0, 0, 1, 0, 0],
                        [0, 0, 0, 0, 0, 1, 0, 1, 0],
                        [0, 0, 0, 0, -1, 0, 0, 0, 1]], dtype=float)

# d/dθ of the basis [1, c, s, cs, s²], [0, −s/2, c/2, ½ − s², c·s], as a
# map on it (column j gives term j); the top left block is [1, c, s]'s
_BASIS_DERIVATIVE = np.array([[0, 0, 0, 0.5, 0], [0, 0, 0.5, 0, 0], [0, -0.5, 0, 0, 0],
                              [0, 0, 0, 0, 1], [0, 0, 0, -1, 0]])


def _coefficients(angles: np.ndarray, slots: np.ndarray, channel: bool,
                  derivatives: bool = False) -> np.ndarray:
    """The coefficient basis of R rotations, rotation r driven by column
    slots[r] of ``angles`` (K, P), as (R, K, terms): [1, c, s] for a
    unitary, [1, c, s, cs, s²] for a superoperator, c, s = cos, sin(θ/2).

    ``derivatives`` follows each row with one row per column j, in which
    the rotation that j drives has its basis' θ-derivative
    (``_BASIS_DERIVATIVE``): every factor is affine in the basis, so that
    row's product is the fragment's derivative in θ_j, as long as no
    column drives two rotations.  A column that drives none zeroes its
    row's first rotation, so its derivative is 0.
    """
    half = angles[:, slots].T / 2
    c, s = np.cos(half), np.sin(half)
    coef = np.stack([np.ones_like(c), c, s] + ([c * s, s * s] if channel else []), axis=-1)
    if not derivatives:
        return coef
    driven = set(slots.tolist())
    if not driven or len(driven) < slots.size:
        raise ValueError("derivative rows need rotations, each slot driving at most one")
    width = angles.shape[1]
    terms = coef.shape[-1]
    out = np.repeat(coef[:, :, None], 1 + width, axis=2)
    out[np.arange(slots.size), :, 1 + slots] = coef @ _BASIS_DERIVATIVE[:terms, :terms]
    undriven = [1 + j for j in range(width) if j not in driven]
    if undriven:
        out[0, :, undriven] = 0.0
    return out.reshape(slots.size, -1, terms)


@functools.lru_cache(maxsize=256)
def _gate_factors(kind: str, arity: int, rotation: bool,
                  noise: tuple[NoiseChannel, ...] | None) -> np.ndarray:
    """One gate in its local space as factors over ``_coefficients``:
    a rotation's value at θ is coefficients(θ/2) @ factors, a fixed
    gate's is its one factor (1, d, d).

    ``noise`` None gives the unitary (d = 2^m) with R(θ) = M0 + c·M1 +
    s·M2.  Otherwise the gate is fused with each channel of ``noise`` on
    each of its qubits into one superoperator N·(R ⊗ R*) (d = 4^m), on
    the gate's local vec space as in ``apply_noisy_layout``.
    """
    if rotation:
        m = _rotation_stack(kind, np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), arity)
        m[1:] -= m[0]
    else:
        m = gate_matrix(kind, qubits=arity)[None]
    if noise is not None:
        b, d = m.shape[:2]
        # Mi ⊗ Mj*, with vec(ρ)'s row bits high
        m = (m[:, None, :, None, :, None] * m.conj()[None, :, None, :, None, :]).reshape(
            b * b, d * d, d * d)
        if rotation:
            m = np.tensordot(_PAIR_BASIS, m, axes=1)
        if noise:
            m = _noise_superop(noise, arity) @ m
    m.flags.writeable = False
    return m


@functools.lru_cache(maxsize=64)
def _layout_factors(layout: tuple, q: int, noise: tuple[NoiseChannel, ...] | None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layout compiled into full-space factors, for ``_layout_product``.

    ``noise`` None compiles unitaries on 2^q amplitudes; otherwise noisy
    superoperators on 4^q vec entries, every gate fused with its noise
    (``_gate_factors``).  Returns (slots, factors, tail): the angle slot
    of each of the R rotations (R,), the full-space factors of each
    rotation over ``_coefficients`` as (R, 3 or 5, D²), and the fixed
    tail.  The unparameterized gates before a rotation are folded into
    its factors (on the right); the tail, those after the last rotation,
    into the last rotation's (on the left).  With no rotation, tail is
    the whole fragment.
    """
    qubits = q if noise is None else 2 * q
    dim = 2**qubits
    eye = np.eye(dim, dtype=complex)[None]
    slots, factors = [], []
    # row b: column b of the unparameterized gates since the last rotation
    cols = eye
    for kind, coords, slot in layout:
        mats = _gate_factors(kind, len(coords), slot is not None, noise)
        if noise is not None:
            # the gate's column bits, then its row bits
            coords = tuple(coords) + tuple(c + q for c in coords)
        if slot is None:
            cols = _apply_stack(cols, mats, coords, qubits)
            continue
        lifted = _apply_stack(np.broadcast_to(cols, (len(mats), dim, dim)), mats, coords, qubits)
        factors.append(lifted.transpose(0, 2, 1))
        slots.append(slot)
        cols = eye
    tail = cols[0].T.copy()
    if factors:
        factors[-1] = tail @ factors[-1]
    terms = 3 if noise is None else len(_PAIR_BASIS)
    factors = np.array(factors, dtype=complex).reshape(len(slots), terms, dim * dim)
    out = (np.array(slots, dtype=np.intp), factors, tail)
    for arr in out:
        arr.flags.writeable = False
    return out


def _layout_product(layout: Layout, angles: np.ndarray, q: int,
                    noise: tuple[NoiseChannel, ...] | None,
                    derivatives: bool = False) -> np.ndarray:
    """The fragment (unitary or, with ``noise`` not None, superoperator)
    for each row of ``angles``, and with ``derivatives`` its derivative
    rows (``_coefficients``): every rotation of every row from one
    batched product of coefficients and cached factors, then R − 1
    batched matmuls."""
    slots, factors, tail = _layout_factors(tuple(layout), q, noise)
    dim = len(tail)
    coef = _coefficients(angles, slots, noise is not None, derivatives)
    if not slots.size:
        return np.broadcast_to(tail, (len(angles), dim, dim)).copy()
    gates = (coef @ factors).reshape(slots.size, coef.shape[1], dim, dim)
    u = gates[0]
    for gate in gates[1:]:
        u = gate @ u
    return u


def layout_unitaries(layout: Layout, angles: np.ndarray, q: int,
                     derivatives: bool = False) -> np.ndarray:
    """Unitaries (K, 2^q, 2^q) of a fixed-structure fragment, one per
    row of ``angles``.

    The layout is compiled once into cached full-space factors, R(θ) =
    M0 + c·M1 + s·M2 per rotation with c, s = cos(θ/2), sin(θ/2); a call
    evaluates every rotation of every row in one batched product and
    multiplies the R gates together, R − 1 batched matmuls in all.
    ``derivatives`` follows each unitary with its derivative in each
    column of ``angles`` (``_coefficients``).
    """
    return _layout_product(layout, angles, q, None, derivatives)


@functools.lru_cache(maxsize=256)
def _noise_superop(noise: tuple[NoiseChannel, ...], arity: int) -> np.ndarray:
    """The channels of ``noise``, composed in order, on each of ``arity``
    qubits: a superoperator on the local vec space of a gate (column bits
    low, row bits high)."""
    one = np.eye(4, dtype=complex)
    for ch in noise:
        one = sum(np.kron(k, k.conj()) for k in ch.kraus()) @ one
    dim = 4**arity
    rows = np.eye(dim, dtype=complex)[None]
    for i in range(arity):
        rows = _apply_stack(rows, one[None], (i, arity + i), 2 * arity)
    # row b of the evolved basis is N e_b
    out = rows[0].T.copy()
    out.flags.writeable = False
    return out


# Gates on at most this many qubits carry the noise folded into their
# superoperator, N^{⊗m}·(U ⊗ U*), at most 16 × 16.  Wider gates (the
# MCRY-open gates) apply U on their row axes, U* on their column axes,
# then the 4 × 4 channel on each of their qubits: folding would cost a
# 4^m × 4^m superoperator per gate, 256 × 256 at arity 4 and 4096 × 4096
# at arity 6.  Both engines follow this rule: the oracle
# (``_run_density``) and ``apply_noisy_layout``'s per-gate plans.
_FOLDED_ARITY = 2

# Registers with at most this many vec(ρ) entries (q ≤ 2) build a noisy
# fragment as one product of cached full-space factors, like
# layout_unitaries.  At q = 3 the 64 × 64 products ran 2.4–5.3× slower than
# the per-gate plan in a one-pair forward and 1.7–4× slower in a 30-sample
# gradient, and at q = 4 one rotation's factors would take 5 MB.
_FACTORED_VEC_DIM = 16


@functools.lru_cache(maxsize=1024)
def _density_axes(coords: tuple[int, ...], q: int, sides: tuple[int, ...] = (0, 1)
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation that brings the row axes of ``coords`` (side 0),
    then their column axes (side 1), to the front of a (2,)·2q density
    tensor, and its inverse."""
    rows = _coord_axes(coords, q)
    front = [side * q + a for side in sides for a in rows]
    perm = front + [a for a in range(2 * q) if a not in front]
    return tuple(perm), tuple(np.argsort(perm))


@functools.lru_cache(maxsize=64)
def _layout_plan(layout: tuple, q: int, noise: tuple[NoiseChannel, ...]) -> tuple:
    """A noisy layout compiled into per-gate steps for ``apply_noisy_layout``
    at q > 2, under the ``_FOLDED_ARITY`` rule.

    Returns (slots, steps): the angle slot of each rotation step, and per
    step (rotation index or None, factors, d, perm, inverse) for an
    operator on d local entries.  A rotation's factors are (3 or 5, d²),
    its matrix at θ being coefficients(θ/2) @ factors; a fixed operator's
    are its matrix (1, d, d).  ``perm`` brings the stack's row axis, then
    the operator's axes, to the front of a (K, B) + (2,)·2q stack.  A gate
    on at most two qubits is one step, N^{⊗m}·(U ⊗ U*) on its row and
    column axes; a wider one is U on its row axes, U* on its column axes,
    then the 4 × 4 channel on each of its qubits.
    """
    slots, steps = [], []

    def step(slot, factors, coords, sides):
        axes, _ = _density_axes(coords, q, sides)
        k = len(sides) * len(coords)
        # the stack's row axis, the operator's axes, then B and the rest
        perm = (0, *(2 + a for a in axes[:k]), 1, *(2 + a for a in axes[k:]))
        if slot is not None:
            factors = factors.reshape(len(factors), -1)
            slots.append(slot)
        factors.flags.writeable = False
        steps.append((None if slot is None else len(slots) - 1, factors, 2**k, perm,
                      tuple(np.argsort(perm).tolist())))

    for kind, coords, slot in layout:
        rotation = slot is not None
        if len(coords) <= _FOLDED_ARITY:
            step(slot, _gate_factors(kind, len(coords), rotation, noise), coords, (0, 1))
            continue
        u = _gate_factors(kind, len(coords), rotation, None)
        step(slot, u, coords, (0,))
        step(slot, u.conj(), coords, (1,))
        if noise:
            for c in coords:
                step(None, _noise_superop(noise, 1)[None], (c,), (0, 1))
    slots = np.array(slots, dtype=np.intp)
    slots.flags.writeable = False
    return slots, tuple(steps)


def apply_noisy_layout(vecs: np.ndarray, layout: Layout, angles: np.ndarray, q: int,
                       noise: Sequence[NoiseChannel] = (), adjoint: bool = False,
                       derivatives: bool = False) -> np.ndarray:
    """Run a fixed-structure fragment on a (K, B, 4^q) stack of vectorised
    density matrices, vec(ρ)[c + 2^q r] = ρ[r, c].

    Every gate is followed by each channel of ``noise`` on each of its
    qubits.  Row k of ``angles`` drives the gates applied to vecs[k]; a
    one-row stack is shared by every row.  Run on the 4^q basis vectors,
    row k is the fragment's superoperator S transposed.  At q ≤ 2 S is one
    product of cached full-space factors applied as vecs @ Sᵀ.  Larger
    registers walk the layout's cached per-gate plan (``_layout_plan``):
    one small product of coefficients and factors per rotation, then one
    transpose, matmul and inverse transpose of the stack per step.
    ``adjoint`` applies the adjoint map instead (S†, or the steps'
    matrices conjugate-transposed in reverse order), which carries
    vectorised observables backwards: Tr(O·Λ(ρ)) = Tr(Λ†(O)·ρ).
    ``derivatives`` follows each row with the fragment's derivative in
    each column of ``angles`` (``_coefficients``); it needs every slot to
    drive at most one gate on at most ``_FOLDED_ARITY`` qubits.
    """
    noise = tuple(noise)
    if 4**q <= _FACTORED_VEC_DIM:
        s = _layout_product(layout, angles, q, noise, derivatives)
        return vecs @ (s.conj() if adjoint else s.transpose(0, 2, 1))
    slots, steps = _layout_plan(tuple(layout), q, noise)
    coef = _coefficients(angles, slots, True, derivatives)
    size = vecs.shape[1] * 4**q  # entries per row, also of an empty stack
    t = vecs.reshape(vecs.shape[:2] + (2,) * (2 * q))
    for rotation, factors, d, perm, inverse in (reversed(steps) if adjoint else steps):
        if rotation is None:
            mats = factors
        else:
            mats = (coef[rotation, :, : len(factors)] @ factors).reshape(-1, d, d)
        if adjoint:
            mats = mats.conj().transpose(0, 2, 1)
        t = t.transpose(perm)
        moved = t.shape
        t = mats @ t.reshape(moved[0], d, size // d)
        t = t.reshape(t.shape[:1] + moved[1:]).transpose(inverse)
    return t.reshape(t.shape[:1] + vecs.shape[1:])


def expand_matrix(u: np.ndarray, coords: Sequence[int], q: int) -> np.ndarray:
    """Embed a local operator on ``coords`` into the full 2^q space."""
    dim = 2**q
    idx = np.arange(dim)
    sub = np.zeros(dim, dtype=np.intp)
    mask = 0
    for k, c in enumerate(coords):
        sub |= ((idx >> c) & 1) << k
        mask |= 1 << c
    rest = idx & ~mask
    full = u[sub[:, None], sub[None, :]] * (rest[:, None] == rest[None, :])
    return np.ascontiguousarray(full)


def outcome_probabilities(state: StateVector, measured: Sequence[int]) -> np.ndarray:
    """Distribution over the 2^|measured| outcomes of the listed qubits.

    Outcome index k has bit i equal to the value of ``measured[i]``.
    """
    measured = tuple(measured)
    if not measured:
        raise ValueError("empty measurement subset")
    if len(set(measured)) != len(measured):
        raise ValueError("measured qubits must be distinct")
    if max(measured) >= state.qubits:
        raise ValueError("measured qubit out of range")
    q = state.qubits
    t = (np.abs(state.amps) ** 2).reshape((2,) * q)
    front = _coord_axes(measured, q)
    rest = [a for a in range(q) if a not in front]
    p = np.transpose(t, front + rest).reshape(2 ** len(measured), -1).sum(axis=1)
    return p


def expectation_z(state: StateVector | DensityMatrix, qubit: int) -> float:
    """⟨Z⟩ on one qubit: P(qubit=0) − P(qubit=1)."""
    if qubit >= state.qubits:
        raise ValueError("qubit index out of range")
    sign = 1.0 - 2.0 * ((np.arange(2**state.qubits) >> qubit) & 1)
    if isinstance(state, StateVector):
        return float(np.sum((np.abs(state.amps) ** 2) * sign))
    return float(np.sum(np.diagonal(state.mat).real * sign))


# --- circuit execution -------------------------------------------------

@dataclasses.dataclass
class RunResult:
    """Final state plus the classical record of a circuit run.

    ``bits`` is the all-zero register tuple in pure mode, which runs only
    measurement-free circuits, and a {bit-pattern: probability} dict in
    density mode.  ``measurement_probs`` holds the exact pre-measurement
    outcome distribution of each measurement marker, in order; pure mode
    records none.
    """

    state: StateVector | DensityMatrix
    bits: tuple[int, ...] | dict[tuple[int, ...], float]
    measurement_probs: list[np.ndarray]


def _run_pure(circuit: Circuit) -> RunResult:
    amps = StateVector.zero(circuit.qubits).amps.reshape(1, 1, -1)
    for op in circuit.ops:
        amps = _apply_stack(amps, op.matrix()[None], op.coords, circuit.qubits)
    return RunResult(StateVector(circuit.qubits, amps.reshape(-1)), (0,) * circuit.clbits, [])


def _superop(u: np.ndarray) -> np.ndarray:
    """U ⊗ U* on a local vec space with the row bits high:
    vec(U ρ U†)[r·d + c] = Σ (U ⊗ U*)[r·d + c, r'·d + c'] ρ[r', c']."""
    d = len(u)
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


# The density oracle's own caches, built from NoiseChannel.kraus and
# gate_matrix alone, so the checks against it share no fast-path factors.

@functools.lru_cache(maxsize=64)
def _oracle_folds(noise: tuple[NoiseChannel, ...]) -> tuple[np.ndarray, ...]:
    """N^{⊗m} on a gate's local vec space (row bits high) for m = 1 ..
    ``_FOLDED_ARITY``, where N = Σ K ⊗ K* over the Kraus operators of each
    channel of ``noise``, composed in order; () without noise."""
    if not noise:
        return ()
    one = np.eye(4, dtype=complex)
    for ch in noise:
        one = sum(_superop(k) for k in ch.kraus()) @ one
    folds = []
    for m in range(1, _FOLDED_ARITY + 1):
        # the kron of m copies has each qubit's (row, column) bits
        # adjacent; move the row bits high
        pairs = functools.reduce(np.kron, [one] * m)
        perm = [*range(0, 2 * m, 2), *range(1, 2 * m, 2)]
        fold = pairs.reshape((2,) * (4 * m)).transpose(
            perm + [2 * m + a for a in perm]).reshape(4**m, 4**m)
        fold.flags.writeable = False
        folds.append(fold)
    return tuple(folds)


def _folded(u: np.ndarray, folds: tuple[np.ndarray, ...]) -> np.ndarray:
    """N^{⊗m}·(U ⊗ U*) of a gate U on m ≤ ``_FOLDED_ARITY`` qubits, given
    ``_oracle_folds``."""
    sop = _superop(u)
    return folds[len(u).bit_length() - 2] @ sop if folds else sop


@functools.lru_cache(maxsize=64)
def _oracle_fixed(kind: str, arity: int, noise: tuple[NoiseChannel, ...]) -> np.ndarray:
    """``_folded`` of an unparameterized gate, read-only."""
    out = _folded(gate_matrix(kind, qubits=arity), _oracle_folds(noise))
    out.flags.writeable = False
    return out


def _apply_local(rho: np.ndarray, mat: np.ndarray, coords: tuple[int, ...], q: int,
                 sides: tuple[int, ...] = (0, 1)) -> np.ndarray:
    """Apply a local operator to the axes of ``coords`` on the given sides
    (0 rows, 1 columns) of a (2,)·2q density tensor: a superoperator on
    both sides, U on the rows or U* on the columns.  One transpose, one
    matmul, the inverse."""
    perm, inverse = _density_axes(coords, q, sides)
    t = rho.transpose(perm)
    moved = t.shape
    return (mat @ t.reshape(len(mat), -1)).reshape(moved).transpose(inverse)


def _matrix(factor: np.ndarray) -> np.ndarray:
    """A (2,)·2m density tensor as a 2^m × 2^m matrix."""
    d = 2 ** (factor.ndim // 2)
    return factor.reshape(d, d)


def _kron(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """hi ⊗ lo over the last two axes: ``lo``'s index gives the low bits."""
    dh, dl = hi.shape[-1], lo.shape[-1]
    return (hi[..., :, None, :, None] * lo[..., None, :, None, :]).reshape(
        hi.shape[:-2] + (dh * dl, dh * dl))


def _merge(branches: dict, hit: tuple[int, ...]) -> None:
    """Replace the factors ``hit`` of every branch by their product, last,
    with the first one's qubits lowest."""
    shape = (2,) * sum(next(iter(branches.values()))[g].ndim for g in hit)
    for key, factors in branches.items():
        merged = _matrix(factors[hit[0]])
        for g in hit[1:]:
            merged = _kron(_matrix(factors[g]), merged)
        branches[key] = [f for g, f in enumerate(factors) if g not in hit] + [merged.reshape(shape)]


@functools.lru_cache(maxsize=256)
def _group_plan(q: int, sites: tuple) -> tuple[tuple, tuple[int, ...]]:
    """The qubit groups of a density run, from the (qubits, clbits) of
    each op (clbits () for a gate) alone.

    Groups start as one per qubit; an op on qubits of several groups
    merges them first.  A measurement that writes a classical bit an
    earlier one wrote can bring two branches onto one bit pattern, whose
    sum is no product, so it merges every group first.  Returns, per op,
    (groups to merge, the op's group, its local coordinates, the group's
    size), then the permutation that takes the axes of the final density,
    as ``_run_density`` sums it, to qubit order.
    """
    groups = [(k,) for k in range(q)]
    written: set[int] = set()
    steps = []
    for qubits, clbits in sites:
        if written.intersection(clbits):
            hit = list(range(len(groups)))
        else:
            hit = sorted({g for g, group in enumerate(groups) if set(group) & set(qubits)},
                         key=lambda g: min(groups[g]))
        written.update(clbits)
        if len(hit) > 1:
            groups = [group for g, group in enumerate(groups) if g not in hit] + [
                sum((groups[g] for g in hit), ())]
        else:
            hit = ()
        g = next(g for g, group in enumerate(groups) if qubits[0] in group)
        steps.append((tuple(hit), g, tuple(groups[g].index(c) for c in qubits), len(groups[g])))
    order = sum(groups, ())
    # local bit i of the product of the final groups (group 0 lowest) is
    # qubit order[i]; the axis of qubit k is q-1-k
    perm = [q - 1 - order.index(q - 1 - a) for a in range(q)]
    perm += [q + a for a in perm]
    # the sum arrives as the last group's row bits, its column bits, then
    # the other groups' row bits and column bits
    m = len(groups[-1])
    axes = [*range(m), *range(2 * m, q + m), *range(m, 2 * m), *range(q + m, 2 * q)]
    return tuple(steps), tuple(axes[a] for a in perm)


def _run_density(circuit: Circuit, noise: tuple[NoiseChannel, ...]) -> RunResult:
    """Exact branch-resolved evolution, one classical bit pattern per
    branch.  A branch's unnormalized density is a product of factors, one
    per qubit group: a (2,)·2m tensor (row bits, then column bits) over the
    group's m qubits.  Every branch shares the groups, which start as one
    per qubit and merge by outer product, in every branch, when an op
    spans several of them (``_group_plan``); at the end all merge into one.

    Each gate acts on its group's local row and column axes
    (``_apply_local``), never lifted to the full space, and is followed by
    the channels of ``noise``, composed once into one 4 × 4 superoperator
    N = Σ K ⊗ K*, on each of its qubits.  A gate on m ≤ ``_FOLDED_ARITY``
    qubits is one application of N^{⊗m}·(U ⊗ U*).  N and N^{⊗m} are built
    once per noise model (``_oracle_folds``), and so is the superoperator
    of each unparameterized gate (``_oracle_fixed``).  A wider gate
    applies U on its row axes, U* on its column axes, then N on each of
    its qubits.  A measurement lifts one label operator, diag(0, …,
    2^m − 1), on its group to read each basis index's outcome, and splits
    every branch by outcome, dropping outcomes of weight ≤ 1e-15: an
    outcome's weight is its share of the group's trace times the traces
    of the branch's other factors, and the split masks only the measured
    factor, sharing the others.
    """
    q = circuit.qubits
    dim = 2**q
    folds = _oracle_folds(noise)
    steps, perm = _group_plan(q, tuple(
        (op.qubits, op.clbits) if isinstance(op, Measure) else (op.coords, ())
        for op in circuit.ops))
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    # branch key = classical bit pattern; values are one unnormalized
    # factor per group, in a list the branch owns
    branches: dict[tuple[int, ...], list[np.ndarray]] = {(0,) * circuit.clbits: [zero] * q}
    probs_record: list[np.ndarray] = []

    for op, (hit, g, local, m) in zip(circuit.ops, steps):
        if hit:
            _merge(branches, hit)
        if isinstance(op, Measure):
            outcomes = 2 ** len(op.qubits)
            # bit i of a local basis index's label is the value of op.qubits[i]
            labels = expand_matrix(np.diag(np.arange(outcomes, dtype=float)), local,
                                   m).diagonal().real.astype(np.intp)
            # masks[o]: the block of the basis indices with label o
            keep = labels == np.arange(outcomes)[:, None]
            masks = keep[:, :, None] & keep[:, None, :]
            agg = np.zeros(outcomes)
            split: dict[tuple[int, ...], list[np.ndarray]] = {}
            for key, factors in branches.items():
                others = 1.0
                for h, factor in enumerate(factors):
                    if h != g:
                        others *= _matrix(factor).trace().real
                mat = _matrix(factors[g])
                weights = np.bincount(labels, mat.diagonal().real, outcomes) * others
                agg += weights
                for outcome, weight in enumerate(weights.tolist()):
                    if weight <= 1e-15:
                        continue
                    sub = (mat * masks[outcome]).reshape((2,) * (2 * m))
                    newkey = list(key)
                    for i, cb in enumerate(op.clbits):
                        newkey[cb] = (outcome >> i) & 1
                    newkey = tuple(newkey)
                    if newkey in split:  # only after a merge into one group
                        sub = split[newkey][g] + sub
                    split[newkey] = factors[:g] + [sub] + factors[g + 1:]
            branches = split
            probs_record.append(agg)
            continue
        # (operator, local coordinates, sides) in order
        if len(op.coords) > _FOLDED_ARITY:
            u = op.matrix()
            local_ops = [(u, local, (0,)), (u.conj(), local, (1,))]
            if noise:
                local_ops += [(folds[0], (c,), (0, 1)) for c in local]
        elif op.angle is not None:
            local_ops = [(_folded(op.matrix(), folds), local, (0, 1))]
        else:
            local_ops = [(_oracle_fixed(op.kind, len(op.coords), noise), local, (0, 1))]
        for key, factors in branches.items():
            if op.condition is not None and not op.condition.holds(key):
                continue
            factor = factors[g]
            for mat, coords, sides in local_ops:
                factor = _apply_local(factor, mat, coords, m, sides)
            factors[g] = factor

    # a branch's weight is the product of its factors' traces; the state
    # Σ hi ⊗ lo over the branches, hi the last group's factor and lo the
    # product of the others (group 0 lowest), is one matrix product over
    # the branch axis
    stacks = [np.array([_matrix(f) for f in group]) for group in zip(*branches.values())]
    weights = functools.reduce(np.multiply, [s.trace(axis1=1, axis2=2).real for s in stacks])
    hi = stacks.pop()
    lo = functools.reduce(lambda low, high: _kron(high, low), stacks) if stacks else np.ones(len(hi))
    mat = (hi.reshape(len(hi), -1).T @ lo.reshape(len(lo), -1)).reshape(
        (2,) * (2 * q)).transpose(perm).reshape(dim, dim)
    bits = dict(zip(branches, weights.tolist()))
    return RunResult(DensityMatrix(q, mat), bits, probs_record)


def run_circuit(circuit: Circuit, mode: str = "pure",
                noise: NoiseChannel | Sequence[NoiseChannel] | None = None) -> RunResult:
    """Execute a circuit from |0...0⟩.

    Modes: "pure" (statevector; measurement-free, noise-free circuits
    only) and "density" (exact, branch-resolved over the classical
    outcomes of mid-circuit measurements; each branch's ρ is held as a
    product of one factor per group of qubits no gate has yet coupled,
    and each gate applied on its own row and column axes of its group's
    factor and followed by ``noise``, composed into one single-qubit
    superoperator, on each of its qubits, as ``apply_noisy_layout``
    places it; see ``_run_density``).  The noise superoperators, and the
    superoperators of unparameterized gates, are built once per noise
    model and cached.
    """
    circuit.validate()
    if isinstance(noise, NoiseChannel):
        noise = (noise,)
    noise = tuple(noise) if noise else ()
    if mode == "pure":
        if noise:
            raise ValueError("pure mode cannot carry noise; use density mode")
        if any(isinstance(op, Measure) for op in circuit.ops):
            raise ValueError("pure mode runs measurement-free circuits; use density mode")
        return _run_pure(circuit)
    if mode == "density":
        return _run_density(circuit, noise)
    raise ValueError(f"unknown mode {mode!r}")
