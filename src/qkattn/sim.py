"""Exact simulation of few-qubit circuits.

``run_circuit`` is the gate-by-gate oracle: exact evolution from |0…0⟩,
resolved over every classical branch of mid-circuit measurements and
classically conditioned gates, with Kraus noise channels in density
mode; ``expectation_z`` reads ⟨Z⟩ from either final state.  One branch
loop serves both modes, pure mode as its one-branch case
(``_run_branches``).  It holds each branch as a product of factors, one
per group of qubits that no gate has coupled yet, and applies every
operator on its group's own axes.  A noise-free run whose measurements
write each classical bit once holds state vectors, each gate its
``gate_matrix`` U, and its density is Σ_b ψ_b ψ_b† over the branches b;
any other holds densities, where a gate on at most ``_FOLDED_ARITY``
(two) qubits is one superoperator N^{⊗m}·(U ⊗ U*), its noise from
``NoiseChannel.kraus`` folded in.  Its caches are its own.
The batched layout builders (``layout_unitaries``, ``apply_noisy_layout``)
are the fast paths checked against it; the oracle uses none of their
compiled factors or caches.  The noisy builder walks the steps that a
layout compiles into once per register size and tuple of noise models
(``_run_plan``), placing noise by the same rule: one full-space step per
rotation at q ≤ 2, one step on at most two qubits per rotation at q ≥ 3,
the fixed gates folded into both.  Its stack holds each ρ in the Pauli
basis, T·vec(ρ) = Tr(P ρ)/2^{q/2} over the Pauli strings P
(``_pauli_basis``, ``to_walk_basis``), where a Hermitian ρ is a real
vector and every folded step a real matrix, its Pauli transfer matrix.
Only the walk of a layout with a gate wider than ``_FOLDED_ARITY`` (the
amplitude encoder and its reversal at q ≥ 3), whose steps U on the row
axes and U* on the column axes are not real maps, converts each qubit
into vec(ρ) first and back last.  In both builders every rotation's
matrices come from a batched product of real coefficients with the real
view of cached factors (``_left``), one product per shape of factors,
and both give exact derivatives in the angles for the first few rows
(``_coefficients``).  One noisy walk serves R noise models at once
(``_walk_runs``), as the noise sweep's lockstep runs need: the run axis
stays a batch axis of every product, so each run's output equals its
own walk bit for bit; ``apply_noisy_layout`` is the one-run case.

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
import math
import numbers
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


def _rotation_factors(kind: str, qubits: int) -> np.ndarray:
    """The factors [M0, M1, M2] of a parameterized gate kind, (3, D, D),
    with R(θ) = M0 + cos(θ/2)·M1 + sin(θ/2)·M2, which ``_gate_factors``
    caches.  Kept apart from gate_matrix, which the circuit oracle uses
    one gate at a time: the oracle tests then check these factors against
    it.  RX and RZ are cos(θ/2)·I − i·sin(θ/2)·P for their Pauli P; RY,
    CRY and MCRY-open rotate between two local basis indices (lo, hi) and
    act as the identity elsewhere.
    """
    if kind in ("RX", "RZ"):
        pauli = _X if kind == "RX" else np.diag([1.0, -1.0])
        return np.array([np.zeros((2, 2)), np.eye(2), -1j * pauli])
    dim = {"RY": 2, "CRY": 4}.get(kind, 2**qubits)
    lo, hi = (1, 3) if kind == "CRY" else (0, dim // 2)
    m = np.zeros((3, dim, dim), dtype=complex)
    m[0] = np.eye(dim)
    m[0, [lo, hi], [lo, hi]] = 0
    m[1, [lo, hi], [lo, hi]] = 1
    m[2, [lo, hi], [hi, lo]] = [-1, 1]
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

    def add_layout(self, layout: Layout, angles, offset: int = 0,
                   adjoint: bool = False) -> "Circuit":
        """Append one instance of a fixed-structure fragment, the gate of
        slot s at angle ``angles[s]`` and every coordinate moved up by
        ``offset``.  ``adjoint`` appends the fragment's adjoint instead:
        the gates in reverse order on negated angles (every
        unparameterized gate kind is self-inverse)."""
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
        if isinstance(self.strength, bool) or not isinstance(self.strength, numbers.Real):
            raise ValueError(f"channel strength must be a real number, got {self.strength!r}")
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
    return t.reshape(moved).transpose(_inverse(perm)).reshape(lead + (2**q,))


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation, in Python: ``np.argsort`` on a list
    costs about 5 µs through numpy's fallback for non-arrays."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


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
                  derivatives: int = 0) -> np.ndarray:
    """The coefficient basis of R rotations, rotation r driven by column
    slots[r] of ``angles`` (runs, K, P), as (R, runs, K, terms): [1, c, s]
    for a unitary, [1, c, s, cs, s²] for a superoperator, c, s = cos,
    sin(θ/2).  The run axis stays a batch axis of every product.

    ``derivatives`` follows each of the first ``derivatives`` rows with
    one row per column j, in which the rotation that j
    drives has its basis' θ-derivative (``_BASIS_DERIVATIVE``): every
    factor is affine in the basis, so that row's product is the
    fragment's derivative in θ_j, as long as no column drives two
    rotations.  A column that drives none zeroes its row's first
    rotation, so its derivative is 0.  The derivative rows are one
    product of the rows with the cached map of ``_expansion``; the rows
    after the first ``derivatives`` follow them as they are.
    """
    half = angles[..., slots].transpose(2, 0, 1) / 2
    c, s = np.cos(half), np.sin(half)
    coef = np.empty(c.shape + (5 if channel else 3,))
    coef[..., 0] = 1.0
    coef[..., 1] = c
    coef[..., 2] = s
    if channel:
        np.multiply(c, s, out=coef[..., 3])
        np.multiply(s, s, out=coef[..., 4])
    if not derivatives:
        return coef
    terms = coef.shape[-1]
    expansion = _expansion(tuple(slots.tolist()), angles.shape[-1], terms)
    rows = coef[..., :derivatives, :] @ expansion[:, None]
    rows = rows.reshape(coef.shape[:-2] + (-1, terms))
    return rows if derivatives == angles.shape[-2] else np.concatenate(
        [rows, coef[..., derivatives:, :]], axis=-2)


@functools.lru_cache(maxsize=256)
def _expansion(slots: tuple[int, ...], width: int, terms: int) -> np.ndarray:
    """The map, read-only, from each rotation's coefficient row to that
    row followed by its ``width`` derivative rows, (R, terms, (1 + width)
    · terms) for the rotations driven by ``slots``: in rotation r's
    matrix every block is the identity, except ``_BASIS_DERIVATIVE`` in
    block 1 + slots[r] and, in the first rotation's, 0 in the block of
    each column that drives no rotation."""
    driven = set(slots)
    if not driven or len(driven) < len(slots):
        raise ValueError("derivative rows need rotations, each slot driving at most one")
    out = np.zeros((len(slots), terms, 1 + width, terms))
    out[...] = np.eye(terms)[:, None]
    for r, j in enumerate(slots):
        out[r, :, 1 + j] = _BASIS_DERIVATIVE[:terms, :terms]
    out[0, :, [1 + j for j in range(width) if j not in driven]] = 0.0
    out = out.reshape(len(slots), terms, -1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _gate_factors(kind: str, arity: int, rotation: bool,
                  noise: tuple[NoiseChannel, ...] | None) -> np.ndarray:
    """One gate in its local space as factors over ``_coefficients``:
    a rotation's value at θ is coefficients(θ/2) @ factors, a fixed
    gate's is its one factor (1, d, d).

    ``noise`` None gives the unitary (d = 2^m), a rotation's factors
    those of R(θ) = M0 + c·M1 + s·M2 (``_rotation_factors``).  Otherwise
    the gate is fused with each channel of ``noise`` on each of its
    qubits into one superoperator N·(R ⊗ R*) (d = 4^m), on the gate's
    local vec space (column bits low, row bits high).
    """
    m = _rotation_factors(kind, arity) if rotation else gate_matrix(kind, qubits=arity)[None]
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only for a cache, and real when its imaginary part
    is exactly 0, so that products with it stay real."""
    if np.iscomplexobj(arr) and not arr.imag.any():
        arr = arr.real.copy()
    arr.flags.writeable = False
    return arr


@functools.lru_cache(maxsize=128)
def _layout_factors(layout: tuple, q: int, noise: tuple[NoiseChannel, ...] | None = None
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A layout compiled into full-space factors, one per rotation, cached
    read-only: the same layouts recur, and so do the groups of a q ≥ 3
    walk, on other qubits and in other layouts.

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
    return tuple(_frozen(arr) for arr in (np.array(slots, dtype=np.intp), factors, tail))


def _left(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """m @ t, a real m applied to a contiguous complex t through t's real
    view, as one real product: a walk's step on its stack, and the real
    coefficients of rotations on their cached factors, whose product is
    real when the factors are."""
    if np.iscomplexobj(t) and not np.iscomplexobj(m) and t.flags.c_contiguous:
        return (m @ t.view(float)).view(complex)
    return m @ t


def layout_unitaries(layout: Layout, angles: np.ndarray, q: int,
                     derivatives: int = 0) -> np.ndarray:
    """Unitaries (K, 2^q, 2^q) of a fixed-structure fragment, one per
    row of ``angles``.

    The layout is compiled once into cached full-space factors, R(θ) =
    M0 + c·M1 + s·M2 per rotation with c, s = cos(θ/2), sin(θ/2); a call
    evaluates every rotation of every row in one batched product of the
    coefficients of ``angles`` as one run (``_coefficients``) with the
    factors (``_left``) and multiplies the R gates together, R − 1
    batched matmuls in all.  A layout whose factors are all real (RY, CRY,
    MCRY-open and fixed gates) gives real unitaries.  ``derivatives``
    follows each of the first ``derivatives`` unitaries with its
    derivative in each column of ``angles`` (``_coefficients``).
    """
    slots, factors, tail = _layout_factors(tuple(layout), q)
    dim = len(tail)
    if not slots.size:
        return np.broadcast_to(tail, (len(angles), dim, dim)).copy()
    coef = _coefficients(angles[None], slots, False, derivatives)[:, 0]
    gates = _left(coef, factors).reshape(slots.size, -1, dim, dim)
    u = gates[0]
    for gate in gates[1:]:
        u = gate @ u
    return u


@functools.lru_cache(maxsize=256)
def _noise_superop(noise: tuple[NoiseChannel, ...], arity: int) -> np.ndarray:
    """The channels of ``noise``, composed in order, on each of ``arity``
    qubits: a superoperator on the local vec space of a gate (column bits
    low, row bits high)."""
    one = np.eye(4, dtype=complex)
    for ch in noise:
        one = sum(np.kron(k, k.conj()) for k in ch.kraus()) @ one
    return _per_qubit(one, arity)


def _per_qubit(one: np.ndarray, q: int) -> np.ndarray:
    """The 4 × 4 operator ``one`` on each qubit's (column bit, row bit)
    pair of a q-qubit vec index, bits k and q + k: a 4^q × 4^q operator,
    read-only."""
    rows = np.eye(4**q, dtype=complex)[None]
    for k in range(q):
        rows = _apply_stack(rows, one[None], (k, q + k), 2 * q)
    # row b of the evolved basis is the operator applied to e_b
    out = rows[0].T.copy()
    out.flags.writeable = False
    return out


# Gates on at most this many qubits carry the noise folded into their
# superoperator, N^{⊗m}·(U ⊗ U*), at most 16 × 16, and so do the steps
# that ``apply_noisy_layout`` walks at q ≥ 3.  Wider gates (the
# MCRY-open gates) apply U on their row axes, U* on their column axes,
# then the 4 × 4 channel on each of their qubits: folding would cost a
# 4^m × 4^m superoperator per gate, 256 × 256 at arity 4 and 4096 × 4096
# at arity 6.  Both engines follow this rule: the oracle's density
# factors (``_run_branches``) and ``apply_noisy_layout``'s walks.
_FOLDED_ARITY = 2

# Registers with at most this many Pauli coordinates (q ≤ 2) walk one
# full-space step per rotation, every fixed gate folded in, as
# layout_unitaries multiplies them; larger ones walk one step per group of
# ``_walk_groups``, in the same basis.  At q = 3 the 64 × 64 products ran
# 2.4–5.3× slower than per-gate steps in a one-pair forward and 1.7–4×
# slower in a 30-sample gradient, and at q = 4 one rotation's factors
# would take 5 MB.
_FACTORED_VEC_DIM = 16

# Row p of T_1: vec(Pᵀ)/√2 for P = I, X, Y, Z, so that T_1·vec(ρ) =
# Tr(P ρ)/√2.  The Paulis are orthonormal under Tr(A†B)/2, so T_1 is unitary.
_PAULI_ROWS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]) * _SQRT2_INV


@functools.lru_cache(maxsize=4)
def _pauli_basis(q: int) -> np.ndarray:
    """The unitary T_q on vec(ρ) (4^q × 4^q, read-only) with T·vec(ρ) =
    Tr(P ρ)/2^{q/2} over the Pauli strings P on q qubits.

    T_q is T_1 on each qubit's (column bit, row bit) pair of the vec
    index, in place: qubit k's Pauli index takes bit k and bit q + k, so
    a local operator on some qubits' pairs keeps its axes in either
    basis.  A Hermitian ρ has a real T·vec(ρ), and a map that preserves
    Hermiticity, as every noisy gate does, has a real T S T†: its Pauli
    transfer matrix.
    """
    return _per_qubit(_PAULI_ROWS, q)


def _real(arr: np.ndarray) -> np.ndarray:
    """The real part of ``arr`` as a new array, refused unless the
    imaginary part is below 1e-13 (relative to the largest real part, if
    that exceeds 1), as it is in the Pauli basis for Hermitian matrices and
    for maps that preserve Hermiticity."""
    if arr.size and np.abs(arr.imag).max() >= 1e-13 * max(1.0, np.abs(arr.real).max()):
        raise ValueError("not real in the Pauli basis: a matrix is not Hermitian "
                         "or a map does not preserve Hermiticity")
    return arr.real.copy()


def to_walk_basis(vecs: np.ndarray, q: int) -> np.ndarray:
    """vec(ρ) of Hermitian matrices ρ (…, 4^q) in the basis that
    ``apply_noisy_layout`` walks: the real Pauli coordinates T_q·vec(ρ)
    of ``_pauli_basis``, at every register size q."""
    return _real(vecs @ _pauli_basis(q).T)


@functools.lru_cache(maxsize=1024)
def _density_axes(coords: tuple[int, ...], q: int, sides: tuple[int, ...] = (0, 1),
                  ndim: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation that brings the row axes of ``coords`` (side 0),
    then their column axes (side 1), to the front of a (2,)·2q density
    tensor, or of a (2,)·q state tensor (``ndim`` q), and its inverse."""
    rows = _coord_axes(coords, q)
    front = [side * q + a for side in sides for a in rows]
    perm = front + [a for a in range(ndim or 2 * q) if a not in front]
    return tuple(perm), _inverse(perm)


def _walk_groups(layout: tuple) -> list[tuple[tuple[int, ...], list]]:
    """The gates of a layout grouped into the steps of a q ≥ 3 walk, as
    (qubits, gates) in order.

    A gate wider than ``_FOLDED_ARITY`` is a group of its own.  Every
    other group holds at most one rotation on at most two qubits: a run
    of fixed gates joins the next rotation when their qubits fit in two,
    a fixed gate inside the last group's qubits joins that group, and a
    run that fits neither joins the last group if their qubits fit in
    two, else stands alone.  So H goes into its qubit's RY or RZ, and
    CNOT·RZ·CNOT is one group on (c, f).
    """
    groups: list[tuple[tuple[int, ...], list]] = []
    run = None  # fixed gates since the last group, (qubits, gates)

    def union(*qubits):
        return tuple(sorted(set().union(*qubits)))

    def place_run():
        if run is None:
            return
        if groups and len(union(groups[-1][0], run[0])) <= _FOLDED_ARITY:
            groups[-1] = (union(groups[-1][0], run[0]), groups[-1][1] + run[1])
        else:
            groups.append(run)

    for gate in layout:
        coords, rotation = gate[1], gate[2] is not None
        if run is not None and len(union(run[0], coords)) <= _FOLDED_ARITY:
            run = (union(run[0], coords), run[1] + [gate])
            if rotation:
                groups.append(run)
                run = None
            continue
        place_run()
        run = None
        if len(coords) > _FOLDED_ARITY or rotation:
            groups.append((tuple(coords), [gate]))
        elif groups and len(groups[-1][0]) <= _FOLDED_ARITY and set(coords) <= set(groups[-1][0]):
            groups[-1][1].append(gate)
        else:
            run = (tuple(coords), [gate])
    place_run()
    return groups


@functools.lru_cache(maxsize=64)
def _run_plan(layout: tuple, q: int, noises: tuple[tuple[NoiseChannel, ...], ...]) -> tuple:
    """A noisy layout compiled, for a tuple of noise models, one per run,
    into the steps that ``_walk_runs`` walks under the ``_FOLDED_ARITY``
    rule, cached read-only; ``apply_noisy_layout``'s one run is a tuple
    of one.

    The groups are the whole register at q ≤ 2 and those of
    ``_walk_groups`` at q ≥ 3.  ``_layout_factors`` folds each group on
    its own m qubits, under each run's noise model, into one operator
    N^{⊗m}·(U ⊗ U*) per gate and one step per rotation, every fixed gate
    folded into the next rotation and the tail into the last; the runs'
    steps are stacked and conjugated together into the Pauli basis of
    those qubits, T_m F T_m† (``_pauli_basis``), where they are real,
    which ``_real`` checks.  A gate wider than ``_FOLDED_ARITY`` is U on
    its row axes, U* on its column axes, then the 4 × 4 channel on each
    of its qubits, steps that are not real maps.  A layout that holds one
    walks vec(ρ) instead, its groups left as they are, between a fixed
    step T_1† on each qubit's (column, row) bit pair first and T_1 on
    each last.  Only a noisy run takes a wide gate's channel steps, so a
    noise-free run cannot walk beside a noisy one through a wide gate;
    at q ≤ 2 every group is narrow and any runs walk together.

    Returns (slots, groups, steps): the angle slot of each rotation step
    (R,); per shape of rotation factors, the indices of its rotations
    and their factors stacked (R_g, runs, 3 or 5, d²), real when exactly
    real, a rotation's matrix at θ being coefficients(θ/2) @ factors; and
    per step ((group, row) or None, fixed matrix (runs, 1, d, d) or None,
    d, perm, inverse) for an operator on d local entries.  The run axis
    is 1 where every run shares the matrix: a wide gate's U and U* and
    the conversions T_1.  ``perm`` brings the run axis, the stack's row
    axis, then the operator's axes, to the front of a (runs, K, B) +
    (2,)·2q stack; it is None for an operator on the whole register.
    """
    slots, steps, shapes = [], [], {}

    def step(slot, factors, coords, sides):
        axes, _ = _density_axes(coords, q, sides)
        k = len(sides) * len(coords)
        # the run and row axes, the operator's axes, then B and the rest
        perm = (0, 1, *(3 + a for a in axes[:k]), 2, *(3 + a for a in axes[k:]))
        inverse = _inverse(perm)
        if k == 2 * q:  # the whole register, whose axes are in order
            perm = inverse = None
        if slot is None:
            steps.append((None, _frozen(factors.reshape(len(factors), 1, 2**k, 2**k)), 2**k,
                          perm, inverse))
            return
        factors = factors.reshape(factors.shape[:2] + (-1,))
        rows = shapes.setdefault(factors.shape, [])
        steps.append(((list(shapes).index(factors.shape), len(rows)), None, 2**k, perm, inverse))
        rows.append((len(slots), factors))
        slots.append(slot)

    whole = 4**q <= _FACTORED_VEC_DIM
    parts = [(tuple(range(q)), layout)] if whole else _walk_groups(layout)
    wide = any(len(coords) > _FOLDED_ARITY for coords, _ in parts)
    if wide and any(noises) and not all(noises):
        raise ValueError("lockstep runs need noise models whose walks take the same steps")
    for c in range(q if wide else 0):  # into vec(ρ)
        step(None, _pauli_basis(1).conj().T[None], (c,), (0, 1))
    for coords, gates in parts:
        if len(coords) > _FOLDED_ARITY:
            (kind, _, slot), = gates
            u = _gate_factors(kind, len(coords), slot is not None, None)[None]
            step(slot, u, coords, (0,))
            step(slot, u.conj(), coords, (1,))
            if noises[0]:
                channels = np.array([_noise_superop(noise, 1) for noise in noises])
                for c in coords:
                    step(None, channels, (c,), (0, 1))
            continue
        # the group on its own qubits, every slot 0
        local = tuple((kind, tuple(coords.index(c) for c in cs), None if slot is None else 0)
                      for kind, cs, slot in gates)
        # each run's factors, on a run axis after the rotation axis, and tail
        _, factors, tail = zip(*(_layout_factors(local, len(coords), noise) for noise in noises))
        factors, tail = np.stack(factors, axis=1), np.array(tail)
        if not wide:
            t = _pauli_basis(len(coords))
            factors = _real(t @ factors.reshape(factors.shape[:3] + t.shape) @ t.conj().T)
            tail = _real(t @ tail @ t.conj().T)
        for slot, f in zip([slot for *_, slot in gates if slot is not None], factors):
            step(slot, f, coords, (0, 1))
        if not len(factors):  # the tail is folded into the last rotation, if any
            step(None, tail, coords, (0, 1))
    for c in range(q if wide else 0):  # back to the Pauli basis
        step(None, _pauli_basis(1)[None], (c,), (0, 1))
    # a group of every rotation takes every coefficient row, a view
    groups = tuple((slice(None) if len(rows) == len(slots) else
                    np.array([r for r, _ in rows], dtype=np.intp),
                    _frozen(np.array([f for _, f in rows])), math.isqrt(width))
                   for (*_, width), rows in shapes.items())
    return _frozen(np.array(slots, dtype=np.intp)), groups, tuple(steps)


def _walk_runs(vecs: np.ndarray, layout: Layout, angles: np.ndarray, q: int,
               noises: tuple[tuple[NoiseChannel, ...], ...], adjoint: bool = False,
               derivatives: int = 0) -> np.ndarray:
    """``apply_noisy_layout`` for R runs in one walk, run r under the
    noise model ``noises[r]``, a tuple of channels: ``vecs`` (R or 1, K or
    1, B, 4^q) and ``angles`` (R or 1, K, P), where a run axis of 1 is
    shared by every run, give (R, K, B, 4^q), and the first
    ``derivatives`` rows of each run are followed by their derivative rows.

    The layout compiles once per tuple of noise models (``_run_plan``).
    The run axis is a batch axis of every product, whose matrices keep
    the shapes of a one-run walk, so each run's output equals its own
    ``apply_noisy_layout`` bit for bit: folding the runs into the rows of
    one product would let a GEMM round its edge rows differently.
    """
    slots, groups, steps = _run_plan(tuple(layout), q, tuple(noises))
    coef = _coefficients(angles, slots, True, derivatives)
    mats = []
    for at, factors, d in groups:
        m = _left(coef[at, :, :, : factors.shape[2]], factors)
        mats.append(m.reshape(m.shape[:-1] + (d, d)))
    if not slots.size:
        vecs = np.broadcast_to(vecs, vecs.shape[:1] + angles.shape[-2:-1] + vecs.shape[2:])
    size = vecs.shape[2] * 4**q  # entries per row, also of an empty stack
    t = vecs
    for rotation, fixed, d, perm, inverse in (reversed(steps) if adjoint else steps):
        m = fixed if rotation is None else mats[rotation[0]][rotation[1]]
        if perm is None:
            # on row vectors: v @ Mᵀ, and for the adjoint v @ M* = (M† vᵀ)ᵀ
            t = t @ (m.conj() if adjoint else m.swapaxes(-1, -2))
            continue
        if adjoint:
            m = m.conj().swapaxes(-1, -2)
        moved = t.reshape(t.shape[:3] + (2,) * (2 * q)).transpose(perm)
        out = _left(m, moved.reshape(moved.shape[:2] + (d, size // d)))
        t = out.reshape(out.shape[:2] + moved.shape[2:]).transpose(inverse)
    t = t if t.ndim == 4 else t.reshape(t.shape[:2] + vecs.shape[2:])
    if len(t) != len(noises):  # every step and input shared by the runs
        t = np.repeat(t, len(noises), axis=0)
    # a wide gate's layout walks vec(ρ) and returns a real input real
    return _real(t) if np.iscomplexobj(t) and not np.iscomplexobj(vecs) else t


def apply_noisy_layout(vecs: np.ndarray, layout: Layout, angles: np.ndarray, q: int,
                       noise: Sequence[NoiseChannel] = (), adjoint: bool = False,
                       derivatives: int = 0) -> np.ndarray:
    """Run a fixed-structure fragment on a (K, B, 4^q) stack of density
    matrices given by their real Pauli coordinates T·vec(ρ)
    (``to_walk_basis``), at every register size: the one-run case of
    ``_walk_runs``.

    Every gate is followed by each channel of ``noise`` on each of its
    qubits.  Row k of ``angles`` drives the gates applied to vecs[k]; a
    one-row stack is shared by every row.  Run on the 4^q basis vectors,
    row k is the fragment's superoperator S in that basis transposed: its
    real Pauli transfer matrix T S T†.  The call walks the steps that the
    layout compiled into once per noise model (``_run_plan`` with one
    run) over the stack, in order, and returns a real stack real.  No
    call multiplies two operators together: on the 4^q basis the walk
    costs what the product S would.  Every rotation step's matrices come
    from one batched product of the real coefficients with the real view
    of the cached factors of its shape (``_left``; at q ≤ 2 every
    rotation has one shape), which stays real for a layout whose factors
    are all real: every layout without a wide gate, and the amplitude
    encoders, their reversed layouts and the link RY.  A step on the
    whole register is one matmul on the right of the stack; any other is
    one transpose, one matmul on the left (a real matrix through a
    complex stack's real view, ``_left``) and the inverse transpose.
    ``adjoint`` applies the adjoint map instead (S†: the steps' matrices
    conjugate-transposed in reverse order), which carries vectorised
    observables backwards: Tr(O·Λ(ρ)) = Tr(Λ†(O)·ρ).  ``derivatives``
    follows each of the first ``derivatives`` rows with the fragment's
    derivative in each column of ``angles`` (``_coefficients``); it needs
    every slot to drive at most one gate on at most ``_FOLDED_ARITY``
    qubits.
    """
    return _walk_runs(vecs[None], layout, angles[None], q, (tuple(noise),), adjoint,
                      derivatives)[0]


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


def expectation_z(state: StateVector | DensityMatrix, qubit: int) -> float:
    """⟨Z⟩ on one qubit: P(qubit=0) − P(qubit=1)."""
    _check_range("qubit", (qubit,), state.qubits)
    sign = 1.0 - 2.0 * ((np.arange(2**state.qubits) >> qubit) & 1)
    if isinstance(state, StateVector):
        return float(np.sum((np.abs(state.amps) ** 2) * sign))
    return float(np.sum(np.diagonal(state.mat).real * sign))


# --- circuit execution -------------------------------------------------

@dataclasses.dataclass
class RunResult:
    """Final state plus the classical record of a circuit run.

    ``state`` is a StateVector in pure mode and a DensityMatrix in density
    mode, Σ_b ψ_b ψ_b† over the branches b of a run that holds state
    vectors.  ``bits`` is the all-zero register tuple in pure mode, which
    runs only measurement-free circuits, and a {bit-pattern: probability}
    dict in density mode.  ``measurement_probs`` holds the exact
    pre-measurement outcome distribution of each measurement marker, in
    order; pure mode records none.
    """

    state: StateVector | DensityMatrix
    bits: tuple[int, ...] | dict[tuple[int, ...], float]
    measurement_probs: list[np.ndarray]


def _superop(u: np.ndarray) -> np.ndarray:
    """U ⊗ U* on a local vec space with the row bits high:
    vec(U ρ U†)[r·d + c] = Σ (U ⊗ U*)[r·d + c, r'·d + c'] ρ[r', c']."""
    d = len(u)
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


# The circuit oracle's own caches, built from NoiseChannel.kraus and
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
def _oracle_fixed(kind: str, arity: int, noise: tuple[NoiseChannel, ...] | None) -> np.ndarray:
    """An unparameterized gate, read-only: its unitary when ``noise`` is
    None, else its ``_folded`` superoperator under ``noise``."""
    u = gate_matrix(kind, qubits=arity)
    out = u if noise is None else _folded(u, _oracle_folds(noise))
    out.flags.writeable = False
    return out


def _apply_local(rho: np.ndarray, mat: np.ndarray, coords: tuple[int, ...], q: int,
                 sides: tuple[int, ...] = (0, 1)) -> np.ndarray:
    """Apply a local operator to the axes of ``coords`` on the given sides
    (0 rows, 1 columns) of a group's factor: on a (2,)·2q density tensor
    a superoperator on both sides, U on the rows or U* on the columns; on
    a (2,)·q state tensor U on the rows.  One transpose, one matmul, the
    inverse."""
    perm, inverse = _density_axes(coords, q, sides, rho.ndim)
    t = rho.transpose(perm)
    moved = t.shape
    return (mat @ t.reshape(len(mat), -1)).reshape(moved).transpose(inverse)


def _flat(factor: np.ndarray, sides: int) -> np.ndarray:
    """A group's factor as a 2^m × 2^m density matrix (two sides, from a
    (2,)·2m tensor) or a 2^m state vector (one side, from (2,)·m)."""
    d = 2 ** (factor.ndim // sides)
    return factor.reshape((d,) * sides)


def _probs(flat: np.ndarray, sides: int) -> np.ndarray:
    """The weight of each basis index of flat factors, (…, d, d) or (…,
    d): a density's real diagonal, or |ψ|² of a state vector."""
    return flat.diagonal(axis1=-2, axis2=-1).real if sides == 2 else flat.real**2 + flat.imag**2


def _kron(hi: np.ndarray, lo: np.ndarray, sides: int) -> np.ndarray:
    """hi ⊗ lo over the last ``sides`` axes, matrices (two) or vectors
    (one): ``lo``'s index gives the low bits."""
    if sides == 1:
        return (hi[..., :, None] * lo[..., None, :]).reshape(hi.shape[:-1] + (-1,))
    dh, dl = hi.shape[-1], lo.shape[-1]
    return (hi[..., :, None, :, None] * lo[..., None, :, None, :]).reshape(
        hi.shape[:-2] + (dh * dl, dh * dl))


def _merge(branches: dict, hit: tuple[int, ...], sides: int) -> None:
    """Replace the factors ``hit`` of every branch by their product, last,
    with the first one's qubits lowest."""
    shape = (2,) * sum(next(iter(branches.values()))[g].ndim for g in hit)
    for key, factors in branches.items():
        merged = _flat(factors[hit[0]], sides)
        for g in hit[1:]:
            merged = _kron(_flat(factors[g], sides), merged, sides)
        branches[key] = [f for g, f in enumerate(factors) if g not in hit] + [merged.reshape(shape)]


@functools.lru_cache(maxsize=256)
def _group_plan(q: int, sites: tuple) -> tuple[tuple, tuple[int, ...], bool, tuple[int, ...]]:
    """The qubit groups of a circuit run, from the (qubits, clbits) of
    each op (clbits () for a gate) alone.

    Groups start as one per qubit; an op on qubits of several groups
    merges them first.  A measurement that writes a classical bit an
    earlier one wrote, or writes one bit twice, can bring two branches
    onto one bit pattern, whose sum is no product, so it merges every
    group first.  Returns, per op, (groups to merge, the op's group, its
    local coordinates, the group's size); the permutation that takes the
    axes of the final density, as ``_run_branches`` sums density factors,
    to qubit order; whether a measurement rewrites a bit; and the
    permutation that takes the axes of a product of state vectors to
    qubit order.
    """
    groups = [(k,) for k in range(q)]
    written: set[int] = set()
    rewrites = False
    steps = []
    for qubits, clbits in sites:
        if len(written.union(clbits)) < len(written) + len(clbits):  # a bit written twice
            rewrites = True
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
    order = tuple(q - 1 - order.index(q - 1 - a) for a in range(q))
    # a density sum arrives as the last group's row bits, its column
    # bits, then the other groups' row bits and column bits
    m = len(groups[-1])
    axes = [*range(m), *range(2 * m, q + m), *range(m, 2 * m), *range(q + m, 2 * q)]
    perm = tuple(axes[a] for a in order + tuple(q + a for a in order))
    return tuple(steps), perm, rewrites, order


def _run_branches(circuit: Circuit, noise: tuple[NoiseChannel, ...], mode: str) -> RunResult:
    """Exact branch-resolved evolution, one classical bit pattern per
    branch; pure mode is the one-branch case.  A branch's unnormalized
    state is a product of factors, one per qubit group; every branch
    shares the groups, which merge by outer product when an op spans
    several (``_group_plan``).

    Without noise, and when no measurement rewrites a classical bit, a
    factor is its group's state vector, a (2,)·m tensor, and a gate is U
    on its rows: a measurement then only splits pure states into pure
    branches.  Otherwise a factor is the group's density, a (2,)·2m
    tensor (row bits, then column bits), as noise and branches that meet
    on one bit pattern need, and a gate on m ≤ ``_FOLDED_ARITY`` qubits
    is N^{⊗m}·(U ⊗ U*), N = Σ K ⊗ K* the channels of ``noise`` composed
    on one qubit (``_oracle_folds``); a wider gate is U on its row axes,
    U* on its column axes, then N on each of its qubits.  A fixed gate's
    operator comes from a read-only cache (``_oracle_fixed``), and every
    operator acts on its group's own axes (``_apply_local``).  A
    measurement lifts one label operator, diag(0, …, 2^m − 1), on its
    group to read each basis index's outcome, and splits every branch by
    outcome, dropping outcomes of weight ≤ 1e-15: an outcome's weight is
    its share of the group's |ψ|² or trace times the other factors', and
    the split masks only the measured factor, sharing the others.
    """
    q = circuit.qubits
    dim = 2**q
    steps, perm, rewrites, order = _group_plan(q, tuple(
        (op.qubits, op.clbits) if isinstance(op, Measure) else (op.coords, ())
        for op in circuit.ops))
    vector = not noise and not rewrites
    sides = 1 if vector else 2
    folds = _oracle_folds(noise)
    zero = np.zeros((2,) * sides, dtype=complex)
    zero[(0,) * sides] = 1.0
    # branch key = classical bit pattern; values are one unnormalized
    # factor per group, in a list the branch owns
    branches: dict[tuple[int, ...], list[np.ndarray]] = {(0,) * circuit.clbits: [zero] * q}
    probs_record: list[np.ndarray] = []

    for op, (hit, g, local, m) in zip(circuit.ops, steps):
        if hit:
            _merge(branches, hit, sides)
        if isinstance(op, Measure):
            outcomes = 2 ** len(op.qubits)
            # bit i of a local basis index's label is the value of op.qubits[i]
            labels = expand_matrix(np.diag(np.arange(outcomes, dtype=float)), local,
                                   m).diagonal().real.astype(np.intp)
            # masks[o]: the basis indices with label o, or their block
            keep = labels == np.arange(outcomes)[:, None]
            masks = keep if vector else keep[:, :, None] & keep[:, None, :]
            agg = np.zeros(outcomes)
            split: dict[tuple[int, ...], list[np.ndarray]] = {}
            for key, factors in branches.items():
                others = math.prod(_probs(_flat(f, sides), sides).sum()
                                   for h, f in enumerate(factors) if h != g)
                flat = _flat(factors[g], sides)
                weights = np.bincount(labels, _probs(flat, sides), outcomes) * others
                agg += weights
                for outcome, weight in enumerate(weights.tolist()):
                    if weight <= 1e-15:
                        continue
                    sub = (flat * masks[outcome]).reshape((2,) * (sides * m))
                    newkey = list(key)
                    for i, cb in enumerate(op.clbits):
                        newkey[cb] = (outcome >> i) & 1
                    newkey = tuple(newkey)
                    if newkey in split:  # only after a merge into one density group
                        sub = split[newkey][g] + sub
                    split[newkey] = factors[:g] + [sub] + factors[g + 1:]
            branches = split
            probs_record.append(agg)
            continue
        # (operator, local coordinates, sides) in order
        if vector:
            u = op.matrix() if op.angle is not None else _oracle_fixed(op.kind, len(op.coords), None)
            local_ops = [(u, local, (0,))]
        elif len(op.coords) > _FOLDED_ARITY:
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
            for mat, coords, op_sides in local_ops:
                factor = _apply_local(factor, mat, coords, m, op_sides)
            factors[g] = factor

    # a branch's weight is the product of its factors'; each state below
    # is one matrix product over the branch axis
    stacks = [np.array([_flat(f, sides) for f in group]) for group in zip(*branches.values())]
    bits = functools.reduce(np.multiply, [_probs(s, sides).sum(-1) for s in stacks])
    if vector:  # Σ_b ψ_b ψ_b†, ψ_b the product of b's vectors (group 0 lowest) in qubit order
        psi = functools.reduce(lambda low, high: _kron(high, low, 1), stacks)
        psi = psi.reshape((-1,) + (2,) * q).transpose(0, *(1 + a for a in order)).reshape(-1, dim)
        if mode == "pure":
            return RunResult(StateVector(q, psi[0]), (0,) * circuit.clbits, [])
        mat = psi.T @ psi.conj()
    else:  # Σ hi ⊗ lo, hi the last group's factor, lo the others' product (group 0 lowest)
        hi = stacks.pop()
        lo = (functools.reduce(lambda low, high: _kron(high, low, 2), stacks) if stacks
              else np.ones(len(hi)))
        mat = (hi.reshape(len(hi), -1).T @ lo.reshape(len(lo), -1)).reshape(
            (2,) * (2 * q)).transpose(perm).reshape(dim, dim)
    return RunResult(DensityMatrix(q, mat), dict(zip(branches, bits.tolist())), probs_record)


def run_circuit(circuit: Circuit, mode: str = "pure",
                noise: NoiseChannel | Sequence[NoiseChannel] | None = None) -> RunResult:
    """Execute a circuit from |0...0⟩.

    Modes: "pure" (statevector; measurement-free, noise-free circuits
    only) and "density" (exact, branch-resolved over the classical
    outcomes of mid-circuit measurements, ``noise`` after every gate on
    each of its qubits, as ``apply_noisy_layout`` places it).  Both run
    one branch loop, pure mode as its one-branch case (``_run_branches``):
    a noise-free run whose measurements write each classical bit once
    holds state vectors, its density Σ_b ψ_b ψ_b† over the branches b,
    and any other holds density factors.
    """
    circuit.validate()
    if isinstance(noise, NoiseChannel):
        noise = (noise,)
    noise = tuple(noise) if noise else ()
    if mode not in ("pure", "density"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "pure":
        if noise:
            raise ValueError("pure mode cannot carry noise; use density mode")
        if any(isinstance(op, Measure) for op in circuit.ops):
            raise ValueError("pure mode runs measurement-free circuits; use density mode")
    return _run_branches(circuit, noise, mode)
