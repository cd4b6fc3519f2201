"""Exact simulation of few-qubit circuits.

Pure statevector evolution, density-matrix evolution with Kraus noise
channels, projective measurement of qubit subsets (including mid-circuit
measurement with classically conditioned gates), and Z expectations.

Basis ordering is little-endian throughout: qubit 0 is the least
significant bit of a basis index.  For two-qubit gates the first
coordinate is the control and maps to the low bit of the local 2-qubit
index, so CRY mixes local basis indices 1 and 3.

Global phase is never normalized away; every observable quantity exposed
here is phase-insensitive.
"""
from __future__ import annotations

import dataclasses
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


def _rotation_stack(kind: str, angles: np.ndarray, qubits: int) -> np.ndarray:
    """gate_matrix of a parameterized kind at K angles: (K, D, D).

    Kept apart from gate_matrix, which the circuit oracle uses one gate at
    a time: the oracle tests then check these matrices against it.  RY,
    CRY and MCRY-open rotate between two local basis indices (lo, hi) and
    act as the identity elsewhere.
    """
    c, s = np.cos(angles / 2), np.sin(angles / 2)
    if kind == "RZ":
        m = np.zeros((angles.size, 2, 2), dtype=complex)
        m[:, 0, 0] = np.exp(-0.5j * angles)
        m[:, 1, 1] = np.exp(0.5j * angles)
        return m
    if kind == "RX":
        m = np.empty((angles.size, 2, 2), dtype=complex)
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
    m = np.zeros((angles.size, dim, dim), dtype=complex)
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
# gates.  A row of angles fills the slots of one instance.
Layout = Sequence[tuple[str, tuple[int, ...], Union[int, None]]]


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
        circ = cls(qubits)
        for kind, coords, slot in layout:
            circ.gate(kind, coords, None if slot is None else float(angles[slot]))
        return circ

    def add(self, op: CircuitOp) -> "Circuit":
        if isinstance(op, Measure):
            if max(op.qubits) >= self.qubits:
                raise ValueError("measurement targets a qubit out of range")
            if max(op.clbits) >= self.clbits:
                raise ValueError("measurement writes a classical bit out of range")
        else:
            if max(op.coords) >= self.qubits:
                raise ValueError("gate coordinate out of range")
            if op.condition is not None and max(op.condition.bits) >= self.clbits:
                raise ValueError("condition references a classical bit out of range")
        self.ops.append(op)
        return self

    def gate(self, kind: str, coords: Sequence[int], angle: float | None = None,
             condition: Condition | None = None) -> "Circuit":
        return self.add(GateOp(kind, tuple(coords), angle, condition))

    def measure(self, qubits: Sequence[int], clbits: Sequence[int]) -> "Circuit":
        return self.add(Measure(tuple(qubits), tuple(clbits)))

    def extend(self, other: "Circuit") -> "Circuit":
        if other.qubits > self.qubits or other.clbits > self.clbits:
            raise ValueError("fragment does not fit this circuit")
        for op in other.ops:
            self.add(op)
        return self

    def gate_ops(self) -> list[GateOp]:
        return [op for op in self.ops if isinstance(op, GateOp)]

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
        """Check write-before-read on classical bits and qubit liveness."""
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

    @classmethod
    def from_amplitudes(cls, amps: Sequence[complex]) -> "StateVector":
        amps = np.asarray(amps, dtype=complex)
        q = int(np.log2(len(amps)))
        if 2**q != len(amps):
            raise ValueError("amplitude count must be a power of two")
        return cls(q, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclasses.dataclass
class DensityMatrix:
    qubits: int
    mat: np.ndarray

    @classmethod
    def zero(cls, qubits: int) -> "DensityMatrix":
        m = np.zeros((2**qubits, 2**qubits), dtype=complex)
        m[0, 0] = 1.0
        return cls(qubits, m)

    @classmethod
    def from_statevector(cls, state: StateVector) -> "DensityMatrix":
        return cls(state.qubits, np.outer(state.amps, state.amps.conj()))

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


def apply_unitary(amps: np.ndarray, u: np.ndarray, coords: Sequence[int], q: int) -> np.ndarray:
    """Apply a local unitary to the listed qubits of a 2^q amplitude array."""
    return _apply_stack(amps.reshape(1, 1, -1), u[None], coords, q).reshape(-1)


def _apply_stack(states: np.ndarray, mats: np.ndarray, coords: Sequence[int], q: int) -> np.ndarray:
    """apply_unitary over a (K, B, 2^q) stack of states; ``mats`` is
    (K, 2^m, 2^m), the gate for row k, or (1, 2^m, 2^m), shared."""
    lead = states.shape[:2]
    axes = [2 + a for a in _coord_axes(coords, q)]
    # gate axes right after the row axis: one matrix product per row
    perm = [0, *axes] + [a for a in range(1, 2 + q) if a not in axes]
    t = states.reshape(lead + (2,) * q).transpose(perm)
    moved = t.shape
    t = mats @ t.reshape(lead[0], 2 ** len(coords), -1)
    return t.reshape(moved).transpose(np.argsort(perm)).reshape(lead + (2**q,))


def apply_layout(states: np.ndarray, layout: Layout, angles: np.ndarray, q: int) -> np.ndarray:
    """Run a fixed-structure fragment on a (K, B, 2^q) stack of states.

    Row k of ``angles`` (K, slots) drives the gates applied to states[k].
    """
    for kind, coords, slot in layout:
        if slot is None:
            mats = gate_matrix(kind, qubits=len(coords))[None]
        else:
            mats = _rotation_stack(kind, angles[:, slot], len(coords))
        states = _apply_stack(states, mats, coords, q)
    return states


def layout_unitaries(layout: Layout, angles: np.ndarray, q: int) -> np.ndarray:
    """Unitaries (K, 2^q, 2^q) of a fixed-structure fragment, one per
    row of ``angles``."""
    dim = 2**q
    basis = np.broadcast_to(np.eye(dim, dtype=complex), (len(angles), dim, dim))
    # row b of the evolved basis is U e_b, column b of U
    return apply_layout(basis, layout, angles, q).transpose(0, 2, 1)


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    if max(op.coords) >= state.qubits:
        raise ValueError("gate coordinate out of range")
    return StateVector(state.qubits, apply_unitary(state.amps, op.matrix(), op.coords, state.qubits))


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


def _project(state: StateVector, measured: Sequence[int], outcome: int) -> tuple[np.ndarray, float]:
    """Unnormalized projection of the full state onto a measurement outcome."""
    q = state.qubits
    t = state.amps.reshape((2,) * q).copy()
    for i, mq in enumerate(measured):
        bit = (outcome >> i) & 1
        idx = [slice(None)] * q
        idx[q - 1 - mq] = 1 - bit
        t[tuple(idx)] = 0.0
    flat = t.reshape(-1)
    prob = float(np.vdot(flat, flat).real)
    return flat, prob


def measure_subset(state: StateVector, measured: Sequence[int],
                   rng: np.random.Generator) -> tuple[int, StateVector, float]:
    """Sample an outcome; return it with the renormalized residual state.

    The residual lives on the unmeasured qubits, in ascending qubit order.
    """
    measured = tuple(measured)
    probs = outcome_probabilities(state, measured)
    outcome = int(rng.choice(len(probs), p=np.clip(probs, 0, None) / probs.sum()))
    flat, prob = _project(state, measured, outcome)
    assert prob > 0.0, "sampled a zero-probability branch"
    q = state.qubits
    keep = [k for k in range(q) if k not in measured]
    t = flat.reshape((2,) * q)
    index = [slice(None)] * q
    for i, mq in enumerate(measured):
        index[q - 1 - mq] = (outcome >> i) & 1
    residual = t[tuple(index)].reshape(-1)
    residual = residual / sqrt(prob)
    return outcome, StateVector(len(keep), residual), float(probs[outcome])


def expectation_z(state: StateVector | DensityMatrix, qubit: int) -> float:
    """⟨Z⟩ on one qubit: P(qubit=0) − P(qubit=1)."""
    if qubit >= state.qubits:
        raise ValueError("qubit index out of range")
    sign = 1.0 - 2.0 * ((np.arange(2**state.qubits) >> qubit) & 1)
    if isinstance(state, StateVector):
        return float(np.sum((np.abs(state.amps) ** 2) * sign))
    return float(np.sum(np.diagonal(state.mat).real * sign))


def apply_channel(rho: DensityMatrix, channel: NoiseChannel, qubit: int) -> DensityMatrix:
    if qubit >= rho.qubits:
        raise ValueError("qubit index out of range")
    out = np.zeros_like(rho.mat)
    for k in channel.kraus():
        kf = expand_matrix(k, (qubit,), rho.qubits)
        out += kf @ rho.mat @ kf.conj().T
    return DensityMatrix(rho.qubits, out)


# --- circuit execution -------------------------------------------------

@dataclasses.dataclass
class RunResult:
    """Final state plus the classical record of a circuit run.

    ``bits`` is a tuple of bit values in pure/trajectory mode and a
    {bit-pattern: probability} dict in density mode.  One entry of
    ``measurement_probs`` is recorded per measurement marker, in order:
    the exact pre-measurement outcome distribution (density/pure modes)
    or the empirical outcome frequencies (trajectory mode).
    """

    state: StateVector | DensityMatrix
    bits: tuple[int, ...] | dict[tuple[int, ...], float]
    measurement_probs: list[np.ndarray]


def _moment_groups(ops: Sequence[CircuitOp]):
    """Split an op sequence into layers for noise placement.

    Yields ("gates", [GateOp...]) for maximal runs of unconditioned gates
    on disjoint qubits, ("cond", GateOp) for conditioned gates (their own
    moment), and ("measure", Measure) markers.
    """
    group: list[GateOp] = []
    used: set[int] = set()

    def flush():
        nonlocal group, used
        if group:
            yield ("gates", group)
        group, used = [], set()

    for op in ops:
        if isinstance(op, Measure):
            yield from flush()
            yield ("measure", op)
        elif op.condition is not None:
            yield from flush()
            yield ("cond", op)
        else:
            if used & set(op.coords):
                yield from flush()
            group.append(op)
            used |= set(op.coords)
    yield from flush()


def _noise_kraus_full(noise: Sequence[NoiseChannel], qubit: int, q: int,
                      cache: dict) -> list[list[np.ndarray]]:
    key = qubit
    if key not in cache:
        cache[key] = [[expand_matrix(k, (qubit,), q) for k in ch.kraus()] for ch in noise]
    return cache[key]


def _run_pure(circuit: Circuit, rng: np.random.Generator | None) -> RunResult:
    state = StateVector.zero(circuit.qubits)
    bits = [0] * circuit.clbits
    probs_record: list[np.ndarray] = []
    for op in circuit.ops:
        if isinstance(op, Measure):
            if rng is None:
                raise ValueError("pure mode with measurements needs an rng")
            probs = outcome_probabilities(state, op.qubits)
            probs_record.append(probs)
            outcome = int(rng.choice(len(probs), p=np.clip(probs, 0, None) / probs.sum()))
            flat, prob = _project(state, op.qubits, outcome)
            assert prob > 0.0
            state = StateVector(circuit.qubits, flat / sqrt(prob))
            for i, cb in enumerate(op.clbits):
                bits[cb] = (outcome >> i) & 1
        else:
            if op.condition is not None and not op.condition.holds(bits):
                continue
            state = apply_gate(state, op)
    return RunResult(state, tuple(bits), probs_record)


def _apply_noise_density(branches: dict, keys, qubits: set[int], noise, q, cache) -> None:
    """Apply every channel to every touched qubit, on the listed branches."""
    for qubit in sorted(qubits):
        for kraus_full in _noise_kraus_full(noise, qubit, q, cache):
            for key in keys:
                rho = branches[key]
                branches[key] = sum(k @ rho @ k.conj().T for k in kraus_full)


def _run_density(circuit: Circuit, noise: Sequence[NoiseChannel]) -> RunResult:
    q = circuit.qubits
    dim = 2**q
    cache: dict = {}
    # branch key = classical bit pattern; values are unnormalized densities
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    branches: dict[tuple[int, ...], np.ndarray] = {(0,) * circuit.clbits: rho0}
    probs_record: list[np.ndarray] = []

    for kind, item in _moment_groups(circuit.ops):
        if kind == "gates":
            touched: set[int] = set()
            for op in item:
                u = expand_matrix(op.matrix(), op.coords, q)
                for key in branches:
                    branches[key] = u @ branches[key] @ u.conj().T
                touched |= set(op.coords)
            if noise:
                _apply_noise_density(branches, list(branches), touched, noise, q, cache)
        elif kind == "cond":
            op = item
            u = expand_matrix(op.matrix(), op.coords, q)
            selected = [key for key in branches if op.condition.holds(key)]
            for key in selected:
                branches[key] = u @ branches[key] @ u.conj().T
            if noise and selected:
                _apply_noise_density(branches, selected, set(op.coords), noise, q, cache)
        elif kind == "measure":
            m = len(item.qubits)
            agg = np.zeros(2**m)
            new_branches: dict[tuple[int, ...], np.ndarray] = {}
            masks = _measurement_masks(item.qubits, q)
            for key, rho in branches.items():
                for outcome in range(2**m):
                    mask = masks[outcome]
                    sub = rho * np.outer(mask, mask)
                    w = float(np.trace(sub).real)
                    agg[outcome] += w
                    if w <= 1e-15:
                        continue
                    newkey = list(key)
                    for i, cb in enumerate(item.clbits):
                        newkey[cb] = (outcome >> i) & 1
                    newkey = tuple(newkey)
                    if newkey in new_branches:
                        new_branches[newkey] = new_branches[newkey] + sub
                    else:
                        new_branches[newkey] = sub
            branches = new_branches
            probs_record.append(agg)

    total = sum(branches.values())
    weights = {key: float(np.trace(rho).real) for key, rho in branches.items()}
    return RunResult(DensityMatrix(q, total), weights, probs_record)


def _measurement_masks(qubits: Sequence[int], q: int) -> list[np.ndarray]:
    idx = np.arange(2**q)
    masks = []
    for outcome in range(2 ** len(qubits)):
        m = np.ones(2**q, dtype=bool)
        for i, mq in enumerate(qubits):
            m &= ((idx >> mq) & 1) == ((outcome >> i) & 1)
        masks.append(m.astype(float))
    return masks


def _run_one_trajectory(circuit: Circuit, noise: Sequence[NoiseChannel],
                        rng: np.random.Generator,
                        records: list[list[int]]) -> tuple[StateVector, tuple[int, ...]]:
    state = StateVector.zero(circuit.qubits)
    bits = [0] * circuit.clbits
    marker = 0

    def sample_noise(touched: set[int]):
        nonlocal state
        for qubit in sorted(touched):
            for ch in noise:
                kraus = ch.kraus()
                amps = [apply_unitary(state.amps, k, (qubit,), circuit.qubits) for k in kraus]
                weights = np.array([float(np.vdot(a, a).real) for a in amps])
                pick = int(rng.choice(len(kraus), p=weights / weights.sum()))
                state = StateVector(circuit.qubits, amps[pick] / sqrt(weights[pick]))

    for kind, item in _moment_groups(circuit.ops):
        if kind == "gates":
            for op in item:
                state = apply_gate(state, op)
            sample_noise({c for op in item for c in op.coords})
        elif kind == "cond":
            if item.condition.holds(bits):
                state = apply_gate(state, item)
                sample_noise(set(item.coords))
        else:
            probs = outcome_probabilities(state, item.qubits)
            outcome = int(rng.choice(len(probs), p=np.clip(probs, 0, None) / probs.sum()))
            records[marker].append(outcome)
            marker += 1
            flat, prob = _project(state, item.qubits, outcome)
            state = StateVector(circuit.qubits, flat / sqrt(prob))
            for i, cb in enumerate(item.clbits):
                bits[cb] = (outcome >> i) & 1
    return state, tuple(bits)


def _run_trajectories(circuit: Circuit, noise, rng, count: int) -> RunResult:
    if rng is None:
        raise ValueError("trajectory mode needs an rng")
    if count < 1:
        raise ValueError("trajectory count must be positive")
    dim = 2**circuit.qubits
    acc = np.zeros((dim, dim), dtype=complex)
    n_markers = sum(1 for op in circuit.ops if isinstance(op, Measure))
    records: list[list[int]] = [[] for _ in range(n_markers)]
    bit_counts: dict[tuple[int, ...], int] = {}
    for _ in range(count):
        state, bits = _run_one_trajectory(circuit, noise, rng, records)
        acc += np.outer(state.amps, state.amps.conj())
        bit_counts[bits] = bit_counts.get(bits, 0) + 1
    probs_record = []
    for i, rec in enumerate(records):
        marker = [op for op in circuit.ops if isinstance(op, Measure)][i]
        freq = np.bincount(rec, minlength=2 ** len(marker.qubits)) / count
        probs_record.append(freq)
    weights = {key: c / count for key, c in bit_counts.items()}
    return RunResult(DensityMatrix(circuit.qubits, acc / count), weights, probs_record)


def run_circuit(circuit: Circuit, mode: str = "pure",
                noise: NoiseChannel | Sequence[NoiseChannel] | None = None,
                rng: np.random.Generator | None = None,
                trajectories: int | None = None) -> RunResult:
    """Execute a circuit from |0...0⟩.

    Modes: "pure" (statevector; mid-circuit measurements sampled with
    ``rng``), "density" (exact, branch-resolved over classical outcomes;
    ``noise`` applied to every qubit touched in a moment, after that
    moment), "trajectories" (``trajectories`` stochastic pure-state runs
    averaged into a density matrix).
    """
    circuit.validate()
    if isinstance(noise, NoiseChannel):
        noise = (noise,)
    noise = tuple(noise) if noise else ()
    if mode == "pure":
        if noise:
            raise ValueError("pure mode cannot carry noise; use density or trajectories")
        return _run_pure(circuit, rng)
    if mode == "density":
        return _run_density(circuit, noise)
    if mode == "trajectories":
        return _run_trajectories(circuit, noise, rng, trajectories or 0)
    raise ValueError(f"unknown mode {mode!r}")
