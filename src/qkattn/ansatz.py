"""Trainable circuit blocks and the conditional link between registers.

Two ansatz families are provided, each with 2n parameters on n qubits:

* qaoa: per qubit H then RY(θ_c), followed by a CNOT·RZ·CNOT ring;
* hea:  per qubit H then RZ(θ_c), followed by a CRY ring.

The ring wraps: entangler c couples qubit c to c+1, and the last one to
qubit 0.  At n = 1 the ring degenerates to self-loops; ill-defined
self-loop gates are dropped (the qaoa RZ survives since it is a plain
single-qubit rotation).

The link block couples register 1 (qubits 0..n-1) to register 2
(qubits n..2n-1).  Canonical mode conditions on register 1 measuring
all-zeros and applies RY(θ4_c) to each register-2 qubit, either as a
classically conditioned fragment or as its deferred unitary equivalent
(open-controlled multi-controlled RY).  Literal mode is the unconditioned
per-qubit alternative: CRY(θ4_c)[c, c+n] then RX(θ4_{n+c})[c].
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .sim import Circuit, Condition

ANSATZ_KINDS = ("qaoa", "hea")
LINK_MODES = ("all-zeros-canonical", "per-qubit-literal")
LINK_FORMS = ("conditional", "deferred")


def check_params(theta, count: int) -> np.ndarray:
    """``theta`` as a flat array of ``count`` finite angles."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != count:
        raise ValueError(f"expected {count} parameters, got {theta.size}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameters must be finite")
    return theta


def _ring_partner(c: int, n: int) -> int:
    return c + 1 if c != n - 1 else 0


@functools.cache
def ansatz_layout(kind: str, n: int) -> tuple:
    """Gate structure of an ansatz; slot c takes θ_c."""
    if kind not in ANSATZ_KINDS:
        raise ValueError(f"unknown ansatz kind {kind!r}")
    axis = "RY" if kind == "qaoa" else "RZ"
    layout = []
    for c in range(n):
        layout += [("H", (c,), None), (axis, (c,), c)]
    for c in range(n):
        f = _ring_partner(c, n)
        if kind == "qaoa":
            cnot = [("CNOT", (c, f), None)] if f != c else []
            layout += cnot + [("RZ", (f,), n + c)] + cnot
        elif f != c:
            layout.append(("CRY", (c, f), n + c))
    return tuple(layout)


def build_ansatz(kind: str, n: int, theta) -> Circuit:
    layout = ansatz_layout(kind, n)
    return Circuit.from_layout(n, layout, check_params(theta, 2 * n))


def link_slot_count(mode: str, n: int) -> int:
    if mode == "all-zeros-canonical":
        return n
    if mode == "per-qubit-literal":
        return 2 * n
    raise ValueError(f"unknown link mode {mode!r}")


def build_link(mode: str, n: int, theta4, form: str = "conditional") -> Circuit:
    """Link fragment on 2n qubits (registers 1 and 2).

    Canonical mode supports form="conditional" (classically conditioned
    on register-1 bits 0..n-1 all reading 0) and form="deferred"
    (open-controlled RY on all register-1 qubits).  Literal mode is a
    pure unitary under either form.
    """
    theta4 = check_params(theta4, link_slot_count(mode, n))
    if form not in LINK_FORMS:
        raise ValueError(f"unknown link form {form!r}")
    if mode == "per-qubit-literal":
        circ = Circuit(2 * n)
        for c in range(n):
            circ.gate("CRY", (c, c + n), float(theta4[c]))
            circ.gate("RX", (c,), float(theta4[n + c]))
        return circ
    if form == "conditional":
        circ = Circuit(2 * n, clbits=n)
        cond = Condition.all_zero(range(n))
        for c in range(n):
            circ.gate("RY", (n + c,), float(theta4[c]), condition=cond)
        return circ
    circ = Circuit(2 * n)
    controls = tuple(range(n))
    for c in range(n):
        circ.gate("MCRY-open", controls + (n + c,), float(theta4[c]))
    return circ


@dataclasses.dataclass
class ParamSet:
    """The four trainable angle vectors: θ1, θ2, θ3 drive the ansatz
    blocks (2n slots each), θ4 drives the link."""

    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray
    theta4: np.ndarray

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3", "theta4"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(-1))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")

    @classmethod
    def random(cls, n: int, link_mode: str, rng: np.random.Generator) -> "ParamSet":
        def draw(k):
            return rng.uniform(0.0, 2.0 * np.pi, size=k)

        return cls(draw(2 * n), draw(2 * n), draw(2 * n),
                   draw(link_slot_count(link_mode, n)))

    @classmethod
    def zeros(cls, n: int, link_mode: str) -> "ParamSet":
        z = np.zeros(2 * n)
        return cls(z.copy(), z.copy(), z.copy(), np.zeros(link_slot_count(link_mode, n)))

    @property
    def count(self) -> int:
        return self.theta1.size + self.theta2.size + self.theta3.size + self.theta4.size

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.theta1, self.theta2, self.theta3, self.theta4])

    @classmethod
    def from_vector(cls, vec, n: int, link_mode: str) -> "ParamSet":
        vec = np.asarray(vec, dtype=float).reshape(-1)
        ln = link_slot_count(link_mode, n)
        if vec.size != 6 * n + ln:
            raise ValueError(f"expected {6 * n + ln} parameters, got {vec.size}")
        return cls(vec[: 2 * n], vec[2 * n: 4 * n], vec[4 * n: 6 * n], vec[6 * n:])

    def slot_names(self) -> list[str]:
        names = []
        for group in ("theta1", "theta2", "theta3", "theta4"):
            names += [f"{group}[{i}]" for i in range(getattr(self, group).size)]
        return names

