"""The full two-register kernel self-attention classifier.

Register 1 (qubits 0..n-1) runs the kernel-estimation fragment
U_φ†(w_j) U†(θ2) U(θ1) U_φ(w_i); the all-zeros outcome probability p₀ of
measuring it is the self-attention score.  Register 2 (qubits n..2n-1)
prepares the value state U(θ3) U_φ(w_j)|0⟩.  The link applies RY(θ4) to
register 2 conditioned on register 1 collapsing to |0...0⟩, and the
classifier output is the Z expectation of the last qubit.

Because every gate and noise channel before the link is local to one
register, the two registers stay in a product state until the
measurement, and the output decomposes exactly into the two classical
branches:

    E = p₀ · ⟨Z⟩(linked register-2 state) + (1 − p₀) · ⟨Z⟩(bare state)

``BatchEvaluator`` evaluates that closed form for a batch of pairs.  In
analytic mode it is plain linear algebra on per-register states: with
φ = U_φ(w)|0⟩ and A = U(θ2)†U(θ1), the register-1 distribution is
|U_φ(w_j)† A φ_i|², and the register-2 readouts are ⟨Z⟩ of U(θ3)φ_j with
and without the link; it is batched over stacks of parameter sets.  The
literal link entangles the registers, so its 2n-qubit gates act on the
joint product state.  Density mode evolves per-register density
matrices gate by gate with the noise channels.  The equivalence with a
full conditional-circuit simulation is exercised by the test suite.
Shots mode samples the exact branch-resolved full-circuit distribution.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import ansatz as _ansatz
from . import encoding as _encoding
from . import sim as _sim
from .ansatz import ParamSet
from .sim import Circuit, NoiseChannel

VARIANTS = ("AmHE", "AnHE", "AmQAOA", "AnQAOA")
_ENCODER_TAG = {"Am": "amplitude", "An": "angle"}
_ANSATZ_TAG = {"HE": "hea", "QAOA": "qaoa"}
EXECUTION_MODES = ("analytic", "shots", "density")


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    n: int = 2
    encoder: str = "amplitude"
    ansatz: str = "hea"
    link_mode: str = "all-zeros-canonical"
    execution: str = "analytic"
    shots: int = 0
    noise: tuple[NoiseChannel, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit per register")
        if self.encoder not in _encoding.ENCODER_KINDS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.ansatz not in _ansatz.ANSATZ_KINDS:
            raise ValueError(f"unknown ansatz {self.ansatz!r}")
        if self.link_mode not in _ansatz.LINK_MODES:
            raise ValueError(f"unknown link mode {self.link_mode!r}")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.execution == "shots" and self.shots < 1:
            raise ValueError("shots mode needs a positive shot count")
        if self.noise and self.execution != "density":
            raise ValueError("noise channels require density execution")

    @property
    def variant(self) -> str:
        enc = "Am" if self.encoder == "amplitude" else "An"
        anz = "HE" if self.ansatz == "hea" else "QAOA"
        return enc + anz

    @classmethod
    def from_variant(cls, variant: str, **kwargs) -> "ModelConfig":
        for tag_e, enc in _ENCODER_TAG.items():
            for tag_a, anz in _ANSATZ_TAG.items():
                if variant == tag_e + tag_a:
                    return cls(encoder=enc, ansatz=anz, **kwargs)
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")

    @property
    def total_qubits(self) -> int:
        return 2 * self.n

    @property
    def feature_dim(self) -> int:
        return _encoding.feature_capacity(self.encoder, self.n)

    @property
    def parameter_count(self) -> int:
        return 6 * self.n + _ansatz.link_slot_count(self.link_mode, self.n)

    def random_params(self, rng: np.random.Generator) -> ParamSet:
        return ParamSet.random(self.n, self.link_mode, rng)


@dataclasses.dataclass
class QksasRecord:
    """Register-1 outcome distribution for one (w_i, w_j) pair; the
    ground-state entry p₀ is the self-attention score."""

    distribution: np.ndarray
    pair: tuple[np.ndarray, np.ndarray]

    @property
    def p0(self) -> float:
        return float(self.distribution[0])

    def grid(self) -> np.ndarray:
        """Distribution reshaped to a 2^⌈n/2⌉ × 2^⌊n/2⌋ heatmap grid."""
        n = int(np.log2(self.distribution.size))
        rows = 2 ** ((n + 1) // 2)
        return self.distribution.reshape(rows, -1)


# --- circuit assembly ---------------------------------------------------

def build_register1(w_i, w_j, theta1, theta2, config: ModelConfig) -> Circuit:
    """Kernel fragment on qubits 0..n-1: U_φ†(w_j) U†(θ2) U(θ1) U_φ(w_i)."""
    n = config.n
    circ = Circuit(n)
    circ.extend(_encoding.encode(config.encoder, w_i, n))
    circ.extend(_ansatz.build_ansatz(config.ansatz, n, theta1))
    circ.extend(_ansatz.build_ansatz(config.ansatz, n, theta2).adjoint())
    circ.extend(_encoding.encode(config.encoder, w_j, n).adjoint())
    return circ


def build_register2(w_j, theta3, config: ModelConfig) -> Circuit:
    """Value-state fragment on its own n qubits: U(θ3) U_φ(w_j)."""
    n = config.n
    circ = Circuit(n)
    circ.extend(_encoding.encode(config.encoder, w_j, n))
    circ.extend(_ansatz.build_ansatz(config.ansatz, n, theta3))
    return circ


def build_full_circuit(w_i, w_j, params: ParamSet, config: ModelConfig,
                       form: str = "conditional", final_measure: bool = False) -> Circuit:
    """The complete 2n-qubit circuit.

    ``form`` selects how the link is realized for the canonical mode:
    "conditional" measures register 1 mid-circuit and classically
    conditions the link, "deferred" keeps everything unitary via
    open-controlled RY.  Literal link mode is always unitary.
    ``final_measure`` appends a measurement of the last qubit into
    classical bit n.
    """
    n = config.n
    clbits = n + 1 if final_measure else n
    circ = Circuit(2 * n, clbits=clbits)
    circ.extend(build_register1(w_i, w_j, params.theta1, params.theta2, config))
    circ.extend(build_register2(w_j, params.theta3, config).shifted(n, 2 * n, clbits))

    if config.link_mode == "per-qubit-literal":
        circ.extend(build_link_fragment(params.theta4, config, "unitary"))
        if final_measure:
            circ.measure((2 * n - 1,), (n,))
        return circ

    if form == "conditional":
        circ.measure(tuple(range(n)), tuple(range(n)))
        circ.extend(build_link_fragment(params.theta4, config, "conditional"))
    elif form == "deferred":
        circ.extend(build_link_fragment(params.theta4, config, "deferred"))
        if final_measure:
            # outcomes are read at the end under the deferred form
            circ.measure(tuple(range(n)), tuple(range(n)))
    else:
        raise ValueError(f"unknown circuit form {form!r}")
    if final_measure:
        circ.measure((2 * n - 1,), (n,))
    return circ


def build_link_fragment(theta4, config: ModelConfig, form: str) -> Circuit:
    if config.link_mode == "per-qubit-literal":
        return _ansatz.build_link(config.link_mode, config.n, theta4)
    if form == "unitary":
        form = "deferred"
    return _ansatz.build_link(config.link_mode, config.n, theta4, form=form)


# --- batch evaluation ----------------------------------------------------

@dataclasses.dataclass
class _CompiledOp:
    mats: np.ndarray          # (D, D) shared or (N, D, D) per-sample
    qubits: tuple[int, ...]
    moment: int


def _assign_moments(ops: Sequence[_sim.GateOp], start: int = 0) -> list[int]:
    moments = []
    used: set[int] = set()
    current = start
    for op in ops:
        if used & set(op.coords):
            current += 1
            used = set()
        moments.append(current)
        used |= set(op.coords)
    return moments


def compile_fragment(circ: Circuit, moment_start: int = 0) -> tuple[list[_CompiledOp], int]:
    """Expand a unitary fragment to full-space matrices with moment tags."""
    ops = circ.ops
    if any(not isinstance(op, _sim.GateOp) or op.condition is not None for op in ops):
        raise ValueError("only unconditioned unitary fragments can be compiled")
    moments = _assign_moments(ops, moment_start)
    compiled = [
        _CompiledOp(_sim.expand_matrix(op.matrix(), op.coords, circ.qubits), op.coords, m)
        for op, m in zip(ops, moments)
    ]
    next_moment = (moments[-1] + 1) if moments else moment_start
    return compiled, next_moment


def stack_fragments(circuits: Sequence[Circuit], moment_start: int = 0) -> tuple[list[_CompiledOp], int]:
    """Compile structurally identical per-sample fragments into batched ops."""
    first, next_moment = compile_fragment(circuits[0], moment_start)
    stacks = [[op.mats] for op in first]
    for circ in circuits[1:]:
        other, _ = compile_fragment(circ, moment_start)
        if len(other) != len(first) or any(
                a.qubits != b.qubits for a, b in zip(first, other)):
            raise ValueError("encoder fragments differ in structure across samples")
        for s, op in zip(stacks, other):
            s.append(op.mats)
    compiled = [
        _CompiledOp(np.stack(s), op.qubits, op.moment) for s, op in zip(stacks, first)
    ]
    return compiled, next_moment


def _op_mats(op: _CompiledOp, idx) -> np.ndarray:
    if op.mats.ndim == 2 or idx is None:
        return op.mats
    return op.mats[idx]


def _evolve_density(rho: np.ndarray, ops: Sequence[_CompiledOp], idx,
                    noise: Sequence[NoiseChannel], q: int,
                    kraus_cache: dict) -> np.ndarray:
    """Apply compiled ops with one noise application per touched qubit
    per moment, after the moment.  Moment tags are compared only within
    one call, so a fragment's tags may start anywhere."""
    pending: set[int] = set()
    pending_moment = None

    def flush():
        nonlocal rho, pending
        for qubit in sorted(pending):
            key = qubit
            if key not in kraus_cache:
                kraus_cache[key] = [
                    [_sim.expand_matrix(k, (qubit,), q) for k in ch.kraus()] for ch in noise
                ]
            for kraus_full in kraus_cache[key]:
                rho = sum(k @ rho @ k.conj().T for k in kraus_full)
        pending = set()

    for op in ops:
        if noise and pending_moment is not None and op.moment != pending_moment:
            flush()
        pending_moment = op.moment
        m = _op_mats(op, idx)
        if m.ndim == 2:
            rho = m @ rho @ m.conj().T
        else:
            rho = np.einsum("bij,bjk,blk->bil", m, rho, m.conj())
        pending |= set(op.qubits)
    if noise:
        flush()
    return rho


def _z_sign(q: int, qubit: int) -> np.ndarray:
    return 1.0 - 2.0 * ((np.arange(2**q) >> qubit) & 1)


def _adjoint(u: np.ndarray) -> np.ndarray:
    return u.conj().transpose(0, 2, 1)


class BatchEvaluator:
    """Forward evaluation over a fixed set of (w_i, w_j) pairs.

    Analytic mode encodes every sample once at construction, as the
    unitary U_φ(w) built for all samples in one batched call; it keeps
    φ_i, φ_j and U_φ(w_j)†.  A call then builds the ansatz unitaries for a
    stack of parameter sets and evaluates the closed form for all of them
    at once (``evaluate_stack``), which is how a gradient evaluates its
    2P+1 shifted parameter sets.  Density mode compiles the per-sample
    encoder fragments once at construction and evolves density matrices
    gate by gate, one parameter set at a time.
    """

    def __init__(self, wi, wj, config: ModelConfig):
        if config.execution == "shots":
            raise ValueError("BatchEvaluator supports analytic and density modes")
        self.config = config
        n = config.n
        wi = np.atleast_2d(np.asarray(wi, dtype=float))
        wj = np.atleast_2d(np.asarray(wj, dtype=float))
        if wi.shape != wj.shape:
            raise ValueError("w_i and w_j batches must have matching shapes")
        self.count = wi.shape[0]
        self._dim = 2**n
        self._z_last = _z_sign(n, n - 1)
        enc = config.encoder
        if config.execution == "analytic":
            angles = _encoding.encoder_angles(enc, np.vstack([wi, wj]), n)
            u_enc = _sim.layout_unitaries(_encoding.encoder_layout(enc, n), angles, n)
            self._phi_i = u_enc[: self.count, :, 0]
            self._phi_j = u_enc[self.count:, :, 0]
            self._v_j = _adjoint(u_enc[self.count:])
            self._ansatz = _ansatz.ansatz_layout(config.ansatz, n)
            self._link = _ansatz.link_layout(config.link_mode, n)
            return
        enc_i = [_encoding.encode(enc, w, n) for w in wi]
        enc_j = [_encoding.encode(enc, w, n) for w in wj]
        self._enc_i, self._reg1_mid_start = stack_fragments(enc_i)
        self._enc_j, self._reg2_mid_start = stack_fragments(enc_j)
        self._enc_j_adj, _ = stack_fragments([c.adjoint() for c in enc_j])
        self._kraus_cache: dict = {}

    def evaluate(self, params: ParamSet, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """Return (E, register-1 outcome distributions) for the batch
        (or the sub-batch selected by ``idx``)."""
        if self.config.execution == "density":
            return self._evaluate_density(params, idx)
        e_val, probs = self.evaluate_stack(params.to_vector()[None], idx)
        return e_val[0], probs[0]

    def evaluate_stack(self, thetas, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` at K flattened parameter vectors (rows of
        ``thetas``): E is (K, batch) and the distributions (K, batch, 2^n)."""
        cfg = self.config
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != cfg.parameter_count:
            raise ValueError(f"expected rows of {cfg.parameter_count} parameters, "
                             f"got shape {thetas.shape}")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("parameters must be finite")
        if cfg.execution == "analytic":
            return self._evaluate_analytic(thetas, idx)
        rows = [self.evaluate(ParamSet.from_vector(t, cfg.n, cfg.link_mode), idx)
                for t in thetas]
        return np.stack([e for e, _ in rows]), np.stack([p for _, p in rows])

    def _evaluate_analytic(self, thetas: np.ndarray, idx) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        n = cfg.n
        phi_i, phi_j, v_j = self._phi_i, self._phi_j, self._v_j
        if idx is not None:
            phi_i, phi_j, v_j = phi_i[idx], phi_j[idx], v_j[idx]
        t1, t2, t3, t4 = np.split(thetas, [2 * n, 4 * n, 6 * n], axis=1)
        u1, u2, u3 = (_sim.layout_unitaries(self._ansatz, t, n) for t in (t1, t2, t3))
        a = _adjoint(u2) @ u1
        # (K, batch, dim): A φ_i, then U_φ(w_j)† of each sample
        psi1 = np.einsum("bij,kbj->kbi", v_j, phi_i @ a.transpose(0, 2, 1))
        probs = np.abs(psi1) ** 2
        psi2 = phi_j @ u3.transpose(0, 2, 1)

        if cfg.link_mode == "per-qubit-literal":
            # joint index = i1 + dim·i2 (register 1 in the low bits)
            joint = np.einsum("kbi,kbj->kbij", psi2, psi1).reshape(psi1.shape[:2] + (-1,))
            joint = _sim.apply_layout(joint, self._link, t4, 2 * n)
            return (np.abs(joint) ** 2) @ _z_sign(2 * n, 2 * n - 1), probs

        linked = phi_j @ (_sim.layout_unitaries(self._link, t4, n) @ u3).transpose(0, 2, 1)
        z_bare = (np.abs(psi2) ** 2) @ self._z_last
        z_link = (np.abs(linked) ** 2) @ self._z_last
        p0 = probs[..., 0]
        return p0 * z_link + (1.0 - p0) * z_bare, probs

    def _evaluate_density(self, params: ParamSet, idx) -> tuple[np.ndarray, np.ndarray]:
        cfg = self.config
        n, dim = cfg.n, self._dim
        count = self.count if idx is None else len(idx)
        noise, cache = cfg.noise, self._kraus_cache
        mid = Circuit(n)
        mid.extend(_ansatz.build_ansatz(cfg.ansatz, n, params.theta1))
        mid.extend(_ansatz.build_ansatz(cfg.ansatz, n, params.theta2).adjoint())
        mid_ops, _ = compile_fragment(mid, self._reg1_mid_start)
        reg2_theta, reg2_next = compile_fragment(
            _ansatz.build_ansatz(cfg.ansatz, n, params.theta3), self._reg2_mid_start)

        rho = np.zeros((count, dim, dim), dtype=complex)
        rho[:, 0, 0] = 1.0
        rho1 = _evolve_density(rho.copy(), self._enc_i, idx, noise, n, cache)
        rho1 = _evolve_density(rho1, mid_ops, idx, noise, n, cache)
        rho1 = _evolve_density(rho1, self._enc_j_adj, idx, noise, n, cache)
        probs = np.diagonal(rho1, axis1=1, axis2=2).real.copy()
        rho2 = _evolve_density(rho.copy(), self._enc_j, idx, noise, n, cache)
        rho2 = _evolve_density(rho2, reg2_theta, idx, noise, n, cache)

        if cfg.link_mode == "per-qubit-literal":
            link_circ = _ansatz.build_link(cfg.link_mode, n, params.theta4)
            link_ops, _ = compile_fragment(link_circ, max(self._reg1_mid_start, reg2_next))
            full = np.einsum("bik,bjl->bijkl", rho2, rho1).reshape(
                count, dim * dim, dim * dim)
            full = _evolve_density(full, link_ops, idx, noise, 2 * n, {})
            e_val = np.diagonal(full, axis1=1, axis2=2).real @ _z_sign(2 * n, 2 * n - 1)
            return e_val, probs

        link_ops, _ = compile_fragment(
            _ansatz.link_local_ops(cfg.link_mode, n, params.theta4), reg2_next)
        rho2_linked = _evolve_density(rho2.copy(), link_ops, idx, noise, n, cache)
        z_bare = np.diagonal(rho2, axis1=1, axis2=2).real @ self._z_last
        z_link = np.diagonal(rho2_linked, axis1=1, axis2=2).real @ self._z_last
        p0 = probs[:, 0]
        return p0 * z_link + (1.0 - p0) * z_bare, probs


# --- single-pair operations ----------------------------------------------

def qksas(w_i, w_j, theta1, theta2, config: ModelConfig) -> QksasRecord:
    """Register-1 outcome distribution via direct circuit simulation."""
    circ = build_register1(w_i, w_j, theta1, theta2, config)
    if config.execution == "density":
        result = _sim.run_circuit(circ, "density", noise=config.noise)
        dist = np.diagonal(result.state.mat).real.copy()
    else:
        result = _sim.run_circuit(circ, "pure")
        dist = _sim.outcome_probabilities(result.state, tuple(range(config.n)))
    w_i = np.asarray(w_i, dtype=float)
    w_j = np.asarray(w_j, dtype=float)
    return QksasRecord(dist, (w_i, w_j))


def forward(w_i, w_j, params: ParamSet, config: ModelConfig,
            rng: np.random.Generator | None = None) -> tuple[float, QksasRecord]:
    """Classifier expectation E ∈ [−1, 1] plus the attention record."""
    record = qksas(w_i, w_j, params.theta1, params.theta2, config)
    if config.execution in ("analytic", "density"):
        evaluator = BatchEvaluator([w_i], [w_j], config)
        e_val, _ = evaluator.evaluate(params)
        return float(e_val[0]), record
    # shots: sample the exact joint distribution of the conditional circuit
    if rng is None:
        raise ValueError("shots mode needs an rng")
    circ = build_full_circuit(w_i, w_j, params, config,
                              form="conditional", final_measure=True)
    result = _sim.run_circuit(circ, "density")
    patterns = list(result.bits)
    weights = np.array([result.bits[p] for p in patterns])
    weights = np.clip(weights, 0, None)
    draws = rng.choice(len(patterns), size=config.shots, p=weights / weights.sum())
    z_values = np.array([1.0 - 2.0 * patterns[k][config.n] for k in draws])
    return float(z_values.mean()), record


def predict(e_value: float) -> int:
    """Sign of the expectation; the tie E = 0 maps to +1."""
    if not np.isfinite(e_value):
        raise ValueError("expectation must be finite")
    return -1 if e_value < 0 else 1
