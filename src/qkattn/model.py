"""The full two-register kernel self-attention classifier.

Register 1 (qubits 0..n-1) runs the kernel-estimation fragment
U_φ†(w_j) U†(θ2) U(θ1) U_φ(w_i); the all-zeros outcome probability p₀ of
measuring it is the self-attention score.  Register 2 (qubits n..2n-1)
prepares the value state U(θ3) U_φ(w_j)|0⟩.  The link applies RY(θ4) to
register 2 conditioned on register 1 collapsing to |0...0⟩, and the
classifier output is the Z expectation of the last qubit.

Because every gate and noise channel before the link is local to one
register, the two registers stay in a product state until the link, and
the output decomposes exactly into two classical branches:

    E = fire · ⟨Z⟩(register 2 after the link fires) + (1 − fire) · ⟨Z⟩(idle)

Only the link gate on the readout qubit reaches E: every other link gate,
and the noise on every other qubit, pulls Z back to the identity, since
the adjoint of a trace-preserving channel is unital.  For the canonical
link that gate is RY(θ4_{n−1}), fired with probability p₀.  The literal
link's is CRY(θ4_{n−1})[n−1, 2n−1], block-diagonal in its control: the
same RY, fired when register 1's qubit n−1 reads 1, whose noise reaches
the readout on both branches.  So for either link E is
a + b·cos θ4_{n−1} + c·sin θ4_{n−1} and constant in the other θ4 slots.

``BatchEvaluator`` evaluates that closed form for a batch of pairs and
a stack of parameter sets at once.  In analytic mode it is plain linear
algebra on per-register states: with φ = U_φ(w)|0⟩ and A = U(θ2)†U(θ1),
the register-1 distribution is |U_φ(w_j)† A φ_i|², and the register-2
readouts are ⟨Z⟩ of U(θ3)φ_j with and without the link gate.  U(θ1),
U(θ2) and U(θ3) come from one stacked ``sim.layout_unitaries`` call, a
short product of the ansatz's cached full-space rotation factors.
Density mode is the same closed form on vectorised density matrices:
every fragment is a noisy channel in which each gate is followed by its
noise, on each of its qubits, as ``sim.run_circuit`` places it.  At
n ≤ 2 a fragment's channel is one product of the layout's cached
full-space superoperator factors; larger registers walk a per-gate plan
compiled once per layout, which fuses each gate on at most two qubits
with its noise into one local superoperator and applies a wider gate as
U and U* on its own row and column axes, then the noise per qubit.
Register 1 applies the channel of U†(θ2)U(θ1) to the noisy encoded ρ_i
and reads each outcome's projector carried back (Heisenberg picture)
through the channel of U_φ†(w_j); the register-2 readouts carry Z
backwards through the link gate and θ3 and read it on the noisy encoded
ρ_j.  The test suite checks both modes against the full circuit, whose
literal link is the real 2n-qubit unitary.

Shots mode evaluates the same analytic closed form and then estimates E
from ``shots`` readouts.  The readout is one ±1 bit whose mean is E, so
the mean of ``shots`` readouts is 2·Binomial(shots, (1 + E)/2)/shots − 1,
and ``forward`` draws it once.  The circuit-level functions below
(``build_register1``, ``build_full_circuit``, ``qksas``) build the same
model gate by gate for ``sim.run_circuit``, the reference that the tests
and the benchmark's oracle checks compare the evaluator against.
"""
from __future__ import annotations

import dataclasses
import numbers

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
# each register holds at most 2^n ≤ 16 amplitudes
MAX_QUBITS = 4


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
        for name in ("n", "shots"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name!r} must be an integer, got {value!r}")
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"'n' must be between 1 and {MAX_QUBITS} qubits per register, "
                             f"got {self.n}")
        if self.encoder not in _encoding.ENCODER_KINDS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.ansatz not in _ansatz.ANSATZ_KINDS:
            raise ValueError(f"unknown ansatz {self.ansatz!r}")
        if self.link_mode not in _ansatz.LINK_MODES:
            raise ValueError(f"unknown link mode {self.link_mode!r}")
        if self.execution not in EXECUTION_MODES:
            raise ValueError(f"unknown execution mode {self.execution!r}")
        if self.shots < 0:
            raise ValueError(f"'shots' must not be negative, got {self.shots}")
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
    open-controlled RY.  Literal link mode is unitary under either form.
    ``final_measure`` appends a measurement of the last qubit into
    classical bit n.
    """
    n = config.n
    clbits = n + 1 if final_measure else n
    circ = Circuit(2 * n, clbits=clbits)
    circ.extend(build_register1(w_i, w_j, params.theta1, params.theta2, config))
    circ.extend(build_register2(w_j, params.theta3, config).shifted(n, 2 * n, clbits))
    canonical = config.link_mode == "all-zeros-canonical"
    if canonical and form == "conditional":
        circ.measure(tuple(range(n)), tuple(range(n)))
    circ.extend(_ansatz.build_link(config.link_mode, n, params.theta4, form=form))
    if final_measure:
        if canonical and form == "deferred":
            # outcomes are read at the end under the deferred form
            circ.measure(tuple(range(n)), tuple(range(n)))
        circ.measure((2 * n - 1,), (n,))
    return circ


# --- batch evaluation ----------------------------------------------------

def _adjoint(u: np.ndarray) -> np.ndarray:
    return u.conj().transpose(0, 2, 1)


def _reversed_layout(layout, offset: int = 0) -> tuple:
    """``layout``'s gates in reverse order with slots moved up by
    ``offset``; run on negated angles it is the adjoint fragment (every
    unparameterized gate here is self-inverse)."""
    return tuple((kind, coords, None if slot is None else slot + offset)
                 for kind, coords, slot in reversed(layout))


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
    """The distinct rows of ``rows`` in first-seen order and each row's
    index among them; a stack of at most one row passes through."""
    if len(rows) < 2:
        return rows, slice(None)
    raw, width = rows.tobytes(), rows[0].nbytes
    labels: dict[bytes, int] = {}
    inverse = np.array([labels.setdefault(raw[at: at + width], len(labels))
                        for at in range(0, len(raw), width)])
    return np.frombuffer(b"".join(labels)).reshape(len(labels), -1), inverse


class BatchEvaluator:
    """Forward evaluation over a fixed set of (w_i, w_j) pairs.

    Every mode encodes every sample once at construction, in one batched
    call (a batch that pairs each sample with itself, as training does,
    encodes it once for both roles), and a call then evaluates the closed
    form for a stack of K parameter sets at once (``evaluate_stack``),
    which is how a gradient evaluates its 2P+1 shifted parameter sets;
    ``evaluate`` is the K = 1 case.  Each register runs once per distinct
    row of the slots it reads: register 1 per row of θ1 and θ2, register
    2 per row of θ3 and θ4_{n−1}, and E combines the two through the
    rows' indices among them.  So a gradient's shifts of θ3 or θ4 share
    the base row's distribution bit for bit, and E is exactly constant
    in the θ4 slots it does not read.
    Analytic mode, which also gives shots mode its exact E, keeps φ_i,
    φ_j and U_φ(w_j)† and per call builds U(θ1) and U(θ2) for the K1
    register-1 rows and U(θ3) for the K2 register-2 rows in one stacked
    ``sim.layout_unitaries`` call (2·K1 + K2 rows), each a product of the
    ansatz's cached full-space factors.  Density mode keeps the noisy
    encoded states ρ_i, ρ_j and, per sample, the 2^n register-1 outcome
    projectors pulled back through the noisy channel of U_φ(w_j)†; per
    call it applies the register-1 channel of U†(θ2)U(θ1) to ρ_i and
    carries the readout observable backwards through θ3 and the link gate
    (``sim.layout_channels``, ``sim.apply_noisy_layout``): at n ≤ 2 each
    fragment is one product of cached full-space superoperator factors,
    at n ≥ 3 the steps of its cached per-gate plan (a gate on at most two
    qubits fused with its noise, a wider one as U and U* on its own axes,
    then the noise) are applied one at a time, to the batch's states when
    they are fewer than the 4^n vec basis vectors, else once to that
    basis to build the channel.  The two
    links differ only in the register-1 outcomes on which the link fires
    and, in density mode, the noise of the idle readout.
    """

    def __init__(self, wi, wj, config: ModelConfig):
        self.config = config
        n = config.n
        wi = np.atleast_2d(np.asarray(wi, dtype=float))
        wj = np.atleast_2d(np.asarray(wj, dtype=float))
        if wi.shape != wj.shape:
            raise ValueError("w_i and w_j batches must have matching shapes")
        self.count = wi.shape[0]
        # bit n−1 of each basis index: the readout qubit in register 2, and
        # the literal CRY's control qubit in register 1
        bit = (np.arange(2**n) >> (n - 1)).astype(float)
        self._z_last = 1.0 - 2.0 * bit
        # 0/1 weights of the register-1 outcomes on which the link fires:
        # all zeros, or (literal) the control reading 1
        literal = config.link_mode == "per-qubit-literal"
        self._fire = bit if literal else np.eye(2**n)[0]
        self._ansatz = _ansatz.ansatz_layout(config.ansatz, n)
        # register 1 reads θ1 and θ2 (columns [0, 4n)); register 2 reads θ3
        # and θ4_{n−1}, the angle of the one link gate that reaches the
        # readout qubit n−1 (column 2n of the rows that it gets)
        self._read2 = np.append(np.arange(4 * n, 6 * n), 7 * n - 1)
        self._link = (("RY", (n - 1,), 0),)
        enc = config.encoder
        layout = _encoding.encoder_layout(enc, n)
        same = np.array_equal(wi, wj)
        angles = _encoding.encoder_angles(enc, wi if same else np.vstack([wi, wj]), n)
        at_j = 0 if same else self.count  # first row of the w_j encodings
        if config.execution != "density":
            u_enc = _sim.layout_unitaries(layout, angles, n)
            self._phi_i = u_enc[: self.count, :, 0]
            self._phi_j = u_enc[at_j:, :, 0]
            self._v_j = _adjoint(u_enc[at_j:])
            return
        noise = config.noise
        zero = np.zeros((len(angles), 1, 4**n), dtype=complex)
        zero[:, 0, 0] = 1.0
        rho = _sim.apply_noisy_layout(zero, layout, angles, n, noise)[:, 0]
        self._rho_i, self._rho_j = rho[: self.count], rho[at_j:]
        # the 2^n outcome projectors, vec(|o⟩⟨o|) = e_{o(2^n + 1)}, carried
        # back through the channel of U_φ†(w_j) and conjugated, so that
        # probs = p_j · vec(σ)
        proj = np.eye(4**n, dtype=complex)[:: 2**n + 1]
        proj = np.broadcast_to(proj, (self.count,) + proj.shape)
        self._p_j = _sim.apply_noisy_layout(proj, _reversed_layout(layout),
                                            -angles[at_j:], n, noise,
                                            adjoint=True).conj()
        # U(θ1) then U†(θ2), driven by the angle row [θ1, −θ2]
        self._mid = self._ansatz + _reversed_layout(self._ansatz, 2 * n)
        self._z_obs = np.diag(self._z_last).reshape(1, 1, -1).astype(complex)
        # the literal CRY's noise reaches the readout qubit on both
        # branches; the canonical link does nothing when it does not fire
        self._z_idle = self._z_obs
        if literal:
            self._z_idle = _sim.apply_noisy_layout(self._z_obs, self._link, np.zeros((1, 1)),
                                                   n, noise, adjoint=True)

    def evaluate(self, params: ParamSet, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """Return (E, register-1 outcome distributions) for the batch
        (or the sub-batch selected by ``idx``)."""
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
        rows1, at1 = _distinct_rows(thetas[:, : 4 * cfg.n])
        rows2, at2 = _distinct_rows(thetas[:, self._read2])
        if cfg.execution == "density":
            z_idle, z_fire, probs = self._evaluate_channels(rows1, rows2, idx)
        else:
            z_idle, z_fire, probs = self._evaluate_analytic(rows1, rows2, idx)
        fire = (probs @ self._fire)[at1]
        e_val = fire * z_fire[at2] + (1.0 - fire) * z_idle[at2]
        return e_val, probs[at1]

    def _evaluate_analytic(self, rows1: np.ndarray, rows2: np.ndarray,
                           idx) -> tuple[np.ndarray, ...]:
        """(z_idle, z_fire) at ``rows2`` of [θ3, θ4_{n−1}] and the
        distributions at ``rows1`` of [θ1, θ2]."""
        n = self.config.n
        phi_i, phi_j, v_j = self._phi_i, self._phi_j, self._v_j
        if idx is not None:
            phi_i, phi_j, v_j = phi_i[idx], phi_j[idx], v_j[idx]
        k = len(rows1)
        t1, t2 = rows1[:, : 2 * n], rows1[:, 2 * n:]
        t3, t4 = rows2[:, : 2 * n], rows2[:, 2 * n:]
        u = _sim.layout_unitaries(self._ansatz, np.vstack([t1, t2, t3]), n)
        u1, u2, u3 = u[:k], u[k: 2 * k], u[2 * k:]
        a = _adjoint(u2) @ u1
        # (K1, batch, dim): A φ_i, then U_φ(w_j)† of each sample
        psi1 = (v_j @ (phi_i @ a.transpose(0, 2, 1)).transpose(1, 2, 0)).transpose(2, 0, 1)
        probs = np.abs(psi1) ** 2
        psi2 = phi_j @ u3.transpose(0, 2, 1)
        fired = phi_j @ (_sim.layout_unitaries(self._link, t4, n) @ u3).transpose(0, 2, 1)
        return (np.abs(psi2) ** 2) @ self._z_last, (np.abs(fired) ** 2) @ self._z_last, probs

    def _evaluate_channels(self, rows1: np.ndarray, rows2: np.ndarray,
                           idx) -> tuple[np.ndarray, ...]:
        # vec(ρ)[c + dim·r] = ρ[r, c]: the diagonal is every (dim+1)-th
        # entry, and Tr(O·ρ) = vec(O)ᴴ vec(ρ) for Hermitian O
        cfg = self.config
        n, noise, dim = cfg.n, cfg.noise, 2**cfg.n
        rho_i, rho_j, p_j = self._rho_i, self._rho_j, self._p_j
        if idx is not None:
            rho_i, rho_j, p_j = rho_i[idx], rho_j[idx], p_j[idx]
        mid = np.hstack([rows1[:, : 2 * n], -rows1[:, 2 * n:]])
        # (K1, batch, 4^n): register 1 after U†(θ2)U(θ1).  With fewer
        # states than vec basis vectors, the gates act on the states;
        # otherwise the channel is built once and applied to them all.
        if len(rho_i) < dim * dim:
            sigma = _sim.apply_noisy_layout(np.broadcast_to(rho_i, (len(mid),) + rho_i.shape),
                                            self._mid, mid, n, noise)
        else:
            sigma = rho_i @ _sim.layout_channels(self._mid, mid, n, noise).transpose(0, 2, 1)
        probs = (p_j @ sigma.transpose(1, 2, 0)).transpose(2, 0, 1).real.copy()

        t3, t4 = rows2[:, : 2 * n], rows2[:, 2 * n:]
        z = np.broadcast_to(self._z_obs, (len(rows2), 1, dim * dim))
        fired = _sim.apply_noisy_layout(z, self._link, t4, n, noise, adjoint=True)
        idle = np.broadcast_to(self._z_idle, z.shape)
        obs = _sim.apply_noisy_layout(np.concatenate([idle, fired], axis=1),
                                      self._ansatz, t3, n, noise, adjoint=True)
        z_idle, z_fire = np.moveaxis((rho_j @ obs.conj().transpose(0, 2, 1)).real, 2, 0)
        return z_idle, z_fire, probs


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
    return QksasRecord(dist)


def forward(w_i, w_j, params: ParamSet, config: ModelConfig,
            rng: np.random.Generator | None = None) -> tuple[float, QksasRecord]:
    """Classifier expectation E ∈ [−1, 1] plus the attention record, from
    a one-pair ``BatchEvaluator``.  Shots mode returns the mean of
    ``config.shots`` ±1 readouts instead, drawn from ``rng`` as one
    binomial count of the readouts that read +1."""
    if config.execution == "shots" and rng is None:
        raise ValueError("shots mode needs an rng")
    e_val, probs = BatchEvaluator([w_i], [w_j], config).evaluate(params)
    e_val = float(e_val[0])
    if config.execution == "shots":
        plus = rng.binomial(config.shots, np.clip((1.0 + e_val) / 2.0, 0.0, 1.0))
        e_val = 2.0 * plus / config.shots - 1.0
    return e_val, QksasRecord(probs[0])


def predict(e_value: float) -> int:
    """Sign of the expectation; the tie E = 0 maps to +1."""
    if not np.isfinite(e_value):
        raise ValueError("expectation must be finite")
    return -1 if e_value < 0 else 1
