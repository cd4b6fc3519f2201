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
a + b·cos θ4_{n−1} + c·sin θ4_{n−1} and constant in the other θ4 slots:
carried back through that gate and its noise, Z becomes the observable
B + cos θ·C + sin θ·S at θ = θ4_{n−1}.  These and the observable read
when the link does not fire, [idle, B, C, S], depend only on n, the
link and the noise, and are built once (``_link_readouts``).

``BatchEvaluator`` evaluates that closed form for a batch of pairs and
a stack of parameter sets at once.  In analytic mode it is plain linear
algebra on per-register states: with φ = U_φ(w)|0⟩ and A = U(θ2)†U(θ1),
the register-1 distribution is |U_φ(w_j)† A φ_i|², and register 2 reads
⟨ψ|O|ψ⟩ of the four readouts O on ψ = U(θ3)φ_j, as combinations of
the Z readouts of the link gate's three fixed rotations of ψ
(``_readout_bases``).  U(θ1), U(θ2) and U(θ3) come from one stacked
``sim.layout_unitaries`` call, a short product of the ansatz's cached
full-space rotation factors.
Density mode is the same closed form on vectorised density matrices:
every fragment is a noisy channel in which each gate is followed by its
noise, on each of its qubits, as ``sim.run_circuit`` places it
(``sim.apply_noisy_layout``).  Register 1 applies the channel of
U†(θ2)U(θ1) to the noisy encoded ρ_i and reads each outcome's projector
carried back (Heisenberg picture) through the channel of U_φ†(w_j);
register 2 carries the four readouts backwards through the channel of
U(θ3) and reads them on the noisy encoded ρ_j.  Either way the link
angle enters only when E is combined, as cos θ4_{n−1} and sin θ4_{n−1};
no fragment is simulated for it.  The test suite checks both modes
against the full circuit, whose literal link is the real 2n-qubit unitary.

Derivatives are exact: every ansatz slot drives one gate on at most two
qubits, so the derivative of U(θ) or of its noisy channel in a slot is
the same product of cached factors with that gate's coefficients
differentiated (``sim``'s ``derivatives`` flag).  A derivative row of a
density register is already the derivative of what it reads; an
analytic one, ψk, gives 2·Re(ψ0*·ψk).

A positive ``shots`` count estimates E from that many readouts, in either
mode, noisy density included.  The readout is one ±1 bit whose mean is E,
so the mean of ``shots`` readouts is 2·Binomial(shots, (1 + E)/2)/shots − 1,
and ``forward`` draws it once.  The circuit-level functions below
(``build_register1``, ``build_full_circuit``, ``qksas``) build the same
model gate by gate for ``sim.run_circuit``, the reference that the tests
and the benchmark's oracle checks compare the evaluator against.  The
full circuit is built in one pass per fragment (``Circuit.add_layout``):
each encoder or ansatz layout is turned into gates straight from its
angle row at its qubit offset, an adjoint fragment (U†(θ2), U_φ†(w_j))
as the layout reversed on negated angles, so no fragment is built twice
and each gate is checked once.  w_j's encoder angles are computed once
for both registers.
"""
from __future__ import annotations

import dataclasses
import functools
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
EXECUTION_MODES = ("analytic", "density")
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
            hint = ("; sample with 'shots' > 0 under 'analytic' or 'density'"
                    if self.execution == "shots" else "")
            raise ValueError(f"unknown execution mode {self.execution!r}{hint}")
        # forward's binomial draw takes counts up to 2^63 − 1 (a C long)
        if not 0 <= self.shots < 2**63:
            raise ValueError(f"'shots' must lie in 0..2**63 - 1, got {self.shots}")
        if self.noise and self.execution != "density":
            raise ValueError("noise channels require density execution")

    @property
    def variant(self) -> str:
        enc = "Am" if self.encoder == "amplitude" else "An"
        anz = "HE" if self.ansatz == "hea" else "QAOA"
        return enc + anz

    @classmethod
    def from_variant(cls, variant: str, **kwargs) -> "ModelConfig":
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        return cls(encoder=_ENCODER_TAG[variant[:2]], ansatz=_ANSATZ_TAG[variant[2:]], **kwargs)

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

def _encoder_row(values, config: ModelConfig) -> np.ndarray:
    """The encoder's angle row for one feature vector."""
    rows = np.asarray(values, dtype=float).reshape(1, -1)
    return _encoding.encoder_angles(config.encoder, rows, config.n)[0]


def _add_register1(circ: Circuit, enc_i, enc_j, theta1, theta2, config: ModelConfig) -> Circuit:
    """Append U_φ†(w_j) U†(θ2) U(θ1) U_φ(w_i) on qubits 0..n-1, from the
    encoder angle rows of w_i and w_j."""
    n = config.n
    encoder = _encoding.encoder_layout(config.encoder, n)
    ansatz = _ansatz.ansatz_layout(config.ansatz, n)
    theta1, theta2 = (_ansatz.check_params(t, 2 * n) for t in (theta1, theta2))
    circ.add_layout(encoder, enc_i).add_layout(ansatz, theta1)
    return circ.add_layout(ansatz, theta2, adjoint=True).add_layout(encoder, enc_j, adjoint=True)


def _add_register2(circ: Circuit, enc_j, theta3, config: ModelConfig, offset: int = 0) -> Circuit:
    """Append U(θ3) U_φ(w_j) on qubits offset..offset+n-1."""
    n = config.n
    theta3 = _ansatz.check_params(theta3, 2 * n)
    circ.add_layout(_encoding.encoder_layout(config.encoder, n), enc_j, offset)
    return circ.add_layout(_ansatz.ansatz_layout(config.ansatz, n), theta3, offset)


def build_register1(w_i, w_j, theta1, theta2, config: ModelConfig) -> Circuit:
    """Kernel fragment on qubits 0..n-1: U_φ†(w_j) U†(θ2) U(θ1) U_φ(w_i)."""
    return _add_register1(Circuit(config.n), _encoder_row(w_i, config),
                          _encoder_row(w_j, config), theta1, theta2, config)


def build_register2(w_j, theta3, config: ModelConfig) -> Circuit:
    """Value-state fragment on its own n qubits: U(θ3) U_φ(w_j)."""
    return _add_register2(Circuit(config.n), _encoder_row(w_j, config), theta3, config)


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
    enc_i, enc_j = _encoder_row(w_i, config), _encoder_row(w_j, config)
    _add_register1(circ, enc_i, enc_j, params.theta1, params.theta2, config)
    _add_register2(circ, enc_j, params.theta3, config, offset=n)
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


def _squared(amps: np.ndarray, derivatives: bool) -> np.ndarray:
    """|amps|² per row; with ``derivatives``, the first row's, then the
    derivative 2·Re(ψ0*·ψk) of |ψ|² along each further row ψk."""
    if not derivatives:
        return np.abs(amps) ** 2
    return np.concatenate([np.abs(amps[:1]) ** 2, 2.0 * (amps[:1].conj() * amps[1:]).real])


# The link angles of the three fired readouts that build [idle, B, C, S],
# and how: the fired readout is B + C, B + S and B − C at θ = 0, π/2 and
# π, and idle is the one at θ = 0 (for the canonical link only without
# noise).  Row t weighs the readout at angle t, column m gives readout m.
_FIRED_ANGLES = np.array([[0.0], [np.pi / 2], [np.pi]])
_FIRED_MIX = np.array([[1.0, 0.5, 0.5, -0.5], [0.0, 0.0, 0.0, 1.0], [0.0, 0.5, -0.5, -0.5]])


@functools.lru_cache(maxsize=64)
def _link_readouts(n: int, link_mode: str, noise: tuple[NoiseChannel, ...]) -> np.ndarray:
    """The four register-2 readout observables [idle, B, C, S], each a
    2^n × 2^n matrix, for ``link_mode`` under ``noise`` (() for none).

    Z on readout qubit n−1, carried back through the link gate RY(θ) and
    its noise, is B + cos θ·C + sin θ·S: RY(θ)'s entries are affine in
    cos(θ/2) and sin(θ/2), so its conjugation is affine in cos θ and
    sin θ; ``_FIRED_MIX`` solves for B, C and S from θ = 0, π/2 and π.
    ``idle`` is read when the link does not fire: Z for the canonical
    link, which then does nothing, and for the literal link, whose CRY's
    noise reaches the readout on both branches, the fired readout at
    θ = 0.
    """
    dim = 2**n
    z = np.diag(1.0 - 2.0 * (np.arange(dim) >> (n - 1))).astype(complex)
    fired = _sim.apply_noisy_layout(z.reshape(1, 1, -1), (("RY", (n - 1,), 0),),
                                    _FIRED_ANGLES, n, noise, adjoint=True).reshape(3, dim, dim)
    out = np.tensordot(_FIRED_MIX, fired, axes=(0, 0))
    if link_mode != "per-qubit-literal":
        out[0] = z
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=16)
def _readout_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The noiseless readouts of ``_link_readouts`` in measurement form,
    for pure states.  Without noise the fired readout at θ is Z measured
    after the link gate L(θ), ⟨ψ|L(θ)† Z L(θ)|ψ⟩ = |L(θ)ψ|² · z, and idle
    is the one at θ = 0 for either link.  Returns (bases, weights) such
    that |ψ @ bases|² @ weights are the four readouts of a row ψ: bases
    (2^n, 3·2^n) holds L(θ)ᵀ at the three ``_FIRED_ANGLES``, and weights
    (3·2^n, 4) is ``_FIRED_MIX`` times z.
    """
    z = 1.0 - 2.0 * (np.arange(2**n) >> (n - 1))
    gates = _sim.layout_unitaries((("RY", (n - 1,), 0),), _FIRED_ANGLES, n)
    bases = gates.transpose(2, 0, 1).reshape(2**n, -1)
    weights = np.kron(_FIRED_MIX, z[:, None])
    for arr in (bases, weights):
        arr.flags.writeable = False
    return bases, weights


class BatchEvaluator:
    """Forward evaluation over a fixed set of (w_i, w_j) pairs.

    Every mode encodes every sample once at construction, in one batched
    call (a batch that pairs each sample with itself, as training does,
    encodes it once for both roles).  ``evaluate_stack`` then evaluates
    the closed form for a stack of K parameter sets at once, each
    register once per distinct row of the slots it reads (θ1 and θ2, or
    θ3), so rows that differ only in θ4 share both registers bit for bit
    and E is exactly constant in the θ4 slots it does not read;
    ``evaluate`` is the K = 1 case.  ``derivatives`` gives E and its
    exact derivative in every slot at one parameter set.
    E is exact in both modes (``forward`` samples ``shots`` on top of it).
    Analytic mode keeps φ_i, φ_j and U_φ(w_j)† and per call builds U(θ1),
    U(θ2) and U(θ3) in one stacked ``sim.layout_unitaries`` call.
    Density mode keeps the noisy encoded states ρ_i, ρ_j and, per sample,
    the 2^n register-1 outcome projectors pulled back through the noisy
    channel of U_φ(w_j)†; per call ``sim.apply_noisy_layout`` applies the
    register-1 channel of U†(θ2)U(θ1) to ρ_i, or to the 4^n vec basis
    vectors when they are fewer than the batch's states, and carries the
    four readouts backwards through the channel of θ3.
    """

    def __init__(self, wi, wj, config: ModelConfig):
        self.config = config
        n = config.n
        wi = np.atleast_2d(np.asarray(wi, dtype=float))
        wj = np.atleast_2d(np.asarray(wj, dtype=float))
        if wi.shape != wj.shape:
            raise ValueError("w_i and w_j batches must have matching shapes")
        self.count = wi.shape[0]
        # bit n−1 of each basis index: the literal CRY's control qubit in
        # register 1.  0/1 weights of the register-1 outcomes on which the
        # link fires: all zeros, or (literal) the control reading 1
        bit = (np.arange(2**n) >> (n - 1)).astype(float)
        self._fire = bit if config.link_mode == "per-qubit-literal" else np.eye(2**n)[0]
        self._ansatz = _ansatz.ansatz_layout(config.ansatz, n)
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
            self._bases, self._weights = _readout_bases(n)
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
        # vec(O) of each readout, (1, 4, 4^n)
        self._readouts = _link_readouts(n, config.link_mode, noise).reshape(1, 4, -1)

    def evaluate(self, params: ParamSet, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """Return (E, register-1 outcome distributions) for the batch
        (or the sub-batch selected by ``idx``)."""
        e_val, probs = self.evaluate_stack(params.to_vector()[None], idx)
        return e_val[0], probs[0]

    def _rows(self, thetas) -> np.ndarray:
        """``thetas`` as a checked (K, P) stack of flat parameter vectors."""
        count = self.config.parameter_count
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != count:
            raise ValueError(f"expected rows of {count} parameters, got shape {thetas.shape}")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("parameters must be finite")
        return thetas

    def evaluate_stack(self, thetas, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` at K flattened parameter vectors (rows of
        ``thetas``): E is (K, batch) and the distributions (K, batch, 2^n)."""
        thetas = self._rows(thetas)
        n = self.config.n
        rows1, at1 = _distinct_rows(thetas[:, : 4 * n])
        rows2, at2 = _distinct_rows(thetas[:, 4 * n: 6 * n])
        probs, reads = self._registers(rows1, rows2, idx)
        fire = (probs @ self._fire)[at1]
        idle, b, c, s = reads[at2].transpose(2, 0, 1)
        link = thetas[:, 7 * n - 1, None]
        e_val = fire * (b + np.cos(link) * c + np.sin(link) * s) + (1.0 - fire) * idle
        return e_val, probs[at1]

    def derivatives(self, theta, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """E (batch,) at one flat parameter vector and its exact derivative
        dE (P, batch), from one run of each register on its row and
        derivative rows.  With f the firing probability and T = B +
        cos θ·C + sin θ·S, dE is df·(T − idle) in θ1 and θ2, f·dT +
        (1 − f)·d idle in θ3, f·(cos θ·S − sin θ·C) in θ = θ4_{n−1}, and
        exactly 0 in the other θ4 slots and in slots that drive no gate."""
        theta = self._rows(np.reshape(theta, (1, -1)))[0]
        n = self.config.n
        probs, reads = self._registers(theta[None, : 4 * n], theta[None, 4 * n: 6 * n], idx,
                                       derivatives=True)
        fire = probs @ self._fire
        idle, b, c, s = reads.transpose(2, 0, 1)
        cos, sin = np.cos(theta[7 * n - 1]), np.sin(theta[7 * n - 1])
        t = b + cos * c + sin * s
        de = np.zeros((theta.size, fire.shape[1]))
        de[: 4 * n] = fire[1:] * (t[0] - idle[0])
        de[4 * n: 6 * n] = fire[0] * t[1:] + (1.0 - fire[0]) * idle[1:]
        de[7 * n - 1] = fire[0] * (cos * s[0] - sin * c[0])
        return fire[0] * t[0] + (1.0 - fire[0]) * idle[0], de

    def _registers(self, rows1: np.ndarray, rows2: np.ndarray, idx,
                   derivatives: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The register-1 distributions (K1, batch, 2^n) at ``rows1`` of
        [θ1, θ2] and the readouts [idle, B, C, S] (K2, batch, 4) at
        ``rows2`` of θ3; with ``derivatives``, at one row each, then the
        derivative in each column: 1 + 4n distributions, 1 + 2n readouts."""
        cfg = self.config
        n, dim = cfg.n, 2**cfg.n
        if cfg.execution != "density":
            phi_i, phi_j, v_j = self._phi_i, self._phi_j, self._v_j
            if idx is not None:
                phi_i, phi_j, v_j = phi_i[idx], phi_j[idx], v_j[idx]
            u = _sim.layout_unitaries(self._ansatz, np.vstack([rows1[:, : 2 * n],
                                                               rows1[:, 2 * n:], rows2]),
                                      n, derivatives)
            k = len(u) // 3 if derivatives else len(rows1)
            u1, u2, u3 = u[:k], u[k: 2 * k], u[2 * k:]
            a = (np.concatenate([_adjoint(u2[:1]) @ u1, _adjoint(u2[1:]) @ u1[:1]])
                 if derivatives else _adjoint(u2) @ u1)
            # (rows, batch, dim): A φ_i, then U_φ(w_j)† of each sample
            psi1 = (v_j @ (phi_i @ a.transpose(0, 2, 1)).transpose(1, 2, 0)).transpose(2, 0, 1)
            # the link gate's three fixed rotations of ψ = U(θ3)φ_j
            psi2 = (phi_j @ u3.transpose(0, 2, 1)) @ self._bases
            return _squared(psi1, derivatives), _squared(psi2, derivatives) @ self._weights
        # vec(ρ)[c + dim·r] = ρ[r, c]: the diagonal is every (dim+1)-th
        # entry, and Tr(O·ρ) = vec(O)ᴴ vec(ρ) for Hermitian O
        rho_i, rho_j, p_j = self._rho_i, self._rho_j, self._p_j
        if idx is not None:
            rho_i, rho_j, p_j = rho_i[idx], rho_j[idx], p_j[idx]
        mid = np.hstack([rows1[:, : 2 * n], -rows1[:, 2 * n:]])
        # (K1, batch, 4^n): register 1 after U†(θ2)U(θ1).  With fewer
        # states than vec basis vectors, the gates act on the states;
        # otherwise they act on the basis, which gives the channel.
        states = len(rho_i) < dim * dim
        vecs = rho_i[None] if states else np.eye(dim * dim, dtype=complex)[None]
        sigma = _sim.apply_noisy_layout(vecs, self._mid, mid, n, cfg.noise,
                                        derivatives=derivatives)
        if not states:
            sigma = rho_i @ sigma
        probs = (p_j @ sigma.transpose(1, 2, 0)).transpose(2, 0, 1).real.copy()
        if derivatives:  # _mid runs on −θ2
            probs[1 + 2 * n:] *= -1.0
        # the readouts carried back through the channel of θ3, read on ρ_j
        obs = _sim.apply_noisy_layout(self._readouts, self._ansatz, rows2, n, cfg.noise,
                                      adjoint=True, derivatives=derivatives)
        return probs, (rho_j @ obs.conj().transpose(0, 2, 1)).real


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
    a one-pair ``BatchEvaluator``.  A positive ``config.shots`` returns
    the mean of that many ±1 readouts instead, drawn from ``rng`` as one
    binomial count of the readouts that read +1; the record stays exact."""
    if config.shots and rng is None:
        raise ValueError("sampling 'shots' needs an rng")
    e_val, probs = BatchEvaluator([w_i], [w_j], config).evaluate(params)
    e_val = float(e_val[0])
    if config.shots:
        plus = rng.binomial(config.shots, np.clip((1.0 + e_val) / 2.0, 0.0, 1.0))
        e_val = 2.0 * plus / config.shots - 1.0
    return e_val, QksasRecord(probs[0])


def predict(e_value: float) -> int:
    """Sign of the expectation; the tie E = 0 maps to +1."""
    if not np.isfinite(e_value):
        raise ValueError("expectation must be finite")
    return -1 if e_value < 0 else 1
