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
link and the noise, and are built once per tuple of noise models
(``_link_readouts``).

``BatchEvaluator`` evaluates that closed form for a batch of pairs and
a stack of parameter sets at once.  In analytic mode it is plain linear
algebra on per-register states: with φ = U_φ(w)|0⟩ and A = U(θ2)†U(θ1),
the register-1 distribution is |U_φ(w_j)† A φ_i|², and register 2 reads
⟨ψ|O|ψ⟩ of the four readouts O on ψ = U(θ3)φ_j, as combinations of
the Z readouts of the link gate's three fixed rotations of ψ
(``_readout_bases``).  U(θ1), U(θ2) and U(θ3) come from one stacked
``sim.layout_unitaries`` call, a short product of the ansatz's cached
full-space rotation factors.  E needs only the firing probability f, the
mass of the outcomes on which the link fires, and each fired amplitude
ψ_o = ⟨o|U_φ(w_j)† A φ_i⟩ is linear in A: ψ_o = F_o · vec(A) for the
per-sample form F_o[x·2^n + y] = U_φ(w_j)†[o, x]·φ_i[y], which is
conj(φ_j) ⊗ φ_i for the canonical link's one outcome.  So gradients,
training steps and the E-only evaluations (a run's last metrics and
``gradient_check``'s reference) read f as one product of every A with
the cached forms of the fired outcomes, and only ``evaluate`` and
``evaluate_stack`` build distributions, for ``forward`` and
``qkattn qksas``.
Density mode is the same closed form on vectorised density matrices:
every fragment is a noisy channel in which each gate is followed by its
noise, on each of its qubits, as ``sim.run_circuit`` places it
(``sim.apply_noisy_layout``).  Register 1 applies the channel of
U†(θ2)U(θ1) to the noisy encoded ρ_i and reads each outcome's projector
carried back (Heisenberg picture) through the channel of U_φ†(w_j);
register 2 carries the four readouts backwards through the channel of
U(θ3) and reads them on the noisy encoded ρ_j; f reads one row, the
fired projectors' sum carried back.  Each sample's projectors, or its
one fired row, are carried back the first time they are read, so
training walks the fired row alone.  Every state, projector
and readout is held in the basis that the walk takes and returns at
every n (``sim.to_walk_basis``), the real Pauli coordinates
Tr(P ρ)/2^{n/2}, so every walk output and every product that reads a
probability or a readout is real.
The fixed ones, the zero state, the projectors and the readouts, are
converted once per n (``_walk_constants``), and the readouts once per
tuple of noise models, every run's in one walk (``_link_readouts``).  A
density evaluator holds these per run, on a leading run axis: one run, or
R models that differ in their noise alone and train in lockstep, each
walk of a pass serving all of them (``BatchEvaluator._lockstep``).  In
both modes the link angle enters only when E is combined, as
cos θ4_{n−1} and sin θ4_{n−1}; no fragment is simulated for it.  The
test suite checks both modes against the full circuit, whose literal
link is the real 2n-qubit unitary.

Derivatives are exact: every ansatz slot drives one gate on at most two
qubits, so the derivative of U(θ) or of its noisy channel in a slot is
the same product of cached factors with that gate's coefficients
differentiated (``sim``'s ``derivatives`` flag).  A derivative row of a
density register is already the derivative of what it reads; an
analytic one, ψk, gives 2·Re(ψ0*·ψk).

A positive ``shots`` count estimates E from that many readouts, in either
mode, noisy density included.  The readout is one ±1 bit whose mean is E,
so the mean of ``shots`` readouts is 2·Binomial(shots, (1 + E)/2)/shots − 1,
and ``forward`` draws it once.  ``build_full_circuit`` builds the same
model gate by gate for ``sim.run_circuit``, the reference that the tests
and the benchmark's oracle checks compare the evaluator against; its
conditional form's mid-circuit measurement records register 1's
distribution.  It is built in one pass per fragment
(``Circuit.add_layout``): each encoder or ansatz layout is turned into
gates straight from its angle row at its qubit offset, an adjoint
fragment (U†(θ2), U_φ†(w_j)) as the layout reversed on negated angles,
so no fragment is built twice and each gate is checked once.  w_j's
encoder angles are computed once for both registers.
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
        if not (isinstance(self.noise, (list, tuple))
                and all(isinstance(ch, NoiseChannel) for ch in self.noise)):
            raise ValueError(f"'noise' must be a sequence of NoiseChannel, got {self.noise!r}")
        object.__setattr__(self, "noise", tuple(self.noise))
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

def build_full_circuit(w_i, w_j, params: ParamSet, config: ModelConfig,
                       form: str = "conditional", final_measure: bool = False) -> Circuit:
    """The complete 2n-qubit circuit: U_φ†(w_j) U†(θ2) U(θ1) U_φ(w_i) on
    qubits 0..n-1, U(θ3) U_φ(w_j) on qubits n..2n-1, then the link.

    ``form`` selects how the link is realized for the canonical mode:
    "conditional" measures register 1 mid-circuit and classically
    conditions the link, "deferred" keeps everything unitary via
    open-controlled RY.  Literal link mode is unitary under either form.
    ``final_measure`` appends a measurement of the last qubit into
    classical bit n.
    """
    n = config.n
    encoder = _encoding.encoder_layout(config.encoder, n)
    ansatz = _ansatz.ansatz_layout(config.ansatz, n)
    enc_i, enc_j = (_encoding.encoder_angles(config.encoder,
                                             np.asarray(w, dtype=float).reshape(1, -1), n)[0]
                    for w in (w_i, w_j))
    theta1, theta2, theta3 = (_ansatz.check_params(t, 2 * n)
                              for t in (params.theta1, params.theta2, params.theta3))
    circ = Circuit(2 * n, clbits=n + 1 if final_measure else n)
    circ.add_layout(encoder, enc_i).add_layout(ansatz, theta1)
    circ.add_layout(ansatz, theta2, adjoint=True).add_layout(encoder, enc_j, adjoint=True)
    circ.add_layout(encoder, enc_j, n).add_layout(ansatz, theta3, n)
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
    """The distinct rows of a stack ``rows`` (R, K, W) of one K-row stack
    per run, in first-seen order, and each row's index among them: row k
    repeats an earlier one when it does so in every run.  A stack of at
    most one row passes through."""
    if rows.shape[1] < 2:
        return rows, slice(None)
    flat = rows.transpose(1, 0, 2).reshape(rows.shape[1], -1)
    raw, width = flat.tobytes(), flat[0].nbytes
    labels: dict[bytes, int] = {}
    inverse = np.array([labels.setdefault(raw[at: at + width], len(labels))
                        for at in range(0, len(raw), width)])
    return np.frombuffer(b"".join(labels)).reshape(len(labels), len(rows), -1).transpose(
        1, 0, 2), inverse


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


@functools.lru_cache(maxsize=16)
def _walk_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density mode's fixed vectors, read-only, in the basis that
    ``sim.apply_noisy_layout`` walks (``sim.to_walk_basis``), the real
    Pauli coordinates.  Returns the zero state |0⟩⟨0| (1, 1, 4^n),
    the 2^n outcome projectors |o⟩⟨o| (2^n, 4^n) and the identity on the
    4^n entries of that basis, whose rows run a fragment on the basis."""
    dim = 2**n
    # vec(|o⟩⟨o|) = e_{o(2^n + 1)}, so |0⟩⟨0| is e_0
    vec = np.eye(dim * dim, dtype=complex)
    zero, proj = (_sim.to_walk_basis(v, n) for v in (vec[:1], vec[:: dim + 1]))
    out = zero[None], proj, np.eye(dim * dim)
    for arr in out:
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=64)
def _link_readouts(n: int, link_mode: str, noises: tuple) -> np.ndarray:
    """The four register-2 readout observables [idle, B, C, S] of each of
    R runs, run r under the noise model ``noises[r]`` (() for none), each
    observable a 2^n × 2^n matrix given as a row of 4^n entries in the
    basis of ``sim.to_walk_basis``: (R, 1, 4, 4^n), read-only, from one
    walk for every run (``sim._walk_runs``).

    Z on readout qubit n−1, carried back through the link gate RY(θ) and
    its noise, is B + cos θ·C + sin θ·S: RY(θ)'s entries are affine in
    cos(θ/2) and sin(θ/2), so its conjugation is affine in cos θ and
    sin θ; ``_FIRED_MIX`` solves for B, C and S from θ = 0, π/2 and π.
    ``idle`` is read when the link does not fire: Z for the canonical
    link, which then does nothing, and for the literal link, whose CRY's
    noise reaches the readout on both branches, the fired readout at
    θ = 0.
    """
    z = np.diag(1.0 - 2.0 * (np.arange(2**n) >> (n - 1))).astype(complex)
    z = _sim.to_walk_basis(z.reshape(1, 1, 1, -1), n)
    fired = _sim._walk_runs(z, (("RY", (n - 1,), 0),), _FIRED_ANGLES[None], n, noises,
                            adjoint=True)[:, :, 0]
    out = _FIRED_MIX.T @ fired
    if link_mode != "per-qubit-literal":
        out[:, 0] = z[0, 0, 0]
    out = out[:, None]
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


def _lockstep_config(configs) -> ModelConfig:
    """The model that R lockstep runs share: ``configs`` must differ in
    ``noise`` alone, and several runs need density execution."""
    configs = list(configs)
    if not configs:
        raise ValueError("lockstep needs at least one model config")
    first = configs[0]
    if any(dataclasses.replace(c, noise=()) != dataclasses.replace(first, noise=())
           for c in configs[1:]):
        raise ValueError("lockstep runs must differ in 'noise' alone")
    if len(configs) > 1 and first.execution != "density":
        raise ValueError(f"several runs train in lockstep under density execution only, "
                         f"not {first.execution!r}")
    return first


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
    exact derivative in every slot at one parameter set, and training's
    ``_steps`` gives those on a batch together with E at a second
    parameter set on every sample, in one pass whose coefficients,
    unitary product and walks serve both sets.
    E is exact in both modes (``forward`` samples ``shots`` on top of it).
    ``derivatives``, ``_steps`` and the E-only evaluation that training
    and ``gradient_check`` make (``_stack`` with ``fired``) read register
    1's firing probability alone; only ``evaluate`` and
    ``evaluate_stack`` build the distributions, for ``forward`` and
    ``qkattn qksas``.
    Analytic mode keeps φ_i, φ_j, U_φ(w_j)† and, per sample, the read-only
    forms of the fired outcomes, (count, fired outcomes·4^n) with one
    outcome for the canonical link and 2^(n−1) for the literal one; per
    call it builds U(θ1), U(θ2) and U(θ3) in one stacked
    ``sim.layout_unitaries`` call.
    Density mode keeps the noisy encoded states ρ_i and ρ_j in the walk's
    real Pauli basis.  Register 1's outcome projectors are carried back
    through the noisy channel of U_φ(w_j)†, per sample, when first read:
    all 2^n for the distributions (``_p_j``), or the fired ones' sum as
    one row for f (``_p_fire``), each walked once and neither derived
    from the other.  Per call the walk applies the register-1 channel of
    U†(θ2)U(θ1) to ρ_i, or to the 4^n basis vectors when they are fewer
    than the batch's states, and carries the four readouts backwards
    through the channel of θ3.

    Every density array has a leading run axis.  ``_lockstep`` builds one
    evaluator for R models that differ in their noise alone, each a run
    with its own ρ_i, ρ_j, projectors and readouts.  ``_stack`` and
    ``_steps`` take one parameter stack per run: every walk of a pass
    serves all R runs at once (``sim._walk_runs``), and each run's values
    equal those of its own evaluator bit for bit.  The encodings and the
    projectors walk one run at a time.  The constructor builds the
    one-run case, which the public methods read; analytic mode takes one
    model.
    """

    def __init__(self, wi, wj, config: ModelConfig):
        self._build(wi, wj, config, (config.noise,))

    @classmethod
    def _lockstep(cls, wi, wj, configs) -> "BatchEvaluator":
        """One evaluator for the runs of ``configs``, which differ in their
        noise alone (``_lockstep_config``)."""
        evaluator = cls.__new__(cls)
        evaluator._build(wi, wj, _lockstep_config(configs), tuple(c.noise for c in configs))
        return evaluator

    def _build(self, wi, wj, config: ModelConfig, noises: tuple) -> None:
        """Encode the pairs for ``config``, one density run under each noise
        model of ``noises``."""
        self.config = config
        self._noises = noises
        n = config.n
        wi = np.atleast_2d(np.asarray(wi, dtype=float))
        wj = np.atleast_2d(np.asarray(wj, dtype=float))
        if wi.shape != wj.shape:
            raise ValueError("w_i and w_j batches must have matching shapes")
        self.count = wi.shape[0]
        # the register-1 outcomes on which the link fires, as a range of
        # basis indices and as 0/1 weights: all zeros, or (literal) those
        # whose bit n−1, the literal CRY's control qubit, reads 1
        fired = slice(2 ** (n - 1), None) if config.link_mode == "per-qubit-literal" else slice(1)
        self._fire = np.zeros(2**n)
        self._fire[fired] = 1.0
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
            # the firing probability's forms, F[b, o, x·2^n + y] =
            # U_φ(w_j)†[b][o, x]·φ_i[b][y] on the fired outcomes o only, so
            # that ψ_o = F[b, o] · vec(A); samples first, so idx gathers rows
            forms = self._v_j[:, fired, :, None] * self._phi_i[:, None, None]
            self._forms = forms.reshape(self.count, -1)
            self._forms.flags.writeable = False
            self._bases, self._weights = _readout_bases(n)
            return
        zero, _, self._basis = _walk_constants(n)
        # the encodings walk one run at a time: at n = 4 one walk over five
        # runs' vec(ρ) stacks outgrew the cache and took 2.4× as long as
        # five walks, at 4× their peak memory; (R, samples, 4^n)
        rho = np.stack([_sim.apply_noisy_layout(zero, layout, angles, n, noise)[:, 0]
                        for noise in noises])
        self._rho_i = rho[:, : self.count]
        self._rho_j = rho[:, at_j:]
        # U_φ†(w_j), through which _p_j and _p_fire carry projectors back
        self._unencode = _reversed_layout(layout), -angles[at_j:]
        # U(θ1) then U†(θ2), driven by the angle row [θ1, −θ2]
        self._mid = self._ansatz + _reversed_layout(self._ansatz, 2 * n)
        # each run's readouts O, (R, 1, 4, 4^n)
        self._readouts = _link_readouts(n, config.link_mode, noises)

    def _carried_back(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` (B, 4^n) carried back through each run's channel of
        U_φ†(w_j), one run at a time, per sample: (R, samples, B, 4^n),
        read-only.  Register 1 reads p · σ: Tr(A·B) = a · b for Hermitian
        A, B in the real basis."""
        layout, angles = self._unencode
        out = np.stack([_sim.apply_noisy_layout(rows[None], layout, angles, self.config.n,
                                                noise, adjoint=True) for noise in self._noises])
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _p_j(self) -> np.ndarray:
        """The 2^n projectors carried back, which distributions read."""
        return self._carried_back(_walk_constants(self.config.n)[1])

    @functools.cached_property
    def _p_fire(self) -> np.ndarray:
        """The fired projectors' sum carried back as one row, which reads f;
        not folded from ``_p_j``, whose sum rounds differently."""
        proj = _walk_constants(self.config.n)[1]
        return self._carried_back((self._fire @ proj)[None])[:, :, 0]

    def evaluate(self, params: ParamSet, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """Return (E, register-1 outcome distributions) for the batch
        (or the sub-batch selected by ``idx``); each block of ``params``
        must have its size for the model's n and link."""
        theta = params.checked_vector(self.config.n, self.config.link_mode)
        e_val, probs = self.evaluate_stack(theta[None], idx)
        return e_val[0], probs[0]

    def _rows(self, thetas) -> np.ndarray:
        """``thetas`` as a checked (K, P) stack of flat parameter vectors."""
        count = self.config.parameter_count
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[-1] != count:
            raise ValueError(f"expected rows of {count} parameters, got shape {thetas.shape}")
        if not np.all(np.isfinite(thetas)):
            raise ValueError("parameters must be finite")
        return thetas

    def evaluate_stack(self, thetas, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` at K flattened parameter vectors (rows of
        ``thetas``): E is (K, batch) and the distributions (K, batch, 2^n)."""
        e_val, probs = self._stack(self._rows(thetas)[None], idx)
        return e_val[0], probs[0]

    def _stack(self, thetas, idx=None, fired: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate_stack`` at one (K, P) stack per run, ``thetas`` (R, K,
        P), as (R, K, batch) and (R, K, batch, 2^n); or with ``fired`` E
        and register 1's firing probabilities (R, K, batch) alone, the
        E-only evaluation that builds no distribution.  The caller checks
        the rows (``_rows``)."""
        n = self.config.n
        rows1, at1 = _distinct_rows(thetas[..., : 4 * n])
        rows2, at2 = _distinct_rows(thetas[..., 4 * n: 6 * n])
        (reg1, reads), = self._registers(rows1, rows2, idx, fired=fired)
        link = thetas[..., 7 * n - 1, None]
        fire = (reg1 if fired else reg1 @ self._fire)[:, at1]
        e_val, _ = self._combined(fire, reads[:, at2], np.cos(link), np.sin(link))
        return e_val, reg1[:, at1]

    def derivatives(self, theta, idx=None) -> tuple[np.ndarray, np.ndarray]:
        """E (batch,) at one flat parameter vector and its exact derivative
        dE (P, batch), from one run of each register on its row and
        derivative rows.  With f the firing probability and T = B +
        cos θ·C + sin θ·S, dE is df·(T − idle) in θ1 and θ2, f·dT +
        (1 − f)·d idle in θ3, f·(cos θ·S − sin θ·C) in θ = θ4_{n−1}, and
        exactly 0 in the other θ4 slots and in slots that drive no gate."""
        theta = self._rows(np.reshape(theta, (1, -1)))
        n = self.config.n
        look, = self._registers(theta[:, None, : 4 * n], theta[:, None, 4 * n: 6 * n], idx,
                                derivatives=True, fired=True)
        e_val, de = self._derived(theta, *look)
        return e_val[0], de[0]

    def _steps(self, looks, ats, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One optimizer step's values for every run in one pass, at one
        lookahead and one current vector per run, ``looks`` and ``ats`` (R,
        P): E (R, batch) and dE (R, P, batch) of ``derivatives`` at
        ``looks`` on ``idx``'s samples, and E (R, count) at ``ats`` on every
        sample.  What does not depend on the samples runs once for both
        vectors.  The caller checks the vectors (``_rows``)."""
        n = self.config.n
        grad, (fire, reads) = self._registers(looks[:, None, : 4 * n],
                                              looks[:, None, 4 * n: 6 * n], idx,
                                              derivatives=True, at=ats, fired=True)
        e_val, de = self._derived(looks, *grad)
        link = ats[:, 7 * n - 1, None, None]
        e_at, _ = self._combined(fire, reads, np.cos(link), np.sin(link))
        return e_val, de, e_at[:, 0]

    @staticmethod
    def _combined(fire, reads, cos, sin) -> tuple[np.ndarray, np.ndarray]:
        """E = f·T + (1 − f)·idle and T = B + cos θ·C + sin θ·S, from the
        firing probabilities ``fire`` and the readouts [idle, B, C, S] on
        the last axis of ``reads`` (R, K, batch, 4)."""
        idle, b, c, s = reads.transpose(3, 0, 1, 2)
        t = b + cos * c + sin * s
        return fire * t + (1.0 - fire) * idle, t

    def _derived(self, theta, fire, reads) -> tuple[np.ndarray, np.ndarray]:
        """``derivatives``' E (R, batch) and dE (R, P, batch) from each
        run's registers at its row of ``theta`` (R, P) and their
        derivative rows."""
        n = self.config.n
        link = theta[:, 7 * n - 1, None]
        cos, sin = np.cos(link), np.sin(link)
        # E, then its derivatives in θ3, from f and every register-2 row
        e_val, t = self._combined(fire[:, :1], reads, cos[:, None], sin[:, None])
        idle, _, c, s = reads[:, 0].transpose(2, 0, 1)
        de = np.zeros(theta.shape + fire.shape[-1:])
        de[:, : 4 * n] = fire[:, 1:] * (t[:, 0] - idle)[:, None]
        de[:, 4 * n: 6 * n] = e_val[:, 1:]
        de[:, 7 * n - 1] = fire[:, 0] * (cos * s - sin * c)
        return e_val[:, 0], de

    def _registers(self, rows1: np.ndarray, rows2: np.ndarray, idx, derivatives: bool = False,
                   at: np.ndarray | None = None,
                   fired: bool = False) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per run, the register-1 distributions (R, K1, batch, 2^n) at
        ``rows1`` (R, K1, 4n) of [θ1, θ2], or with ``fired`` only their
        firing probabilities (R, K1, batch), and the readouts [idle, B, C,
        S] (R, K2, batch, 4) at ``rows2`` (R, K2, 2n) of θ3, on the
        samples ``idx``; with ``derivatives``, at one row each, then the
        derivative in each column: 1 + 4n register-1 rows, 1 + 2n
        readouts.  With ``at``, one flat parameter vector per run (R, P), a
        second pair follows: its one row of each on every sample.  Both
        pairs share the coefficients and the unitary product, or the
        readout walk and, when both sample sets take it, register 1's walk
        on the basis; every density walk serves all runs."""
        cfg = self.config
        n, dim = cfg.n, 2**cfg.n
        # (rows of [θ1, θ2], rows of θ3, samples); only the first part has
        # derivative rows, one row each
        parts = [(rows1, rows2, idx)]
        if at is not None:
            parts.append((at[:, None, : 4 * n], at[:, None, 4 * n: 6 * n], None))
        if cfg.execution != "density":
            # the one run's U(θ1), U(θ2) and U(θ3) of each part in one
            # product, derivative rows first
            u = _sim.layout_unitaries(self._ansatz, np.vstack(
                [b for r1, r2, _ in parts for b in (r1[0, :, : 2 * n], r1[0, :, 2 * n:], r2[0])]),
                n, 3 * derivatives)
            k1, k2 = (1 + 2 * n,) * 2 if derivatives else (rows1.shape[1], rows2.shape[1])
            out = [self._pure(u[:k1], u[k1: 2 * k1], u[2 * k1: 2 * k1 + k2], idx, derivatives,
                              fired)]
            if at is not None:
                out.append(self._pure(u[-3:-2], u[-2:-1], u[-1:], None, False, fired))
            return [(reg1[None], reads[None]) for reg1, reads in out]
        p_read = self._p_fire if fired else self._p_j
        picks = [(self._rho_i, self._rho_j, p_read) if sel is None else
                 tuple(np.take(arr, sel, axis=1) for arr in (self._rho_i, self._rho_j, p_read))
                 for *_, sel in parts]
        # (R, K1, batch, 4^n): register 1 after U†(θ2)U(θ1), driven by
        # [θ1, −θ2].  With fewer states than basis vectors, the gates act
        # on the states; otherwise they act on the basis, which gives the
        # channel, in one walk for both parts when both take it.
        mids = [np.concatenate([r1[..., : 2 * n], -r1[..., 2 * n:]], axis=-1)
                for r1, _, _ in parts]
        on_basis = [rho_i.shape[1] >= dim * dim for rho_i, _, _ in picks]
        if all(on_basis):
            sigma = _sim._walk_runs(self._basis[None, None], self._mid,
                                    np.concatenate(mids, axis=1), n, self._noises,
                                    derivatives=int(derivatives))
            split = rows1.shape[1] * (1 + 4 * n) if derivatives else rows1.shape[1]
            sigma = sigma[:, :split], sigma[:, split:]
        else:
            sigma = [_sim._walk_runs(self._basis[None, None] if basis else rho_i[:, None],
                                     self._mid, mid, n, self._noises,
                                     derivatives=int(derivatives and not k))
                     for k, (mid, basis, (rho_i, _, _)) in enumerate(zip(mids, on_basis, picks))]
        # the readouts carried back through the channel of θ3, read on ρ_j
        obs = _sim._walk_runs(self._readouts, self._ansatz,
                              np.concatenate([r2 for _, r2, _ in parts], axis=1), n,
                              self._noises, adjoint=True, derivatives=int(derivatives))
        split = rows2.shape[1] * (1 + 2 * n) if derivatives else rows2.shape[1]
        obs = obs[:, :split], obs[:, split:]
        out = []
        for k, ((rho_i, rho_j, p_j), basis) in enumerate(zip(picks, on_basis)):
            s = (rho_i[:, None] @ sigma[k] if basis else sigma[k]).transpose(0, 2, 3, 1)
            # (R, K, batch) firing probabilities, or (R, K, batch, 2^n)
            # distributions
            probs = ((p_j[:, :, None] @ s)[:, :, 0].transpose(0, 2, 1) if fired
                     else (p_j @ s).transpose(0, 3, 1, 2))
            if derivatives and not k:  # _mid runs on −θ2
                probs[:, 1 + 2 * n:] *= -1.0
            out.append((probs, rho_j[:, None] @ obs[k].swapaxes(-1, -2)))
        return out

    def _pure(self, u1, u2, u3, idx, derivatives: bool,
              fired: bool) -> tuple[np.ndarray, np.ndarray]:
        """Analytic mode's registers from U(θ1), U(θ2) and U(θ3), row by
        row or, with ``derivatives``, one row followed by its derivative
        rows each.  Register 1 gives the distributions |U_φ(w_j)† A φ_i|²
        or, with ``fired``, f = Σ_o |F_o · vec(A)|² over the fired
        outcomes' forms, each derivative row Σ_o 2·Re(ψ_o0*·ψ_ok)."""
        phi_j = self._phi_j if idx is None else self._phi_j[idx]
        a = (np.concatenate([_adjoint(u2[:1]) @ u1, _adjoint(u2[1:]) @ u1[:1]])
             if derivatives else _adjoint(u2) @ u1)
        if fired:
            forms = self._forms if idx is None else self._forms[idx]
            size = a.shape[1] * a.shape[2]
            outcomes = forms.shape[1] // size
            # (batch·outcomes, rows): every row of A on every form in one
            # product, through the real view of a complex A when the forms
            # are real
            psi1 = _sim._left(forms.reshape(-1, size),
                              np.ascontiguousarray(a.reshape(len(a), size).T))
            reg1 = _squared(psi1.T, derivatives).reshape(len(a), len(forms), outcomes).sum(axis=2)
        else:
            phi_i, v_j = self._phi_i, self._v_j
            if idx is not None:
                phi_i, v_j = phi_i[idx], v_j[idx]
            # (rows, batch, dim): A φ_i, then U_φ(w_j)† of each sample
            psi1 = (v_j @ (phi_i @ a.transpose(0, 2, 1)).transpose(1, 2, 0)).transpose(2, 0, 1)
            reg1 = _squared(psi1, derivatives)
        # the link gate's three fixed rotations of ψ = U(θ3)φ_j
        psi2 = (phi_j @ u3.transpose(0, 2, 1)) @ self._bases
        return reg1, _squared(psi2, derivatives) @ self._weights


# --- single-pair operations ----------------------------------------------

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
