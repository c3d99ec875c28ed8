"""Feedforward cloning machine built from linear optics.

Layout of the machine::

    in ──BS(t1)──────────────────────D(gx*X, gp*P)──BS(1/2)──> clone 1, clone 2
          │a1                          ▲               │a3
          └─[loss]──BS(t2)──┬── x homodyne ── X ───────┤
                     │a2    └── p homodyne ── P ───────┘

The tapped arm is measured (t2 = 1/2 is a balanced heterodyne; t2 = 1
degenerates to a direct x homodyne with no phase detector), the outcomes are
scaled by the electronic gains and fed forward as a displacement of the
transmitted beam, and a symmetric output splitter produces two clones.
Detector efficiency and mode overlap of the tapped-arm measurement combine
into a single loss channel of transmission eta_ff * visibility**2 ahead of
the measurement splitter; homodyne visibility enters the photocurrent
quadratically.

All statistics are exact consequences of the linear input-output relations.
Per quadrature the machine is one joint Gaussian of the kept beam T and the
feedforward outcome M, which ``_moments`` writes in closed form, without BLAS,
for a stack of machines (one row of ``MACHINE_COLUMNS`` each); the analytic
clone statistics and the Monte Carlo engine's per-shot model (``_shot_model``)
read from it, and the ensemble output state reads the statistics.
``heisenberg_clone_stats`` is that core on one ``ClonerConfig``, and
``batched_clone_stats`` on many machines at once, with the same bits per
machine.  ``CloningCircuit``, which runs the machine over the Gaussian
primitives, and ``phase_known_clone_stats`` are independent oracles for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    GaussianState,
    MeasurementRecord,
    Quadrature,
    beam_splitter,
    displace,
    measure_quadrature,
    partial_trace,
    squeezed_vacuum,
    tensor,
    vacuum,
)

VACUUM_ANCILLA = (1.0, 1.0)

SQRT2 = math.sqrt(2.0)

# the parameters of one machine, in ClonerConfig's field order with each
# ancilla as its (var_x, var_p) pair; a stack of machines is an (n, 10) array
MACHINE_COLUMNS = ("t1", "t2", "g_x", "g_p", "vx1", "vp1", "vx3", "vp3", "eta_ff", "visibility")

__all__ = [
    "VACUUM_ANCILLA",
    "MACHINE_COLUMNS",
    "ClonerConfig",
    "CloneStatistics",
    "check_fraction",
    "matched_gain",
    "gaussian_machine",
    "phase_known_machine",
    "heisenberg_clone_stats",
    "batched_clone_stats",
    "phase_known_clone_stats",
    "clone_output_state",
    "build_circuit",
    "CloningCircuit",
]


def _check(ok, value, message: str) -> None:
    """Raise ``ValueError(message.format(v))`` unless ``ok`` holds, where v
    is ``value``, or on arrays the entry of ``value`` at the first failure."""
    if ok is True:
        return
    if ok is not False:
        ok = np.asarray(ok)
        if ok.all():
            return
        value = np.broadcast_to(value, ok.shape)[~ok][0]
    raise ValueError(message.format(value))


def check_fraction(name: str, value, *, allow_zero: bool = False):
    """``value`` if it lies in (0, 1], or in [0, 1] with ``allow_zero``; NaN
    and infinities fail too.  On an array every entry must lie there, and
    the message names the first that does not."""
    ok = (value >= 0.0 if allow_zero else value > 0.0) & (value <= 1.0)
    interval = "[0, 1]" if allow_zero else "(0, 1]"
    _check(ok, value, f"{name} must lie in {interval}, got {{}}")
    return value


def _check_ancilla(name: str, vx, vp) -> None:
    ok = (0.0 < vx) & (vx < math.inf) & (0.0 < vp) & (vp < math.inf)
    _check(ok, None, f"{name} variances must be finite and positive")
    product = vx * vp
    ok = product >= 1.0 - 1e-9
    _check(ok, product, f"{name} variance product {{:.6g}} violates uncertainty")


def _check_machines(t1, t2, g_x, g_p, vx1, vp1, vx3, vp3, eta_ff, visibility) -> None:
    """ClonerConfig's rules, on one machine's values or on the columns of a
    stack of machines (``MACHINE_COLUMNS``)."""
    check_fraction("t1", t1, allow_zero=True)
    check_fraction("t2", t2, allow_zero=True)
    # the loss parameters first: a gain derived from a bad one is NaN
    check_fraction("eta_ff", eta_ff)
    check_fraction("visibility", visibility)
    _check((abs(g_x) < math.inf) & (abs(g_p) < math.inf), None, "electronic gains must be finite")
    _check_ancilla("anc1", vx1, vp1)
    _check_ancilla("anc3", vx3, vp3)


def _transmission(eta_ff, visibility):
    # v * v, not v**2: numpy squares a column exactly, Python's pow does not
    # always round the same way
    return eta_ff * (visibility * visibility)


@dataclass(frozen=True)
class ClonerConfig:
    """Machine parameters.

    t1: tap beam-splitter transmittance.
    t2: measurement-splitting transmittance (1/2 heterodyne, 1 x-homodyne
        only; g_p is inert at t2 = 1 because no phase detector exists).
    g_x, g_p: electronic gains applied to the measured X and P outcomes.
    anc1, anc3: (var_x, var_p) of the tap and output-splitter ancillas.
    eta_ff: detector efficiency of the feedforward measurement, in (0, 1].
    visibility: mode overlap of the feedforward heterodyne, in (0, 1].
    """

    t1: float
    t2: float = 0.5
    g_x: float = 0.0
    g_p: float = 0.0
    anc1: tuple[float, float] = VACUUM_ANCILLA
    anc3: tuple[float, float] = VACUUM_ANCILLA
    eta_ff: float = 1.0
    visibility: float = 1.0

    def __post_init__(self):
        anc1 = float(self.anc1[0]), float(self.anc1[1])
        anc3 = float(self.anc3[0]), float(self.anc3[1])
        _check_machines(
            self.t1, self.t2, self.g_x, self.g_p, *anc1, *anc3, self.eta_ff, self.visibility
        )
        object.__setattr__(self, "anc1", anc1)
        object.__setattr__(self, "anc3", anc3)

    @property
    def feedforward_transmission(self) -> float:
        """Loss-channel transmission of the measurement arm."""
        return _transmission(self.eta_ff, self.visibility)

    def as_row(self) -> tuple[float, ...]:
        """The parameters in ``MACHINE_COLUMNS`` order."""
        return (self.t1, self.t2, self.g_x, self.g_p, *self.anc1, *self.anc3,
                self.eta_ff, self.visibility)


@dataclass(frozen=True)
class CloneStatistics:
    """Per-clone mean gains and total quadrature variances (SNU).

    Both clones of the symmetric machine share these statistics.  The
    fields are floats for one machine, or arrays with one entry per machine
    from ``batched_clone_stats``.
    """

    lambda_x: float
    lambda_p: float
    sigma_x: float
    sigma_p: float

    def __post_init__(self):
        lx, lp, sx, sp = self.lambda_x, self.lambda_p, self.sigma_x, self.sigma_p
        # comparisons, which NaN fails too: np.isfinite costs 8 us on floats
        finite = (abs(lx) < math.inf) & (abs(lp) < math.inf) & (sx < math.inf) & (sp < math.inf)
        _check(finite, None, "clone gains and variances must be finite")
        _check((sx > 0) & (sp > 0), None, "clone variances must be positive")

    def machine(self, i: int) -> CloneStatistics:
        """Machine ``i``'s statistics, as floats, from arrays of them."""
        return CloneStatistics(
            float(self.lambda_x[i]), float(self.lambda_p[i]),
            float(self.sigma_x[i]), float(self.sigma_p[i]),
        )

    def referred_noise(self) -> tuple[float, float]:
        """Noise variances referred to the input, (sigma - lambda^2)/lambda^2."""
        if np.any((self.lambda_x == 0) | (self.lambda_p == 0)):
            raise ValueError("referred noise undefined at zero gain")
        lx2, lp2 = self.lambda_x * self.lambda_x, self.lambda_p * self.lambda_p
        return (self.sigma_x - lx2) / lx2, (self.sigma_p - lp2) / lp2


def matched_gain(t1: float) -> float:
    """Electronic gain sqrt(2(1-t1)/t1) that cancels the tap ancilla at
    t2 = 1/2 and yields amplitude gain 1/sqrt(2 t1); one float in, one
    float out."""
    check_fraction("t1", t1)
    return math.sqrt(2.0 * (1.0 - t1) / t1)


def gaussian_machine(
    t1: float,
    eta_ff: float = 1.0,
    visibility: float = 1.0,
    anc1: tuple[float, float] = VACUUM_ANCILLA,
    anc3: tuple[float, float] = VACUUM_ANCILLA,
) -> ClonerConfig:
    """Heterodyne-feedforward machine with the gain tuned for optical gain
    1/sqrt(2 t1).

    With feedforward loss present the electronic gain is raised by
    1/sqrt(transmission), reproducing the experimental procedure of tuning
    the gain against a monitored optical test signal.
    """
    tau = _transmission(check_fraction("eta_ff", eta_ff), check_fraction("visibility", visibility))
    g = matched_gain(t1) / math.sqrt(tau)
    return ClonerConfig(
        t1=t1, t2=0.5, g_x=g, g_p=g, anc1=anc1, anc3=anc3,
        eta_ff=eta_ff, visibility=visibility,
    )


def phase_known_machine(
    anc1: tuple[float, float] = VACUUM_ANCILLA,
    anc3: tuple[float, float] = VACUUM_ANCILLA,
    eta_ff: float = 1.0,
    visibility: float = 1.0,
    lambda_x: float = 1.0,
) -> ClonerConfig:
    """Amplitude-feedforward machine for inputs of known phase.

    t1 = 1/2 and t2 = 1 (direct x homodyne, no phase feedforward); the x gain
    is set so the overall amplitude gain equals ``lambda_x`` (unity by
    default, which makes the average fidelity amplitude independent).
    """
    tau = _transmission(check_fraction("eta_ff", eta_ff), check_fraction("visibility", visibility))
    _check(abs(lambda_x) < math.inf, lambda_x, "lambda_x must be finite, got {}")
    g_x = (2.0 * lambda_x - 1.0) / math.sqrt(tau)
    return ClonerConfig(
        t1=0.5, t2=1.0, g_x=g_x, g_p=0.0, anc1=anc1, anc3=anc3,
        eta_ff=eta_ff, visibility=visibility,
    )


def _check_elec_noise(elec_noise: float) -> None:
    if not (math.isfinite(elec_noise) and elec_noise >= 0):
        raise ValueError(f"elec_noise must be finite and non-negative, got {elec_noise}")


def _moments(machines: np.ndarray, elec_noise: float):
    """Per quadrature, the joint Gaussian of the kept beam T and the
    feedforward outcome M for a coherent input of mean mean_q, of a stack of
    machines ((n, 10), in ``MACHINE_COLUMNS`` order).

    Returns ``(s1, m0, var_t, var_m, cov, g)``: T has mean s1 mean_q (s1 =
    sqrt(t1), (n, 1)) and M m0 mean_q, with variances var_t, var_m and
    covariance cov, each (n, 2) over (x, p); g feeds M forward.  With arm =
    tau (t2, 1 - t2) and e = (vx1, vp1) - 1, m0 = sqrt(arm) sqrt(1 - t1),
    var_t = 1 + (1 - t1) e, var_m = 1 + arm t1 e and cov = -m0 sqrt(t1) e.
    ``elec_noise`` is only checked here.  At t2 = 1 g_p is dropped, as no
    phase detector exists; at t2 = 0 g_x still feeds the vacuum x arm forward.
    """
    if not machines[:, 0].all():
        raise ValueError("t1 = 0 requires infinite feedforward gain")
    _check_elec_noise(elec_noise)
    t1, t2 = machines[:, :1], machines[:, 1]
    tau = _transmission(machines[:, 8], machines[:, 9])
    arm = tau[:, None] * np.column_stack([t2, 1.0 - t2])
    e = machines[:, 4:6] - 1.0
    s1 = np.sqrt(t1)
    m0 = np.sqrt(arm) * np.sqrt(1.0 - t1)
    var_t = 1.0 + (1.0 - t1) * e
    var_m = 1.0 + arm * t1 * e
    cov = -m0 * s1 * e
    g = np.column_stack([machines[:, 2], np.where(t2 < 1.0, machines[:, 3], 0.0)])
    return s1, m0, var_t, var_m, cov, g


def _clone_stats(machines: np.ndarray, elec_noise: float) -> tuple[np.ndarray, np.ndarray]:
    """Gains and variances, each (n, 2) over (x, p), of a stack of machines:
    the displaced beam T + g (M + n_el) through the output splitter."""
    s1, m0, var_t, var_m, cov, g = _moments(machines, elec_noise)
    # a huge gain overflows to inf or nan here, which CloneStatistics rejects
    with np.errstate(over="ignore", invalid="ignore"):
        lam = (s1 + g * m0) / SQRT2
        sigma = (var_t + 2.0 * g * cov + g * g * (var_m + elec_noise) + machines[:, 6:8]) / 2.0
    return lam, sigma


def heisenberg_clone_stats(cfg: ClonerConfig, elec_noise: float = 0.0) -> CloneStatistics:
    """Exact gains and total variances of either clone for a coherent input.

    Computed from the linear input-output relations; ``elec_noise`` is an
    optional classical noise variance added to each feedforward outcome.
    At t2 = 1/2 with the matched gain this reduces to gain 1/sqrt(2 t1) and
    variance 1/t1 per quadrature.
    """
    lam, sigma = _clone_stats(np.array([cfg.as_row()]), elec_noise)
    (lx, lp), (sx, sp) = lam[0].tolist(), sigma[0].tolist()
    return CloneStatistics(lambda_x=lx, lambda_p=lp, sigma_x=sx, sigma_p=sp)


def batched_clone_stats(machines, elec_noise: float = 0.0) -> CloneStatistics:
    """``heisenberg_clone_stats`` of many machines in one call.

    ``machines`` is an (n, 10) array, one machine per row in
    ``MACHINE_COLUMNS`` order, checked by ClonerConfig's rules with its
    messages.  The statistics are arrays of n entries, each equal bit for
    bit to that of the machine's own ``ClonerConfig``.
    """
    machines = np.asarray(machines, dtype=float)
    if machines.ndim != 2 or machines.shape[1] != len(MACHINE_COLUMNS):
        raise ValueError(f"machines must have shape (n, 10), got {machines.shape}")
    _check_machines(*machines.T)
    lam, sigma = _clone_stats(machines, elec_noise)
    return CloneStatistics(
        lambda_x=lam[:, 0], lambda_p=lam[:, 1], sigma_x=sigma[:, 0], sigma_p=sigma[:, 1]
    )


def phase_known_clone_stats(anc1, anc3) -> CloneStatistics:
    """Clone statistics of the phase-known machine, written out directly.

    lambda_x = 1, lambda_p = 1/2, sigma_x = 1 + var_x(a3)/2 and
    sigma_p = (1 + var_p(a1))/4 + var_p(a3)/2.  Matches
    ``heisenberg_clone_stats`` on the equivalent configuration.
    """
    vx1, vp1 = float(anc1[0]), float(anc1[1])
    vx3, vp3 = float(anc3[0]), float(anc3[1])
    _check_ancilla("anc1", vx1, vp1)
    _check_ancilla("anc3", vx3, vp3)
    return CloneStatistics(
        lambda_x=1.0,
        lambda_p=0.5,
        sigma_x=1.0 + vx3 / 2.0,
        sigma_p=(1.0 + vp1) / 4.0 + vp3 / 2.0,
    )


def clone_output_state(
    cfg: ClonerConfig, input_state: GaussianState, elec_noise: float = 0.0
) -> GaussianState:
    """Two-mode ensemble-average state of the clones, read from
    ``heisenberg_clone_stats``.

    Averaged over the outcomes the machine is one Gaussian channel: each
    clone is lambda times the input plus noise of variance sigma - lambda^2
    per quadrature, independent of the input.  Both clones share that noise
    but for the output-splitter ancilla, which enters them with opposite
    signs, so the cross covariance is the clone covariance less anc3.
    Accepts an arbitrary single-mode Gaussian input.
    """
    if input_state.n_modes != 1:
        raise ValueError("cloner expects a single-mode input")
    stats = heisenberg_clone_stats(cfg, elec_noise)
    gains = np.array([stats.lambda_x, stats.lambda_p])
    sigma = np.array([stats.sigma_x, stats.sigma_p])
    same = np.outer(gains, gains) * input_state.cov + np.diag(sigma - gains * gains)
    cross = same - np.diag(cfg.anc3)
    cov = np.block([[same, cross], [cross, same]])
    mean_clone = gains * input_state.mean
    return GaussianState(2, np.concatenate([mean_clone, mean_clone]), (cov + cov.T) / 2.0)


def _shot_model(cfg: ClonerConfig, elec_noise: float = 0.0) -> tuple[np.ndarray, int]:
    """Per-shot model of the Monte Carlo engine, read from ``_moments``.

    For a coherent input with quadrature means mean_q, q = x, p, outcome q is
    c * mean_q + sd * z; after conditioning on it and feeding it forward the
    clone mean is a * mean_q + b * outcome + e * n_el (both clones share it),
    and the conditional clone variance cond_var is outcome independent.
    Returns the (6, 2) rows (c, sd, a, b, e, cond_var) over (x, p) and
    the number of measured quadratures: 2, or 1 at t2 = 1, where p is not
    measured and its clone mean is a * mean_p alone.
    """
    s1, m0, var_t, var_m, cov, g = (v[0] for v in _moments(np.array([cfg.as_row()]), elec_noise))
    # var_m > 0, as each outcome carries vacuum noise; at t2 = 1 the p row's
    # "outcome" is vacuum alone, uncorrelated with the beam, so its k is 0
    k = cov / var_m
    rows = [m0, np.sqrt(var_m), (s1 - k * m0) / SQRT2, (k + g) / SQRT2, g / SQRT2,
            (var_t - k * cov + cfg.anc3) / 2.0]
    return np.array(rows), 2 if cfg.t2 < 1.0 else 1


# the feedforward detectors: x on mode 1, then p on the arm that becomes mode 1
_X1, _P1 = Quadrature.x(1), Quadrature.p(1)


@dataclass(frozen=True)
class CloningCircuit:
    """Executable realisation of the machine over the Gaussian primitives.

    Everything before the feedforward detectors depends on neither the
    stream nor the outcomes, so construction builds it once: ``_pre`` is the
    state at the detectors (mode 0 the transmitted beam, mode 1 the x arm,
    mode 2 the p arm when t2 < 1), with the output-splitter ancilla as its
    last mode.  The ancilla shares no covariance with any other mode until
    the output splitter, so measuring the arms leaves its moments exactly as
    they were, and a shot has the same bits as one that tensors the ancilla
    in after the displacement.
    """

    config: ClonerConfig
    input_state: GaussianState
    _pre: GaussianState = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.input_state.n_modes != 1:
            raise ValueError("cloner expects a single-mode input")
        cfg = self.config
        state = tensor(self.input_state, squeezed_vacuum(*cfg.anc1))
        state = beam_splitter(state, 0, 1, cfg.t1)  # mode 0 kept, mode 1 tapped
        tau = cfg.feedforward_transmission
        if tau < 1.0:
            state = tensor(state, vacuum())
            state = beam_splitter(state, 1, 2, tau)
            state = partial_trace(state, (0, 1))
        if cfg.t2 < 1.0:
            state = tensor(state, vacuum())
            state = beam_splitter(state, 1, 2, cfg.t2)
        state = tensor(state, squeezed_vacuum(*cfg.anc3))
        object.__setattr__(self, "_pre", state)

    def run(
        self, rng: np.random.Generator, elec_noise: float = 0.0
    ) -> tuple[list[MeasurementRecord], GaussianState]:
        """Execute one shot: sample the feedforward measurements, displace,
        and return the records plus the conditional two-clone state.

        Stream use per shot: one draw for the X outcome, then its electronic
        noise (if any), then the P outcome and its noise when t2 < 1.
        """
        _check_elec_noise(elec_noise)
        cfg = self.config
        rec_x, state = measure_quadrature(self._pre, _X1, rng)
        x_used = rec_x.outcome + self._elec(rng, elec_noise)
        if cfg.t2 < 1.0:
            rec_p, state = measure_quadrature(state, _P1, rng)
            p_used = rec_p.outcome + self._elec(rng, elec_noise)
            records = [rec_x, rec_p]
            g_p = cfg.g_p
        else:
            records, p_used, g_p = [rec_x], 0.0, 0.0

        # with the arms measured, mode 1 is the output-splitter ancilla
        state = displace(state, 0, cfg.g_x * x_used, g_p * p_used)
        state = beam_splitter(state, 0, 1, 0.5)
        return records, state

    @staticmethod
    def _elec(rng: np.random.Generator, elec_noise: float) -> float:
        if elec_noise > 0.0:
            return math.sqrt(elec_noise) * float(rng.standard_normal())
        return 0.0


def build_circuit(cfg: ClonerConfig, input_state: GaussianState) -> CloningCircuit:
    """Assemble the executable circuit for a single-mode input state."""
    return CloningCircuit(config=cfg, input_state=input_state)
