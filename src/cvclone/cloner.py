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

All statistics are exact consequences of the linear input-output relations;
the same coefficients drive the analytic clone statistics, the ensemble
output state and the per-shot trajectory model used by the Monte Carlo
engine.
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

__all__ = [
    "VACUUM_ANCILLA",
    "ClonerConfig",
    "CloneStatistics",
    "matched_gain",
    "gaussian_machine",
    "phase_known_machine",
    "heisenberg_clone_stats",
    "phase_known_clone_stats",
    "clone_output_state",
    "build_circuit",
    "CloningCircuit",
]


def _check_fraction(name: str, value: float) -> float:
    """``value`` if it lies in (0, 1]; NaN and infinities fail too."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def _check_ancilla(name: str, spec) -> tuple[float, float]:
    vx, vp = float(spec[0]), float(spec[1])
    if not (0.0 < vx < math.inf and 0.0 < vp < math.inf):
        raise ValueError(f"{name} variances must be finite and positive")
    if vx * vp < 1.0 - 1e-9:
        raise ValueError(f"{name} variance product {vx * vp:.6g} violates uncertainty")
    return vx, vp


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
        if not 0.0 <= self.t1 <= 1.0:
            raise ValueError(f"t1 must lie in [0, 1], got {self.t1}")
        if not 0.0 <= self.t2 <= 1.0:
            raise ValueError(f"t2 must lie in [0, 1], got {self.t2}")
        # the loss parameters first: a gain derived from a bad one is NaN
        _check_fraction("eta_ff", self.eta_ff)
        _check_fraction("visibility", self.visibility)
        if not (math.isfinite(self.g_x) and math.isfinite(self.g_p)):
            raise ValueError("electronic gains must be finite")
        object.__setattr__(self, "anc1", _check_ancilla("anc1", self.anc1))
        object.__setattr__(self, "anc3", _check_ancilla("anc3", self.anc3))

    @property
    def feedforward_transmission(self) -> float:
        """Loss-channel transmission of the measurement arm."""
        return self.eta_ff * self.visibility**2


@dataclass(frozen=True)
class CloneStatistics:
    """Per-clone mean gains and total quadrature variances (SNU).

    Both clones of the symmetric machine share these statistics.
    """

    lambda_x: float
    lambda_p: float
    sigma_x: float
    sigma_p: float

    def __post_init__(self):
        if self.sigma_x <= 0 or self.sigma_p <= 0:
            raise ValueError("clone variances must be positive")

    def referred_noise(self) -> tuple[float, float]:
        """Noise variances referred to the input, (sigma - lambda^2)/lambda^2."""
        if self.lambda_x == 0 or self.lambda_p == 0:
            raise ValueError("referred noise undefined at zero gain")
        return (
            (self.sigma_x - self.lambda_x**2) / self.lambda_x**2,
            (self.sigma_p - self.lambda_p**2) / self.lambda_p**2,
        )


def matched_gain(t1: float) -> float:
    """Electronic gain sqrt(2(1-t1)/t1) that cancels the tap ancilla at
    t2 = 1/2 and yields amplitude gain 1/sqrt(2 t1)."""
    if not 0.0 < t1 <= 1.0:
        raise ValueError(f"matched gain needs t1 in (0, 1], got {t1}")
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
    tau = _check_fraction("eta_ff", eta_ff) * _check_fraction("visibility", visibility) ** 2
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
    tau = _check_fraction("eta_ff", eta_ff) * _check_fraction("visibility", visibility) ** 2
    g_x = (2.0 * lambda_x - 1.0) / math.sqrt(tau)
    return ClonerConfig(
        t1=0.5, t2=1.0, g_x=g_x, g_p=0.0, anc1=anc1, anc3=anc3,
        eta_ff=eta_ff, visibility=visibility,
    )


@dataclass(frozen=True)
class _MapCoefficients:
    """Quadrature coefficients of the displaced beam over the noise sources
    (input, a1, a2, loss vacuum), plus the measured-operator decomposition."""

    tx: np.ndarray  # transmitted beam, x
    tp: np.ndarray
    mx: np.ndarray  # measured X operator
    mp: np.ndarray  # measured P operator (inert when t2 == 1)
    cx: np.ndarray  # displaced beam, x = tx + g_x * mx
    cp: np.ndarray
    varx: np.ndarray  # source variances, input shot noise first
    varp: np.ndarray
    g_x: float
    g_p: float  # effective gain (0 when t2 == 1)
    anc3: tuple[float, float]
    has_p_outcome: bool


def _coefficients(cfg: ClonerConfig) -> _MapCoefficients:
    s1, r1 = math.sqrt(cfg.t1), math.sqrt(1.0 - cfg.t1)
    s2, r2 = math.sqrt(cfg.t2), math.sqrt(1.0 - cfg.t2)
    tau = cfg.feedforward_transmission
    st, rt = math.sqrt(tau), math.sqrt(1.0 - tau)
    has_p = cfg.t2 < 1.0
    g_p = cfg.g_p if has_p else 0.0

    tx = np.array([s1, r1, 0.0, 0.0])
    tp = tx.copy()
    mx = np.array([st * s2 * r1, -st * s2 * s1, r2, rt * s2])
    mp = np.array([st * r2 * r1, -st * r2 * s1, -s2, rt * r2])
    vx1, vp1 = cfg.anc1
    return _MapCoefficients(
        tx=tx,
        tp=tp,
        mx=mx,
        mp=mp,
        cx=tx + cfg.g_x * mx,
        cp=tp + g_p * mp,
        varx=np.array([1.0, vx1, 1.0, 1.0]),
        varp=np.array([1.0, vp1, 1.0, 1.0]),
        g_x=cfg.g_x,
        g_p=g_p,
        anc3=cfg.anc3,
        has_p_outcome=has_p,
    )


def heisenberg_clone_stats(cfg: ClonerConfig, elec_noise: float = 0.0) -> CloneStatistics:
    """Exact gains and total variances of either clone for a coherent input.

    Computed from the linear input-output relations; ``elec_noise`` is an
    optional classical noise variance added to each feedforward outcome.
    At t2 = 1/2 with the matched gain this reduces to gain 1/sqrt(2 t1) and
    variance 1/t1 per quadrature.
    """
    if cfg.t1 == 0.0:
        raise ValueError("t1 = 0 requires infinite feedforward gain")
    if not (math.isfinite(elec_noise) and elec_noise >= 0):
        raise ValueError(f"elec_noise must be finite and non-negative, got {elec_noise}")
    c = _coefficients(cfg)
    vx3, vp3 = c.anc3
    var_dx = float(c.cx @ (c.cx * c.varx)) + c.g_x**2 * elec_noise
    var_dp = float(c.cp @ (c.cp * c.varp)) + c.g_p**2 * elec_noise
    return CloneStatistics(
        lambda_x=float(c.cx[0]) / SQRT2,
        lambda_p=float(c.cp[0]) / SQRT2,
        sigma_x=var_dx / 2.0 + vx3 / 2.0,
        sigma_p=var_dp / 2.0 + vp3 / 2.0,
    )


def phase_known_clone_stats(anc1, anc3) -> CloneStatistics:
    """Clone statistics of the phase-known machine, written out directly.

    lambda_x = 1, lambda_p = 1/2, sigma_x = 1 + var_x(a3)/2 and
    sigma_p = (1 + var_p(a1))/4 + var_p(a3)/2.  Matches
    ``heisenberg_clone_stats`` on the equivalent configuration.
    """
    vx1, vp1 = _check_ancilla("anc1", anc1)
    vx3, vp3 = _check_ancilla("anc3", anc3)
    return CloneStatistics(
        lambda_x=1.0,
        lambda_p=0.5,
        sigma_x=1.0 + vx3 / 2.0,
        sigma_p=(1.0 + vp1) / 4.0 + vp3 / 2.0,
    )


def clone_output_state(
    cfg: ClonerConfig, input_state: GaussianState, elec_noise: float = 0.0
) -> GaussianState:
    """Two-mode ensemble-average state of the clones.

    Marginals carry the gains and variances of ``heisenberg_clone_stats``;
    the cross covariance reflects the noise shared through the displaced
    beam (for each quadrature it equals sigma minus the a3 variance).
    Accepts an arbitrary single-mode Gaussian input.
    """
    if input_state.n_modes != 1:
        raise ValueError("cloner expects a single-mode input")
    if cfg.t1 == 0.0:
        raise ValueError("t1 = 0 requires infinite feedforward gain")
    c = _coefficients(cfg)
    vx3, vp3 = c.anc3

    lam = np.diag([float(c.cx[0]) / SQRT2, float(c.cp[0]) / SQRT2])
    shared = lam @ input_state.cov @ lam.T
    # noise entering through the displaced beam, excluding the input itself
    nx = (
        float(c.cx[1:] @ (c.cx[1:] * c.varx[1:])) + c.g_x**2 * elec_noise
    ) / 2.0
    np_ = (
        float(c.cp[1:] @ (c.cp[1:] * c.varp[1:])) + c.g_p**2 * elec_noise
    ) / 2.0

    same = shared + np.diag([nx + vx3 / 2.0, np_ + vp3 / 2.0])
    cross = shared + np.diag([nx - vx3 / 2.0, np_ - vp3 / 2.0])
    cov = np.block([[same, cross], [cross.T, same]])
    mean_clone = lam @ input_state.mean
    return GaussianState(2, np.concatenate([mean_clone, mean_clone]), (cov + cov.T) / 2.0)


@dataclass(frozen=True)
class _TrajectoryModel:
    """Affine per-shot model extracted from the circuit.

    For a coherent input with mean (xbar, pbar), the measured X outcome is
    N(out_coeff_x * xbar, out_var_x); after conditioning and feedforward the
    clone mean is ax*xbar + bx*X + ex*n_el (both clones share it), and the
    conditional clone covariance cond_var is outcome independent.
    """

    out_coeff_x: float
    out_var_x: float
    out_coeff_p: float
    out_var_p: float
    ax: float
    bx: float
    ex: float
    ap: float
    bp: float
    ep: float
    cond_var: np.ndarray  # marginal (x, p) covariance diagonal of one clone
    has_p_outcome: bool
    elec_noise: float


def _trajectory_model(cfg: ClonerConfig, elec_noise: float = 0.0) -> _TrajectoryModel:
    if cfg.t1 == 0.0:
        raise ValueError("t1 = 0 requires infinite feedforward gain")
    if not (math.isfinite(elec_noise) and elec_noise >= 0):
        raise ValueError(f"elec_noise must be finite and non-negative, got {elec_noise}")
    c = _coefficients(cfg)
    vx3, vp3 = c.anc3

    var_xm = float(c.mx @ (c.mx * c.varx))
    var_pm = float(c.mp @ (c.mp * c.varp))
    cov_tx = float(c.tx @ (c.mx * c.varx))
    cov_tp = float(c.tp @ (c.mp * c.varp))
    kx = cov_tx / var_xm if var_xm > 0 else 0.0
    kp = (cov_tp / var_pm if var_pm > 0 else 0.0) if c.has_p_outcome else 0.0

    var_tx = float(c.tx @ (c.tx * c.varx))
    var_tp = float(c.tp @ (c.tp * c.varp))
    cond_tx = var_tx - kx * cov_tx
    cond_tp = var_tp - kp * cov_tp if c.has_p_outcome else var_tp

    return _TrajectoryModel(
        out_coeff_x=float(c.mx[0]),
        out_var_x=var_xm,
        out_coeff_p=float(c.mp[0]),
        out_var_p=var_pm,
        ax=(float(c.tx[0]) - kx * float(c.mx[0])) / SQRT2,
        bx=(kx + c.g_x) / SQRT2,
        ex=c.g_x / SQRT2,
        ap=(float(c.tp[0]) - kp * float(c.mp[0])) / SQRT2,
        bp=(kp + c.g_p) / SQRT2,
        ep=c.g_p / SQRT2,
        cond_var=np.array([(cond_tx + vx3) / 2.0, (cond_tp + vp3) / 2.0]),
        has_p_outcome=c.has_p_outcome,
        elec_noise=elec_noise,
    )


# the feedforward detectors: x on mode 1, then p on the arm that becomes mode 1
_X1, _P1 = Quadrature.x(1), Quadrature.p(1)


@dataclass(frozen=True)
class CloningCircuit:
    """Executable realisation of the machine over the Gaussian primitives.

    Everything before the feedforward detectors depends on neither the
    stream nor the outcomes, so construction builds it once: ``_pre`` is the
    state at the detectors (mode 0 the transmitted beam, mode 1 the x arm,
    mode 2 the p arm when t2 < 1) and ``_anc3`` the output-splitter ancilla.
    """

    config: ClonerConfig
    input_state: GaussianState
    _pre: GaussianState = field(init=False, repr=False, compare=False)
    _anc3: GaussianState = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_pre", state)
        object.__setattr__(self, "_anc3", squeezed_vacuum(*cfg.anc3))

    def run(
        self, rng: np.random.Generator, elec_noise: float = 0.0
    ) -> tuple[list[MeasurementRecord], GaussianState]:
        """Execute one shot: sample the feedforward measurements, displace,
        and return the records plus the conditional two-clone state.

        Stream use per shot: one draw for the X outcome, then its electronic
        noise (if any), then the P outcome and its noise when t2 < 1.
        """
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

        state = displace(state, 0, cfg.g_x * x_used, g_p * p_used)
        state = tensor(state, self._anc3)
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
