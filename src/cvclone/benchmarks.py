"""Input alphabets, exact average fidelities and classical baselines.

Alphabets are families of coherent input states.  The symmetric Gaussian
alphabet draws complex amplitudes from an isotropic Gaussian of variance V,
so under the pinned scaling (coherent mean = twice the complex amplitude)
each quadrature mean has variance 4V.  The known-phase alphabet fixes the
phase and leaves the amplitude completely undetermined; by convention it is
rotated so the states lie on the x axis, which is what makes the machine's
unit amplitude gain mandatory.

Average fidelity of a machine with gains (lx, lp) and clone variances
(sx, sp) over the Gaussian alphabet:

    F = 2 / sqrt((1 + sx + 4V(1-lx)^2) (1 + sp + 4V(1-lp)^2))

The classical (measure-and-prepare) baselines below are closed forms that
were validated against the numerical-integration oracles in
:mod:`cvclone.optimize` before being exposed here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cloner import CloneStatistics
from .gaussian import GaussianState, fidelity_coherent_vs_gaussian

UNIT_GAIN_TOL = 1e-9

__all__ = [
    "SymmetricGaussian",
    "KnownPhase",
    "Single",
    "Alphabet",
    "MAX_ALPHABET_VARIANCE",
    "check_alphabet_variance",
    "Regime",
    "average_fidelity",
    "gaussian_alphabet_fidelity",
    "optimal_gaussian_fidelity",
    "classical_gaussian_alphabet",
    "classical_known_phase",
    "phase_known_optimal_bound",
    "known_phase_map_fidelity",
    "BEAM_SPLITTER_THRESHOLD",
    "KNOWN_PHASE_BENCHMARK_NOTE",
]

# Above this alphabet variance the feedforward machine beats a bare beam
# splitter; below it the t1 = 1 boundary solution is optimal.
BEAM_SPLITTER_THRESHOLD = 0.5 + 1.0 / math.sqrt(2.0)

KNOWN_PHASE_BENCHMARK_NOTE = (
    "Known-phase measure-and-prepare optimum: homodyne the amplitude "
    "quadrature and reprepare a squeezed state (prep variances sqrt(2), "
    "1/sqrt(2)) displaced to the outcome, giving F = 2/sqrt(3 + 2*sqrt(2)) "
    "= 2*(sqrt(2) - 1) ~= 0.8284.  The radicand is sometimes misquoted as "
    "3 + sqrt(2), which would give ~0.952 and is inconsistent with the "
    "~0.828 optimum; the value here is pinned by the numerical oracle."
)


# the widest alphabet whose results stay right: the optimal gain
# 1/sqrt(2 t1) rounds to 1 + a few ulp, and the gain penalty 4V(1 - lambda)^2
# multiplies that rounding by V.  At 1e15 optimize_t1's certificate gap is
# about 2e-11, ten times inside verify's 1e-9; at 1e18 it is 2e-8.
MAX_ALPHABET_VARIANCE = 1e15


def check_alphabet_variance(v) -> None:
    """Reject an alphabet variance outside (0, ``MAX_ALPHABET_VARIANCE``], NaN too."""
    if not 0.0 < v <= MAX_ALPHABET_VARIANCE:
        raise ValueError("alphabet variance must be finite and positive, and at most "
                         f"{MAX_ALPHABET_VARIANCE:.6g}, got {v}")


@dataclass(frozen=True)
class SymmetricGaussian:
    """Isotropic Gaussian alphabet of coherent states with variance V > 0."""

    variance: float

    def __post_init__(self):
        check_alphabet_variance(self.variance)


@dataclass(frozen=True)
class KnownPhase:
    """Coherent states of known, constant phase and unbounded flat amplitude.

    Statistics are evaluated in the frame rotated so the known phase is 0
    (amplitudes on the x axis, zero phase-quadrature mean), so the alphabet
    has no parameters.
    """


@dataclass(frozen=True)
class Single:
    """A single known coherent state with the given quadrature means."""

    x_mean: float
    p_mean: float

    def __post_init__(self):
        if not (math.isfinite(self.x_mean) and math.isfinite(self.p_mean)):
            raise ValueError("coherent means must be finite")


Alphabet = Union[SymmetricGaussian, KnownPhase, Single]


class Regime(enum.Enum):
    FEEDFORWARD = "feedforward"
    BEAM_SPLITTER_ONLY = "beam-splitter-only"


def average_fidelity(stats: CloneStatistics, alphabet: Alphabet) -> float:
    """Average cloning fidelity of the given machine statistics.

    Gaussian alphabet: closed Gaussian integral with the 4V(1-lambda)^2 gain
    penalty per quadrature.  Single state: the one-shot overlap.  Known
    phase: requires unit amplitude gain, else the average over the unbounded
    amplitudes vanishes and the request is rejected.
    """
    if isinstance(alphabet, SymmetricGaussian):
        v = alphabet.variance
        gx = 1.0 + stats.sigma_x + 4.0 * v * (1.0 - stats.lambda_x) ** 2
        gp = 1.0 + stats.sigma_p + 4.0 * v * (1.0 - stats.lambda_p) ** 2
        return 2.0 / math.sqrt(gx * gp)
    if isinstance(alphabet, Single):
        clone = GaussianState(
            1,
            np.array([stats.lambda_x * alphabet.x_mean, stats.lambda_p * alphabet.p_mean]),
            np.diag([stats.sigma_x, stats.sigma_p]),
        )
        return fidelity_coherent_vs_gaussian((alphabet.x_mean, alphabet.p_mean), clone)
    if isinstance(alphabet, KnownPhase):
        if abs(stats.lambda_x - 1.0) > UNIT_GAIN_TOL:
            raise ValueError(
                "known-phase average diverges unless lambda_x = 1 "
                f"(got {stats.lambda_x})"
            )
        return 2.0 / math.sqrt((1.0 + stats.sigma_x) * (1.0 + stats.sigma_p))
    raise TypeError(f"unsupported alphabet {alphabet!r}")


def gaussian_alphabet_fidelity(t1: float, v: float) -> float:
    """Average fidelity of the matched-gain machine at tap transmittance t1
    over the Gaussian alphabet of variance v:

        F = 2 t1 / (2 v (1 - sqrt(2 t1))^2 + t1 + 1)
    """
    if not 0.0 < t1 <= 1.0:
        raise ValueError(f"t1 must lie in (0, 1], got {t1}")
    check_alphabet_variance(v)
    return 2.0 * t1 / (2.0 * v * (1.0 - math.sqrt(2.0 * t1)) ** 2 + t1 + 1.0)


class OptimalGaussian(NamedTuple):
    fidelity: float
    t1: float
    regime: Regime


def optimal_gaussian_fidelity(v: float) -> OptimalGaussian:
    """Best matched-gain fidelity over t1 for the Gaussian alphabet.

    Piecewise: for v >= 1/2 + 1/sqrt(2) the feedforward optimum
    t1 = ((1/(2v) + 1)^2)/2 gives F = (4v+2)/(6v+1); below the threshold the
    boundary solution t1 = 1 (bare beam splitter, zero gain) gives
    F = 1/((3 - 2 sqrt(2)) v + 1).
    """
    check_alphabet_variance(v)
    if v >= BEAM_SPLITTER_THRESHOLD:
        t1 = 0.5 * (1.0 / (2.0 * v) + 1.0) ** 2
        return OptimalGaussian((4.0 * v + 2.0) / (6.0 * v + 1.0), t1, Regime.FEEDFORWARD)
    return OptimalGaussian(
        1.0 / ((3.0 - 2.0 * math.sqrt(2.0)) * v + 1.0), 1.0, Regime.BEAM_SPLITTER_ONLY
    )


class ClassicalGaussian(NamedTuple):
    fidelity: float
    gain: float


def classical_gaussian_alphabet(v: float) -> ClassicalGaussian:
    """Measure-and-prepare baseline for the Gaussian alphabet.

    Heterodyne both quadratures (2 SNU of measurement noise each) and
    reprepare a coherent state scaled by the gain.  The optimum is
    g = 2v/(1+2v) with F = (1+2v)/(1+4v); derived here, not a quoted value,
    and checked against the integration oracle.
    """
    check_alphabet_variance(v)
    return ClassicalGaussian((1.0 + 2.0 * v) / (1.0 + 4.0 * v), 2.0 * v / (1.0 + 2.0 * v))


class ClassicalKnownPhase(NamedTuple):
    fidelity: float
    prep_var_p: float


def classical_known_phase() -> ClassicalKnownPhase:
    """Measure-and-prepare baseline for the known-phase alphabet.

    Homodyne the amplitude quadrature and reprepare a squeezed state
    displaced to the outcome.  The optimal preparation variances are
    (sqrt(2), 1/sqrt(2)) and F = 2/sqrt(3 + 2 sqrt(2)) ~= 0.8284; see
    ``KNOWN_PHASE_BENCHMARK_NOTE`` for the misquoted-radicand caveat.
    """
    return ClassicalKnownPhase(2.0 / math.sqrt(3.0 + 2.0 * math.sqrt(2.0)), 1.0 / math.sqrt(2.0))


class PhaseKnownBound(NamedTuple):
    fidelity: float
    lambda_p: float
    dn_x: float
    dn_p: float


def phase_known_optimal_bound() -> PhaseKnownBound:
    """Optimal Gaussian cloning point for the known-phase alphabet.

    Maximising the fidelity over (lambda_p, referred noises) subject to the
    commutation floor dn_x * dn_p >= 1 and the single-clone constraint
    dn_x * dn_p >= ((1-lambda_p)/lambda_p)^2 lands on lambda_p = 1/2,
    dn_x = sqrt(2/5), dn_p = sqrt(5/2), where F = 4 (sqrt(10) - 1) / 9.
    """
    return PhaseKnownBound(
        4.0 * (math.sqrt(10.0) - 1.0) / 9.0,
        0.5,
        math.sqrt(2.0 / 5.0),
        math.sqrt(5.0 / 2.0),
    )


def known_phase_map_fidelity(lambda_p: float, dn_x: float, dn_p: float) -> float:
    """Known-phase fidelity of a generic unit-amplitude-gain Gaussian map.

    Output variances are sigma_x = 1 + dn_x and
    sigma_p = lambda_p^2 (1 + dn_p), so

        F = 2 / sqrt((2 + dn_x)(1 + lambda_p^2 (1 + dn_p))).

    No constraint between the noises is enforced here; feasibility is the
    optimizer's job.  Floats in, one float out.
    """
    if dn_x < 0 or dn_p < 0:
        raise ValueError("referred noise variances must be non-negative")
    return 2.0 / math.sqrt((2.0 + dn_x) * (1.0 + lambda_p**2 * (1.0 + dn_p)))
