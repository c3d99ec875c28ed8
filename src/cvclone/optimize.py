"""Derivative-free maximisation of the fidelity objectives.

Every one-dimensional optimisation is one golden-section line search over
its whole range.  That finds the maximum of a unimodal objective, and is the
minimax search for one (Kiefer, Proc. AMS 4, 502 (1953)); the objectives
here are smooth and unimodal on their ranges.  Boundary optima are detected
by comparing the refined interior candidate against the boundary value
explicitly.  The two-dimensional squeezed-map search alternates such line
searches over the whole range of each axis in turn.

Every objective takes floats and returns a float, and ``iterations`` counts
every evaluation made.

The classical measure-and-prepare objectives are evaluated by explicit
Gauss-Hermite integration of the single-shot fidelity.  They deliberately
avoid the closed forms in :mod:`cvclone.benchmarks` so the two routes stay
independent cross-checks of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import benchmarks
from .benchmarks import KnownPhase, SymmetricGaussian, known_phase_map_fidelity
from .cloner import ClonerConfig, gaussian_machine, matched_gain

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(80)
# heterodyne_reprepare_fidelity's grid: 2 SNU of outcome noise per quadrature
# on the columns, the product weights normalised by pi
_GH_HET_NOISE = math.sqrt(2.0 * 2.0) * _GH_NODES[None, :]
_GH_HET_WEIGHTS = (_GH_WEIGHTS[:, None] * _GH_WEIGHTS[None, :]) / math.pi
_GH_HALF = len(_GH_NODES) // 2
# homodyne_squeezed_fidelity's nodes: unit-variance homodyne noise, the
# weights normalised by sqrt(pi)
_GH_HOM_NOISE = math.sqrt(2.0) * _GH_NODES
_GH_HOM_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)

__all__ = [
    "OptimizationResult",
    "golden_section_max",
    "optimize_t1",
    "optimize_phase_known",
    "optimize_classical",
    "heterodyne_reprepare_fidelity",
    "homodyne_squeezed_fidelity",
]


@dataclass(frozen=True)
class OptimizationResult:
    """Argmax, value and closed-form certificate of one optimisation.

    ``params`` is the optimal machine configuration where one exists, or a
    plain dict of named parameters for the abstract and classical searches.
    ``certificate`` maps quantity names to |numeric - closed form| gaps.
    """

    params: Union[ClonerConfig, dict]
    f_value: float
    iterations: int
    certificate: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.f_value <= 1.0 + 1e-12:
            raise ValueError(f"fidelity out of range: {self.f_value}")
        for name, gap in self.certificate.items():
            if not math.isfinite(gap):
                raise ValueError(f"certificate gap {name} is not finite")


def golden_section_max(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-12
) -> tuple[float, float, int]:
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Returns (argmax, value, evaluations); the bracket is shrunk until its
    width is below tol.
    """
    a, b = min(a, b), max(a, b)
    evals = 0
    h = b - a
    if h <= tol:
        x = (a + b) / 2.0
        return x, f(x), 1
    c = b - INV_PHI * h
    d = a + INV_PHI * h
    fc, fd = f(c), f(d)
    evals += 2
    while h > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + INV_PHI * h
            fd = f(d)
        evals += 1
    x = (a + b) / 2.0
    return x, f(x), evals + 1


def optimize_t1(v: float) -> OptimizationResult:
    """Maximise the Gaussian-alphabet fidelity over the tap transmittance.

    Golden-section search on (0, 1], with the t1 = 1 boundary compared
    explicitly since the optimum sits there for narrow alphabets.  The
    certificate reports gaps against the piecewise closed form of the
    optimum.
    """
    benchmarks.check_alphabet_variance(v)
    t1_num, f_num, evals = golden_section_max(
        lambda t1: benchmarks.gaussian_alphabet_fidelity(t1, v), 1e-6, 1.0, 1e-12
    )
    f_boundary = benchmarks.gaussian_alphabet_fidelity(1.0, v)
    evals += 1
    if f_boundary >= f_num:
        t1_num, f_num = 1.0, f_boundary

    closed = benchmarks.optimal_gaussian_fidelity(v)
    certificate = {
        "t1": abs(t1_num - closed.t1),
        "fidelity": abs(f_num - closed.fidelity),
        "gain": abs(matched_gain(t1_num) - matched_gain(closed.t1)),
    }
    return OptimizationResult(
        params=gaussian_machine(t1_num),
        f_value=f_num,
        iterations=evals,
        certificate=certificate,
    )


def _vacuum_phase_known_fidelity(lambda_p: float) -> float:
    # machine realisation: t1 = 2 lambda_p^2, x gain re-tuned for unit
    # amplitude gain; with vacuum ancillas sigma_p stays 1 while the tap
    # ancilla re-enters the amplitude quadrature away from lambda_p = 1/2;
    # the search range keeps t1 inside (0, 1)
    t1 = 2.0 * lambda_p**2
    d = 1.0 - math.sqrt(2.0 * t1)
    sigma_x = 1.5 + d * d / (2.0 * (1.0 - t1))
    return 2.0 / math.sqrt((1.0 + sigma_x) * 2.0)


def _constrained_map_fidelity(lambda_p: float, dn_x: float) -> float:
    # noise floor c = max(1, ((1-lambda_p)/lambda_p)^2) taken at equality
    c = max(1.0, ((1.0 - lambda_p) / lambda_p) ** 2)
    return known_phase_map_fidelity(lambda_p, dn_x, c / dn_x)


def optimize_phase_known(constraint: str) -> OptimizationResult:
    """Maximise the known-phase fidelity under an ancilla model.

    ``"vacuum-ancillas"`` pins all ancillas to vacuum and searches the phase
    gain alone; ``"squeezed-ancillas"`` searches (lambda_p, dn_x) with the
    conjugate noise on the active uncertainty floor dn_p = c / dn_x.
    """
    if constraint == "vacuum-ancillas":
        lam, f_num, evals = golden_section_max(_vacuum_phase_known_fidelity, 0.05, 0.70, 1e-10)
        f_closed = 2.0 / math.sqrt(5.0)
        return OptimizationResult(
            params={"lambda_p": lam},
            f_value=f_num,
            iterations=evals,
            certificate={"lambda_p": abs(lam - 0.5), "fidelity": abs(f_num - f_closed)},
        )
    if constraint == "squeezed-ancillas":
        lam, dn_x, f_num, evals = _maximize_squeezed_map()
        bound = benchmarks.phase_known_optimal_bound()
        c = max(1.0, ((1.0 - lam) / lam) ** 2)
        dn_p = c / dn_x
        return OptimizationResult(
            params={"lambda_p": lam, "dn_x": dn_x, "dn_p": dn_p},
            f_value=f_num,
            iterations=evals,
            certificate={
                "lambda_p": abs(lam - bound.lambda_p),
                "dn_x": abs(dn_x - bound.dn_x),
                "dn_p": abs(dn_p - bound.dn_p),
                "fidelity": abs(f_num - bound.fidelity),
            },
        )
    raise ValueError(f"unknown constraint {constraint!r}")


def _maximize_squeezed_map() -> tuple[float, float, float, int]:
    # cyclic coordinate ascent: a golden-section search over the whole
    # lambda_p range, then over the whole dn_x range, three times.  From each
    # of 300 dn_x starts across the range three passes reach the optimum;
    # two passes miss it from 28.
    dn, evals = (0.05 + 3.0) / 2.0, 0
    for _ in range(3):
        lam, _, e1 = golden_section_max(lambda L: _constrained_map_fidelity(L, dn), 0.10, 0.95, 1e-10)
        dn, f_num, e2 = golden_section_max(lambda u: _constrained_map_fidelity(lam, u), 0.05, 3.0, 1e-10)
        evals += e1 + e2
    return lam, dn, f_num, evals


def heterodyne_reprepare_fidelity(gain: float, v: float) -> float:
    """Average fidelity of heterodyne-and-reprepare at the given gain,
    by Gauss-Hermite integration of the single-shot overlap.

    Per quadrature the input mean is N(0, 4v), the heterodyne outcome adds
    2 SNU of noise, and the reprepared coherent state contributes
    exp(-delta^2/4) to the overlap; the full fidelity is the product of the
    two identical quadrature averages.

    The nodes and weights are symmetric about 0, so the integrand at node
    pair (i, j) equals the one at (79 - i, 79 - j) bit for bit; the gain
    sums the first 40 rows, in one (40, 80) buffer, and doubles.
    """
    benchmarks.check_alphabet_variance(v)
    xbar = math.sqrt(2.0 * 4.0 * v) * _GH_NODES[:_GH_HALF, None]
    # weights * exp(-delta^2 / 4), updated in place
    buf = np.add((gain - 1.0) * xbar, gain * _GH_HET_NOISE)
    np.square(buf, out=buf)
    buf *= -0.25
    np.exp(buf, out=buf)
    buf *= _GH_HET_WEIGHTS[:_GH_HALF]
    f = 2.0 * float(buf.sum())
    return f * f


def homodyne_squeezed_fidelity(prep_var_x: float) -> float:
    """Known-phase fidelity of homodyne-and-reprepare with a squeezed
    preparation of variances (prep_var_x, 1/prep_var_x), by Gauss-Hermite
    integration over the unit-variance homodyne noise.
    """
    s = prep_var_x
    if not s > 0:
        raise ValueError(f"preparation variance must be positive, got {prep_var_x}")
    prefactor = 2.0 / math.sqrt((1.0 + s) * (1.0 + 1.0 / s))
    return float(np.sum(_GH_HOM_WEIGHTS * prefactor * np.exp(-0.5 * _GH_HOM_NOISE**2 / (1.0 + s))))


def optimize_classical(strategy: str, alphabet=None) -> OptimizationResult:
    """Optimise a measure-and-prepare strategy; this is the numerical oracle
    behind the closed-form classical baselines.

    ``"heterodyne-reprepare"`` needs a SymmetricGaussian alphabet and searches
    the repreparation gain; ``"homodyne-squeezed"`` (known-phase alphabet)
    searches the preparation squeezing.
    """
    if strategy == "heterodyne-reprepare":
        if not isinstance(alphabet, SymmetricGaussian):
            raise ValueError("heterodyne-reprepare requires a SymmetricGaussian alphabet")
        v = alphabet.variance
        gain, f_num, evals = golden_section_max(
            lambda g: heterodyne_reprepare_fidelity(g, v), 0.0, 1.0, 1e-10
        )
        closed = benchmarks.classical_gaussian_alphabet(v)
        return OptimizationResult(
            params={"gain": gain},
            f_value=f_num,
            iterations=evals,
            certificate={"gain": abs(gain - closed.gain), "fidelity": abs(f_num - closed.fidelity)},
        )
    if strategy == "homodyne-squeezed":
        if alphabet is not None and not isinstance(alphabet, KnownPhase):
            raise ValueError("homodyne-squeezed requires the known-phase alphabet")
        s_x, f_num, evals = golden_section_max(homodyne_squeezed_fidelity, 0.05, 8.0, 1e-10)
        closed = benchmarks.classical_known_phase()
        return OptimizationResult(
            params={"prep_var_x": s_x, "prep_var_p": 1.0 / s_x},
            f_value=f_num,
            iterations=evals,
            certificate={
                "prep_var_x": abs(s_x - math.sqrt(2.0)),
                "prep_var_p": abs(1.0 / s_x - closed.prep_var_p),
                "fidelity": abs(f_num - closed.fidelity),
            },
        )
    raise ValueError(f"unknown strategy {strategy!r}")
