"""Derivative-free maximisation of the fidelity objectives.

Every optimisation here is a grid followed by golden-section refinement.
Boundary optima are detected by comparing the refined interior candidate
against the boundary value explicitly.

The one-dimensional grids are scanned coarse-to-fine (``_grid_then_golden``):
every isqrt(n - 1)-th of the n points, then a window of neighbours around the
best of those, about 3 sqrt(n) evaluations in place of n.  That finds the
grid's argmax only on a unimodal sequence of grid values, the premise of the
golden-section refinement too; the objectives here are smooth and unimodal on
their ranges (Kiefer, Proc. AMS 4, 502 (1953)).  The squeezed-map search
scans its whole (lambda_p, dn_x) grid.

An objective takes each scan as one array (the squeezed-map search its grid
as one broadcast pair), and each refinement point as a float.  The grid only
picks the bracket, and ``np.argmax`` takes the first of equal values, so
every reported value comes from the scalar calls alone; ``iterations``
counts every evaluation made.  The t1 grid is still scanned point by point
inside its objective, since the benchmark's tracer counts one
``gaussian_alphabet_fidelity`` call per evaluation.

The classical measure-and-prepare objectives are evaluated by explicit
Gauss-Hermite integration of the single-shot fidelity, one route for a
float and an array alike, so a gain has the same bits in a scan as in a
refinement step.  They deliberately avoid the closed forms in
:mod:`cvclone.benchmarks` so the two routes stay independent cross-checks
of each other.
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
# grid points of the searches (the known-phase one per axis of its map grid)
_T1_GRID_POINTS = 64
_PHASE_KNOWN_GRID_POINTS = 64
_CLASSICAL_GRID_POINTS = 201

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


def _grid_then_golden(
    f: Callable, lo: float, hi: float, grid_points: int, tol: float
) -> tuple[float, float, int]:
    """Golden-section refinement around the best point of an even grid.

    The grid is scanned coarse-to-fine: every ``stride``-th point, with
    stride = isqrt(grid_points - 1), then the 2 stride - 1 points centred on
    the best of those.  On a unimodal grid the best point of that window is
    the best point of the whole grid.  ``f`` takes each scan as one array,
    and each refinement point as a float; the grid only picks the bracket,
    so every reported value comes from a scalar call.
    """
    xs = np.linspace(lo, hi, grid_points)
    stride = max(math.isqrt(grid_points - 1), 1)
    coarse = xs[::stride]
    centre = stride * int(np.argmax(f(coarse)))
    start = max(centre - stride + 1, 0)
    window = xs[start:centre + stride]
    i = start + int(np.argmax(f(window)))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid_points - 1)]
    x, fx, evals = golden_section_max(f, float(a), float(b), tol)
    return x, fx, evals + len(coarse) + len(window)


def optimize_t1(v: float) -> OptimizationResult:
    """Maximise the Gaussian-alphabet fidelity over the tap transmittance.

    Coarse grid on (0, 1] then golden-section refinement, with the t1 = 1
    boundary compared explicitly since the optimum sits there for narrow
    alphabets.  The certificate reports gaps against the piecewise closed
    form of the optimum.
    """
    benchmarks.check_alphabet_variance(v)

    def objective(t1):
        # the grid arrives as one array but is scanned point by point:
        # perfbench's tracer test counts each of ``iterations`` as one
        # gaussian_alphabet_fidelity call
        if isinstance(t1, np.ndarray):
            return [benchmarks.gaussian_alphabet_fidelity(x, v) for x in t1.tolist()]
        return benchmarks.gaussian_alphabet_fidelity(t1, v)

    t1_num, f_num, evals = _grid_then_golden(objective, 1e-6, 1.0, _T1_GRID_POINTS, 1e-12)
    f_boundary = objective(1.0)
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


def _vacuum_phase_known_fidelity(lambda_p):
    # machine realisation: t1 = 2 lambda_p^2, x gain re-tuned for unit
    # amplitude gain; with vacuum ancillas sigma_p stays 1 while the tap
    # ancilla re-enters the amplitude quadrature away from lambda_p = 1/2;
    # 0 where no machine realises lambda_p
    t1 = 2.0 * lambda_p**2
    inside = (0.0 < t1) & (t1 < 1.0)
    t1 = np.where(inside, t1, 0.5)
    sigma_x = 1.5 + (1.0 - np.sqrt(2.0 * t1)) ** 2 / (2.0 * (1.0 - t1))
    return np.where(inside, 2.0 / np.sqrt((1.0 + sigma_x) * 2.0), 0.0)


def _constrained_map_fidelity(lambda_p, dn_x):
    # noise floor c = max(1, ((1-lambda_p)/lambda_p)^2) taken at equality
    ratio = ((1.0 - lambda_p) / lambda_p) ** 2
    c = np.maximum(1.0, ratio) if isinstance(ratio, np.ndarray) else max(1.0, ratio)
    return known_phase_map_fidelity(lambda_p, dn_x, c / dn_x)


def optimize_phase_known(constraint: str) -> OptimizationResult:
    """Maximise the known-phase fidelity under an ancilla model.

    ``"vacuum-ancillas"`` pins all ancillas to vacuum and searches the phase
    gain alone; ``"squeezed-ancillas"`` searches (lambda_p, dn_x) with the
    conjugate noise on the active uncertainty floor dn_p = c / dn_x.
    """
    if constraint == "vacuum-ancillas":
        lam, f_num, evals = _grid_then_golden(
            _vacuum_phase_known_fidelity, 0.05, 0.70, _PHASE_KNOWN_GRID_POINTS, 1e-10
        )
        f_num = float(f_num)
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
    lams = np.linspace(0.10, 0.95, _PHASE_KNOWN_GRID_POINTS)
    dns = np.linspace(0.05, 3.0, _PHASE_KNOWN_GRID_POINTS)
    # argmax takes the first of equal values, in row-major (lambda_p, dn) order
    grid = _constrained_map_fidelity(lams[:, None], dns[None, :])
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    lam, dn = float(lams[i]), float(dns[j])
    evals = _PHASE_KNOWN_GRID_POINTS * _PHASE_KNOWN_GRID_POINTS
    # alternate 1-D golden refinements; the objective is smooth and the
    # optimum interior, two passes land well inside 1e-6
    for _ in range(3):
        lam, _, e1 = golden_section_max(
            lambda L: _constrained_map_fidelity(L, dn), max(lam - 0.1, 0.01), min(lam + 0.1, 0.99), 1e-10
        )
        dn, f_num, e2 = golden_section_max(
            lambda u: _constrained_map_fidelity(lam, u), max(dn - 0.3, 1e-3), dn + 0.3, 1e-10
        )
        evals += e1 + e2
    return lam, dn, f_num, evals


def heterodyne_reprepare_fidelity(gain, v: float):
    """Average fidelity of heterodyne-and-reprepare at the given gain,
    by Gauss-Hermite integration of the single-shot overlap.

    Per quadrature the input mean is N(0, 4v), the heterodyne outcome adds
    2 SNU of noise, and the reprepared coherent state contributes
    exp(-delta^2/4) to the overlap; the full fidelity is the product of the
    two identical quadrature averages.

    The nodes and weights are symmetric about 0, so the integrand at node
    pair (i, j) equals the one at (79 - i, 79 - j) bit for bit; each gain
    sums the first 40 rows and doubles.  An array of gains gives an array of
    fidelities, one (40, 80) half grid per gain in one buffer, and a gain
    has the same bits alone, as a one-element array and inside a grid.
    """
    benchmarks.check_alphabet_variance(v)
    xbar = math.sqrt(2.0 * 4.0 * v) * _GH_NODES[:_GH_HALF, None]
    g = np.reshape(np.asarray(gain, float), (-1, 1, 1))
    # weights * exp(-delta^2 / 4), updated in place
    buf = np.add((g - 1.0) * xbar, g * _GH_HET_NOISE)
    np.square(buf, out=buf)
    buf *= -0.25
    np.exp(buf, out=buf)
    buf *= _GH_HET_WEIGHTS[:_GH_HALF]
    f = (2.0 * buf.sum(axis=(1, 2))) ** 2
    return f if isinstance(gain, np.ndarray) else float(f[0])


def homodyne_squeezed_fidelity(prep_var_x):
    """Known-phase fidelity of homodyne-and-reprepare with a squeezed
    preparation of variances (prep_var_x, 1/prep_var_x), by Gauss-Hermite
    integration over the unit-variance homodyne noise.  An array of
    variances gives an array of fidelities.
    """
    s = np.asarray(prep_var_x, dtype=float)
    if (s <= 0).any():
        raise ValueError(f"preparation variance must be positive, got {prep_var_x}")
    s = s[..., None]
    noise = math.sqrt(2.0) * _GH_NODES
    weights = _GH_WEIGHTS / math.sqrt(math.pi)
    prefactor = 2.0 / np.sqrt((1.0 + s) * (1.0 + 1.0 / s))
    f = np.sum(weights * prefactor * np.exp(-0.5 * noise**2 / (1.0 + s)), axis=-1)
    return f if isinstance(prep_var_x, np.ndarray) else float(f)


def optimize_classical(strategy: str, alphabet=None) -> OptimizationResult:
    """Optimise a measure-and-prepare strategy; this is the numerical oracle
    behind the closed-form classical baselines.

    ``"heterodyne-reprepare"`` needs a SymmetricGaussian alphabet and scans
    the repreparation gain; ``"homodyne-squeezed"`` (known-phase alphabet)
    scans the preparation squeezing.
    """
    if strategy == "heterodyne-reprepare":
        if not isinstance(alphabet, SymmetricGaussian):
            raise ValueError("heterodyne-reprepare requires a SymmetricGaussian alphabet")
        v = alphabet.variance
        gain, f_num, evals = _grid_then_golden(
            lambda g: heterodyne_reprepare_fidelity(g, v),
            0.0, 1.0, _CLASSICAL_GRID_POINTS, 1e-10,
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
        s_x, f_num, evals = _grid_then_golden(
            homodyne_squeezed_fidelity, 0.05, 8.0, _CLASSICAL_GRID_POINTS, 1e-10
        )
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
