"""The paper's experiments: the fidelity-versus-width sweep (Figure 3), the
known-phase noise budget (Figure 4) and the closed-form identity suite that
``cvclone verify`` runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import benchmarks, optimize
from .benchmarks import (
    BEAM_SPLITTER_THRESHOLD,
    KnownPhase,
    SymmetricGaussian,
    average_fidelity,
    classical_gaussian_alphabet,
    classical_known_phase,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from .cloner import (
    MACHINE_COLUMNS,
    ClonerConfig,
    batched_clone_stats,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)
from .montecarlo import KNOWN_PHASE_AMPLITUDES, run_batch

__all__ = [
    "MAX_SWEEP_STEPS",
    "sweep_rows",
    "reproduce_figure3",
    "reproduce_figure4",
    "verification_checks",
]

# most V grid points a sweep accepts: every row is held in memory, and 10**5
# rows take about 4 s and 150 MB on one core
MAX_SWEEP_STEPS = 10**5


def sweep_rows(v_grid, eta_ff: float, visibility: float, fixed=None) -> list[dict[str, float]]:
    """Fidelity-versus-width rows: ideal machine, lossy machine and classical
    baseline at each V, with keys sqrt_v, v, t1, gain, f_ideal, f_imperfect
    and f_classical.

    By default each V gets its optimal machine, and the lossy one keeps the
    gain re-tuned to the ideal optical gain.  ``fixed = (t1, g_x, g_p)``
    holds one operating point across the grid instead; its gain column is
    g_x.
    """
    rows, machines = [], []
    for v in v_grid:
        if fixed is None:
            t1 = optimal_gaussian_fidelity(v).t1
            gain = matched_gain(t1)
            ideal = gaussian_machine(t1)
            lossy = gaussian_machine(t1, eta_ff, visibility)
        else:
            t1, gain, g_p = fixed
            ideal = ClonerConfig(t1=t1, t2=0.5, g_x=gain, g_p=g_p)
            lossy = ClonerConfig(
                t1=t1, t2=0.5, g_x=gain, g_p=g_p, eta_ff=eta_ff, visibility=visibility
            )
        machines += [ideal.as_row(), lossy.as_row()]
        rows.append({"sqrt_v": math.sqrt(v), "v": v, "t1": t1, "gain": gain})
    stats = batched_clone_stats(np.reshape(machines, (-1, len(MACHINE_COLUMNS))))
    for i, row in enumerate(rows):
        alphabet = SymmetricGaussian(row["v"])
        row["f_ideal"] = average_fidelity(stats.machine(2 * i), alphabet)
        row["f_imperfect"] = average_fidelity(stats.machine(2 * i + 1), alphabet)
        row["f_classical"] = classical_gaussian_alphabet(row["v"]).fidelity
    return rows


def reproduce_figure3(
    v_grid,
    eta_ff: float = 0.95,
    visibility: float = 0.99,
    n_traj: int = 20000,
    seed: int = 20240601,
) -> list[dict[str, float]]:
    """The optimal-machine ``sweep_rows`` plus a Monte Carlo estimate of the
    lossy machine at each V (``f_mc``, ``se_mc``), with seed ``seed + i`` at
    the i-th V.

    In the beam-splitter regime (zero gain) the lossy curve coincides
    exactly with the ideal one.  ``n_traj`` must be at least 2.
    """
    rows = sweep_rows(v_grid, eta_ff, visibility)
    for i, row in enumerate(rows):
        lossy = gaussian_machine(row["t1"], eta_ff, visibility)
        batch = run_batch(lossy, SymmetricGaussian(row["v"]), n_traj, seed + i)
        row["f_mc"] = batch.f_hat
        row["se_mc"] = batch.se_f
    return rows


def reproduce_figure4(
    eta_ff: float = 0.95,
    visibility: float = 0.99,
    lambda_x: float = 1.0,
    anc1=(1.0, 1.0),
    anc3=(1.0, 1.0),
    n_traj: int = 0,
    seed: int = 20240601,
) -> dict:
    """Amplitude-noise report of the phase-known machine, in dB above shot
    noise, next to its fidelity, the classical baseline and the optimal
    bound.

    The lossy machine re-tunes the gain to the requested amplitude gain.
    At unit gain the fidelity is the exact known-phase average; away from
    it the report averages the single-shot fidelity over the representative
    amplitude grid, since the flat-amplitude average is undefined there.
    ``n_traj`` >= 2 adds a Monte Carlo estimate (``f_mc``, ``se_mc``) and
    0 skips it.
    """
    if n_traj < 0:
        raise ValueError(f"n_traj must be non-negative (0 skips the Monte Carlo), got {n_traj}")
    if n_traj == 1:
        # one trajectory has no standard error
        raise ValueError("n_traj must be 0 (no Monte Carlo) or at least 2, got 1")
    ideal_stats = phase_known_clone_stats(anc1, anc3)
    lossy_cfg = phase_known_machine(anc1, anc3, eta_ff, visibility, lambda_x)
    lossy_stats = heisenberg_clone_stats(lossy_cfg)
    report = {
        "ideal_noise_db": 10.0 * math.log10(ideal_stats.sigma_x),
        "imperfect_noise_db": 10.0 * math.log10(lossy_stats.sigma_x),
        "f_ideal": average_fidelity(ideal_stats, KnownPhase()),
        "f_imperfect": _known_phase_fidelity(lossy_stats),
        "f_classical": classical_known_phase().fidelity,
        "f_bound": phase_known_optimal_bound().fidelity,
        "lambda_x": lossy_stats.lambda_x,
    }
    if n_traj > 0:
        batch = run_batch(lossy_cfg, KnownPhase(), n_traj, seed)
        report["f_mc"] = batch.f_hat
        report["se_mc"] = batch.se_f
    return report


def _known_phase_fidelity(stats) -> float:
    if abs(stats.lambda_x - 1.0) <= benchmarks.UNIT_GAIN_TOL:
        return average_fidelity(stats, KnownPhase())
    amps = np.asarray(KNOWN_PHASE_AMPLITUDES)
    gx = 1.0 + stats.sigma_x
    gp = 1.0 + stats.sigma_p
    f = 2.0 / math.sqrt(gx * gp) * np.exp(-0.5 * ((stats.lambda_x - 1.0) * amps) ** 2 / gx)
    return float(np.mean(f))


def verification_checks() -> list[tuple[str, float, float]]:
    """Closed-form identity suite: (name, gap, tolerance) rows."""
    checks: list[tuple[str, float, float]] = []

    gaps = []
    for v in np.arange(0.2, 5.01, 0.2):
        res = optimize.optimize_t1(float(v))
        gaps.append(res.certificate["fidelity"])
    checks.append(("gaussian-optimum-matches-closed-form", max(gaps), 1e-9))

    vt = BEAM_SPLITTER_THRESHOLD
    upper = (4.0 * vt + 2.0) / (6.0 * vt + 1.0)
    lower = 1.0 / ((3.0 - 2.0 * math.sqrt(2.0)) * vt + 1.0)
    checks.append(("optimum-branches-continuous-at-threshold", abs(upper - lower), 1e-12))

    flat = average_fidelity(heisenberg_clone_stats(gaussian_machine(0.5)), SymmetricGaussian(1e6))
    checks.append(("flat-limit-fidelity-two-thirds", abs(flat - 2.0 / 3.0), 1e-4))

    vac = average_fidelity(
        phase_known_clone_stats((1.0, 1.0), (1.0, 1.0)), KnownPhase()
    )
    checks.append(("phase-known-vacuum-fidelity", abs(vac - 2.0 / math.sqrt(5.0)), 1e-9))

    squeezed = average_fidelity(
        phase_known_clone_stats((1e6, 1e-6), (math.sqrt(8.0 / 5.0), math.sqrt(5.0 / 8.0))),
        KnownPhase(),
    )
    bound = phase_known_optimal_bound()
    checks.append(("phase-known-squeezed-reaches-bound", abs(squeezed - bound.fidelity), 1e-6))

    res = optimize.optimize_phase_known("squeezed-ancillas")
    checks.append(
        (
            "phase-known-optimizer-parameters",
            max(res.certificate["lambda_p"], res.certificate["dn_x"], res.certificate["dn_p"]),
            1e-4,
        )
    )

    res = optimize.optimize_classical("homodyne-squeezed")
    checks.append(("classical-known-phase-oracle", res.certificate["fidelity"], 1e-6))
    checks.append(("classical-known-phase-squeezing", res.certificate["prep_var_x"], 1e-3))

    gaps = []
    for v in (0.5, 1.0, 1.72, 3.0, 5.0):
        res = optimize.optimize_classical("heterodyne-reprepare", SymmetricGaussian(v))
        gaps.append(res.certificate["fidelity"])
    checks.append(("classical-gaussian-oracle", max(gaps), 1e-6))

    t1 = np.linspace(0.05, 1.0, 39)
    g = [matched_gain(t) for t in t1.tolist()]
    stats = batched_clone_stats(_machines(t1=t1, g_x=g, g_p=g))
    law = 1.0 / np.sqrt(2.0 * t1)
    gaps = np.maximum(abs(stats.lambda_x - law), abs(stats.lambda_p - law))
    checks.append(("matched-gain-law", float(gaps.max()), 1e-12))

    rng = np.random.default_rng(7)
    base = heisenberg_clone_stats(gaussian_machine(0.7))
    # one (vx, product) row per machine, drawn in the order of
    # rng.uniform(-1.5, 1.5) then rng.uniform(1.0, 3.0)
    u = np.array([-1.5, 1.0]) + np.array([3.0, 2.0]) * rng.random((50, 2))
    vx = np.exp(u[:, 0])
    stats = batched_clone_stats(
        _machines(t1=0.7, g_x=matched_gain(0.7), g_p=matched_gain(0.7), vx1=vx, vp1=u[:, 1] / vx)
    )
    gaps = [
        abs(stats.lambda_x - base.lambda_x),
        abs(stats.lambda_p - base.lambda_p),
        abs(stats.sigma_x - base.sigma_x),
        abs(stats.sigma_p - base.sigma_p),
    ]
    checks.append(("tap-ancilla-cancellation", float(np.max(gaps)), 1e-10))

    machines = _random_machines(np.random.default_rng(11), 1000)
    dn_x, dn_p = batched_clone_stats(machines).referred_noise()
    worst = float((dn_x * dn_p).min())
    checks.append(("referred-noise-uncertainty-product", max(0.0, 1.0 - worst), 1e-9))

    return checks


# the ranges of _random_machines' draw columns: log vx1, log vx3, t1, t2,
# g_x, g_p, vx1 * vp1, vx3 * vp3, eta_ff, visibility
_CONFIG_LO = np.array([-1.2, -1.2, 0.05, 0.1, 0.0, 0.0, 1.0, 1.0, 0.85, 0.9])
_CONFIG_HI = np.array([1.2, 1.2, 1.0, 0.95, 2.5, 2.5, 3.0, 3.0, 1.0, 1.0])


def _random_machines(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random machines with random squeezed ancillas, as an (n, 10) array
    in ``MACHINE_COLUMNS`` order, from one ``rng.random((n, 10))`` draw.

    Row i holds machine i's draws in the columns of ``_CONFIG_LO``;
    ``lo + (hi - lo) * u`` is the value ``rng.uniform(lo, hi)`` returns for
    the same u, so the machines equal those of ten scalar draws each.
    """
    u = _CONFIG_LO + (_CONFIG_HI - _CONFIG_LO) * rng.random((n, 10))
    vx1, vx3 = np.exp(u[:, 0]), np.exp(u[:, 1])
    return np.column_stack([u[:, 2:6], vx1, u[:, 6] / vx1, vx3, u[:, 7] / vx3, u[:, 8:]])


# every column but t1 at ClonerConfig's default
_MACHINE_DEFAULTS = dict(zip(MACHINE_COLUMNS[1:], ClonerConfig(t1=1.0).as_row()[1:]))


def _machines(**columns) -> np.ndarray:
    """A stack of machines from named ``MACHINE_COLUMNS`` values, each a
    scalar or one entry per machine; a column left out takes ClonerConfig's
    default."""
    values = {**_MACHINE_DEFAULTS, **columns}
    return np.column_stack(np.broadcast_arrays(*(values[name] for name in MACHINE_COLUMNS)))
