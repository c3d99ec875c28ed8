"""Trajectory-level stochastic simulation of the cloning experiment.

Each trajectory draws an input state from the alphabet, runs the machine
with sampled feedforward outcomes and records the resulting clone means;
gains, added noises and the average fidelity are then estimated empirically
and compared against the analytic statistics.

Randomness is organised as block-keyed streams, the counter-based layout of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): the
trajectories are cut into fixed blocks of 4096, block b draws all its
normals in one call from the generator seeded by (seed, b), and trajectory
i takes row i mod 4096 of block i // 4096 (see ``trajectory_normals``).
Results are therefore bit-identical across runs and worker counts, and
trajectory i is the same whatever the trajectory count.  Within a row the
draw order is fixed: alphabet draws, then the X outcome, its electronic
noise, the P outcome, its noise.  Earlier versions seeded one generator per
trajectory with (seed, i), so a given seed now yields different samples.

Because the measurement conditioning is Gaussian, the per-shot clone
covariance is outcome independent; the per-shot state is fully described by
its realised mean plus that fixed covariance, which is what the trajectory
records hold.  The conditional mean is shared by both clones (the output
splitter ancilla has zero mean), so one mean vector per shot describes both.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import benchmarks
from .benchmarks import (
    Alphabet,
    FlatLimit,
    KnownPhase,
    Single,
    SymmetricGaussian,
    average_fidelity,
    classical_gaussian_alphabet,
    classical_known_phase,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from .cloner import (
    ClonerConfig,
    _trajectory_model,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)

# representative amplitudes for the known-phase alphabet; the statistics are
# amplitude independent at unit gain, and the grid doubles as the
# amplitude-independence check
KNOWN_PHASE_AMPLITUDES = (0.0, 2.0, 4.0, 8.0)

_CHUNK = 4096

# largest trajectory count run_batch accepts; its docstring gives the memory
MAX_TRAJECTORIES = 10**8

__all__ = [
    "KNOWN_PHASE_AMPLITUDES",
    "MAX_TRAJECTORIES",
    "TrajectoryBatch",
    "run_batch",
    "trajectory_normals",
    "empirical_fidelity",
    "compare_with_analytic",
    "reproduce_figure3",
    "reproduce_figure4",
]


@dataclass(frozen=True)
class TrajectoryBatch:
    """Records and aggregates of one Monte Carlo run.

    Aggregates are reproducible bit-exactly from (config, alphabet, seed,
    n_traj, elec_noise).  Gains are through-origin regression slopes of the
    clone mean on the input mean; a gain is NaN when the input means carry no
    signal in that quadrature.  Variances combine the fixed conditional clone
    covariance with the outcome-induced mean scatter.  Standard errors are
    sample standard deviations over trajectories divided by sqrt(n_traj).
    """

    config: ClonerConfig
    alphabet: Alphabet
    n_traj: int
    seed: int
    elec_noise: float
    input_means: np.ndarray   # (n, 2)
    outcomes: np.ndarray      # (n, 1) or (n, 2) measured X (and P) outcomes
    clone_means: np.ndarray   # (n, 2), shared by both clones
    clone_cov_diag: np.ndarray  # (2,) conditional marginal variances of a clone
    lambda_x: float
    lambda_p: float
    sigma_x: float
    sigma_p: float
    f_hat: float
    se_lambda_x: float
    se_lambda_p: float
    se_sigma_x: float
    se_sigma_p: float
    se_f: float


def _alphabet_draws(alphabet: Alphabet) -> int:
    if isinstance(alphabet, SymmetricGaussian):
        return 2
    if isinstance(alphabet, (Single, KnownPhase)):
        return 0
    raise ValueError(f"alphabet {alphabet!r} cannot be sampled")


def _fill_input_means(alphabet: Alphabet, z: np.ndarray, start: int, out: np.ndarray) -> None:
    if isinstance(alphabet, SymmetricGaussian):
        out[:] = 2.0 * math.sqrt(alphabet.variance) * z
    elif isinstance(alphabet, Single):
        out[:, 0] = alphabet.x_mean
        out[:, 1] = alphabet.p_mean
    elif isinstance(alphabet, KnownPhase):
        grid = np.asarray(KNOWN_PHASE_AMPLITUDES)
        out[:, 0] = grid[(start + np.arange(len(out))) % len(grid)]
        out[:, 1] = 0.0
    else:
        raise ValueError(f"alphabet {alphabet!r} cannot be sampled")


def _block_normals(seed: int, block: int, k: int) -> np.ndarray:
    return np.random.default_rng((seed, block)).standard_normal((_CHUNK, k))


def trajectory_normals(seed: int, i: int, k: int) -> np.ndarray:
    """The ``k`` standard normals trajectory ``i`` consumes, in draw order.

    Row ``i % 4096`` of the block drawn from ``default_rng((seed, i // 4096))``;
    ``k`` is the row width of the batch (alphabet draws plus one or two
    outcomes, each followed by its electronic noise when that is on).
    """
    if i < 0:
        raise ValueError(f"trajectory index must be non-negative, got {i}")
    return _block_normals(seed, i // _CHUNK, k)[i % _CHUNK].copy()


def run_batch(
    cfg: ClonerConfig,
    alphabet: Alphabet,
    n_traj: int,
    seed: int,
    elec_noise: float = 0.0,
    workers: int = 1,
) -> TrajectoryBatch:
    """Simulate ``n_traj`` trajectories and aggregate the clone statistics.

    The per-shot model is the affine form extracted from the circuit
    (outcome sampling, Gaussian conditioning, feedforward displacement).
    Blocks of 4096 trajectories each take one bulk normal draw keyed by
    (seed, block) and write their rows straight into the record arrays;
    a thread pool may fill the blocks, and since every block owns its
    stream and its rows the result is independent of ``workers``.

    ``n_traj`` may be at most ``MAX_TRAJECTORIES``: the records hold 48
    bytes per trajectory (40 when only the X outcome is measured), 4.8 GB
    at the bound, and aggregation briefly needs a few more arrays of 8
    bytes per trajectory.  ``elec_noise`` must be finite and non-negative.
    """
    if isinstance(alphabet, FlatLimit):
        raise ValueError("the flat limit is an analytic limit and cannot be sampled")
    if not 1 <= n_traj <= MAX_TRAJECTORIES:
        raise ValueError(f"n_traj must lie in [1, {MAX_TRAJECTORIES}], got {n_traj}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")

    model = _trajectory_model(cfg, elec_noise)
    n_alpha = _alphabet_draws(alphabet)
    has_el = elec_noise > 0.0
    k = n_alpha + 1 + int(has_el) + (1 + int(has_el)) * int(model.has_p_outcome)

    input_means = np.empty((n_traj, 2))
    outcomes = np.empty((n_traj, 1 + int(model.has_p_outcome)))
    clone_means = np.empty((n_traj, 2))

    starts = range(0, n_traj, _CHUNK)

    def simulate(start: int) -> None:
        stop = min(start + _CHUNK, n_traj)
        z = _block_normals(seed, start // _CHUNK, k)[: stop - start]
        means = input_means[start:stop]
        _fill_input_means(alphabet, z[:, :n_alpha], start, means)
        col = n_alpha
        x_m = model.out_coeff_x * means[:, 0] + math.sqrt(model.out_var_x) * z[:, col]
        col += 1
        x_el = math.sqrt(elec_noise) * z[:, col] if has_el else 0.0
        col += int(has_el)
        outcomes[start:stop, 0] = x_m
        clone_means[start:stop, 0] = model.ax * means[:, 0] + model.bx * x_m + model.ex * x_el
        if model.has_p_outcome:
            p_m = model.out_coeff_p * means[:, 1] + math.sqrt(model.out_var_p) * z[:, col]
            col += 1
            p_el = math.sqrt(elec_noise) * z[:, col] if has_el else 0.0
            outcomes[start:stop, 1] = p_m
            clone_means[start:stop, 1] = model.ap * means[:, 1] + model.bp * p_m + model.ep * p_el
        else:
            clone_means[start:stop, 1] = model.ap * means[:, 1]

    if workers == 1 or len(starts) == 1:
        for start in starts:
            simulate(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(simulate, starts))

    agg = _aggregate(input_means, clone_means, model.cond_var)
    return TrajectoryBatch(
        config=cfg,
        alphabet=alphabet,
        n_traj=n_traj,
        seed=seed,
        elec_noise=elec_noise,
        input_means=input_means,
        outcomes=outcomes,
        clone_means=clone_means,
        clone_cov_diag=model.cond_var.copy(),
        **agg,
    )


def _slope(y: np.ndarray, x: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Through-origin regression slope, its standard error and residuals."""
    sxx = float(x @ x)
    if sxx < 1e-12:
        return math.nan, math.nan, y.copy()
    slope = float(y @ x) / sxx
    resid = y - slope * x
    n = len(y)
    var_resid = float(resid @ resid) / max(n - 1, 1)
    return slope, math.sqrt(var_resid / sxx), resid


def _aggregate(input_means, clone_means, cond_var) -> dict:
    n = len(clone_means)
    out: dict = {}
    for quad, name in ((0, "x"), (1, "p")):
        lam, se_lam, resid = _slope(clone_means[:, quad], input_means[:, quad])
        if math.isnan(lam):
            resid = clone_means[:, quad] - float(np.mean(clone_means[:, quad]))
        per_shot_var = cond_var[quad] + resid**2
        sigma = float(np.mean(per_shot_var))
        se_sigma = float(np.std(per_shot_var, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        out[f"lambda_{name}"] = lam
        out[f"se_lambda_{name}"] = se_lam
        out[f"sigma_{name}"] = sigma
        out[f"se_sigma_{name}"] = se_sigma
    f_hat, se_f = _fidelity_from_records(input_means, clone_means, cond_var)
    out["f_hat"] = f_hat
    out["se_f"] = se_f
    return out


def _fidelity_from_records(input_means, clone_means, cond_var) -> tuple[float, float]:
    gx = 1.0 + cond_var[0]
    gp = 1.0 + cond_var[1]
    dx = clone_means[:, 0] - input_means[:, 0]
    dp = clone_means[:, 1] - input_means[:, 1]
    f = 2.0 / math.sqrt(gx * gp) * np.exp(-0.5 * (dx**2 / gx + dp**2 / gp))
    n = len(f)
    se = float(np.std(f, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return float(np.mean(f)), se


def empirical_fidelity(batch: TrajectoryBatch, alphabet: Alphabet | None = None) -> tuple[float, float]:
    """Mean single-shot fidelity over the trajectory records.

    Each shot contributes the overlap between its known coherent input and
    the clone Gaussian of that shot (realised mean, fixed conditional
    covariance).  Returns (estimate, standard error).
    """
    if batch.n_traj < 1:
        raise ValueError("batch is empty")
    if alphabet is not None and alphabet != batch.alphabet:
        raise ValueError("alphabet does not match the batch records")
    return _fidelity_from_records(batch.input_means, batch.clone_means, batch.clone_cov_diag)


def compare_with_analytic(batch: TrajectoryBatch) -> dict[str, dict[str, float]]:
    """Side-by-side empirical vs analytic statistics with z scores.

    Entries whose empirical estimate is undefined (for example the phase
    gain under an alphabet with zero phase mean) are omitted.  A deviation
    below 1e-12 counts as an exact match regardless of the standard error.
    """
    stats = heisenberg_clone_stats(batch.config, batch.elec_noise)
    analytic = {
        "lambda_x": stats.lambda_x,
        "lambda_p": stats.lambda_p,
        "sigma_x": stats.sigma_x,
        "sigma_p": stats.sigma_p,
        "fidelity": average_fidelity(stats, batch.alphabet),
    }
    empirical = {
        "lambda_x": batch.lambda_x,
        "lambda_p": batch.lambda_p,
        "sigma_x": batch.sigma_x,
        "sigma_p": batch.sigma_p,
        "fidelity": batch.f_hat,
    }
    ses = {
        "lambda_x": batch.se_lambda_x,
        "lambda_p": batch.se_lambda_p,
        "sigma_x": batch.se_sigma_x,
        "sigma_p": batch.se_sigma_p,
        "fidelity": batch.se_f,
    }
    table: dict[str, dict[str, float]] = {}
    for name, emp in empirical.items():
        if math.isnan(emp):
            continue
        diff = emp - analytic[name]
        se = ses[name]
        if abs(diff) < 1e-12:
            z = 0.0
        elif se > 0:
            z = diff / se
        else:
            z = math.inf
        table[name] = {"empirical": emp, "analytic": analytic[name], "se": se, "z": z}
    return table


def reproduce_figure3(
    v_grid,
    eta_ff: float = 0.95,
    visibility: float = 0.99,
    n_traj: int = 20000,
    seed: int = 20240601,
) -> list[dict[str, float]]:
    """Fidelity-versus-width table: ideal optimum, lossy machine, classical
    baseline and a Monte Carlo estimate of the lossy machine at each V.

    The lossy machine keeps the gain re-tuned to the ideal optical gain, so
    in the beam-splitter regime (zero gain) its curve coincides exactly with
    the ideal one.
    """
    rows = []
    for i, v in enumerate(v_grid):
        opt = optimal_gaussian_fidelity(v)
        ideal_cfg = gaussian_machine(opt.t1)
        lossy_cfg = gaussian_machine(opt.t1, eta_ff, visibility)
        alphabet = SymmetricGaussian(v)
        f_ideal = average_fidelity(heisenberg_clone_stats(ideal_cfg), alphabet)
        f_lossy = average_fidelity(heisenberg_clone_stats(lossy_cfg), alphabet)
        batch = run_batch(lossy_cfg, alphabet, n_traj, seed + i)
        rows.append(
            {
                "sqrt_v": math.sqrt(v),
                "v": v,
                "t1": opt.t1,
                "gain": matched_gain(opt.t1),
                "f_ideal": f_ideal,
                "f_imperfect": f_lossy,
                "f_classical": classical_gaussian_alphabet(v).fidelity,
                "f_mc": batch.f_hat,
                "se_mc": batch.se_f,
            }
        )
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
    """
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
