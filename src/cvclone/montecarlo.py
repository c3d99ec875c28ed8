"""Trajectory-level stochastic simulation of the cloning experiment.

Each trajectory draws an input state from the alphabet, runs the machine
with sampled feedforward outcomes and yields the resulting clone means;
gains, added noises and the average fidelity are then estimated empirically
and compared against the analytic statistics.

Randomness is organised as block-keyed streams, the counter-based layout of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): the
trajectories are cut into fixed blocks of 4096, block b draws all its
normals in one call from the generator seeded by (seed, b), and trajectory
i takes row i mod 4096 of block i // 4096 (see ``trajectory_normals``).
Results are therefore bit-identical across runs, and trajectory i is the
same whatever the trajectory count.  Within a row the draw order is fixed:
alphabet draws, then the X outcome, its electronic noise, the P outcome,
its noise.  Earlier versions seeded one generator per trajectory with
(seed, i), so a given seed now yields different samples.

Because the measurement conditioning is Gaussian, the per-shot clone
covariance is outcome independent; the per-shot state is fully described by
its realised mean plus that fixed covariance, which is what the trajectory
records hold.  The conditional mean is shared by both clones (the output
splitter ancilla has zero mean), so one mean vector per shot describes both.

Aggregation streams: each block reduces its trajectories to a few dozen
sums as soon as it is simulated, and the blocks merge in block order, so
memory does not grow with the trajectory count.  Per-trajectory records are
kept only on request (``run_batch(..., keep_records=True)``).
"""

from __future__ import annotations

import functools
import math
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

# largest trajectory count run_batch accepts; it bounds the run time (about
# 20 s on one core), since memory does not grow with the count
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
    """Aggregates, and on request the records, of one Monte Carlo run.

    The record arrays hold one row per trajectory when the batch was run
    with ``keep_records=True`` and zero rows otherwise.  Aggregates are
    reproducible bit-exactly from (config, alphabet, seed, n_traj,
    elec_noise), whatever ``keep_records``.  Gains are through-origin
    regression slopes of the clone mean on the input mean; a gain is NaN
    when the input means carry no signal in that quadrature.
    Variances combine the fixed conditional clone covariance with the
    outcome-induced mean scatter.  Standard errors are sample standard
    deviations over trajectories divided by sqrt(n_traj).
    """

    config: ClonerConfig
    alphabet: Alphabet
    n_traj: int
    seed: int
    elec_noise: float
    input_means: np.ndarray   # (n, 2), or (0, 2) without records
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


def _block_normals(seed: int, block: int, k: int, rows: int = _CHUNK) -> np.ndarray:
    # the first ``rows`` rows of the full block: a prefix of a draw equals
    # the smaller draw, so a partial last block draws only what it uses
    return np.random.default_rng((seed, block)).standard_normal((rows, k))


def trajectory_normals(seed: int, i: int, k: int) -> np.ndarray:
    """The ``k`` standard normals trajectory ``i`` consumes, in draw order.

    Row ``i % 4096`` of the block drawn from ``default_rng((seed, i // 4096))``;
    ``k`` is the row width of the batch (alphabet draws plus one or two
    outcomes, each followed by its electronic noise when that is on).
    """
    if i < 0:
        raise ValueError(f"trajectory index must be non-negative, got {i}")
    return _block_normals(seed, i // _CHUNK, k)[i % _CHUNK].copy()


# input sum of squares below which a quadrature carries no signal
_NO_SIGNAL = 1e-12

# Streaming statistics.  A block reduces each fit of y on a regressor u to
# its local through-origin slope s and the sums, with r = y - s*u,
#     (Σu², Σuy, Σr², Σru, Σr⁴, Σr³u, Σr²u², Σru³, Σu⁴).
# Moving the slope to s + d maps r to r - d*u, and every sum of degree 2 or 4
# to a binomial combination of sums of the same degree, so two blocks merge
# exactly by moving both to their joint slope ΣΣuy / ΣΣu² and adding
# (Chan, Golub and LeVeque, Am. Stat. 37 (1983); Pébay, SAND2008-6212).
# Local slopes differ from the joint one by O(1/sqrt(4096)), so the
# expansion does not cancel.  The fit on u = 1 is the mean, with r the
# central deviation; it serves the fidelity and the zero-signal branch.  A
# block computes the latter only when it has no signal itself: the batch
# needs it only when it has none, and then no block has.


def _fit_sums(u: np.ndarray, y: np.ndarray) -> tuple[float, tuple]:
    suu = float(u @ u)
    suy = float(u @ y)
    s = suy / suu if suu > 0.0 else 0.0
    r = y - s * u
    r2 = r * r
    ru = r * u
    u2 = u * u
    return s, (suu, suy, float(r @ r), float(r @ u), float(r2 @ r2), float(r2 @ ru),
               float(ru @ ru), float(ru @ u2), float(u2 @ u2))


def _mean_sums(y: np.ndarray) -> tuple[float, tuple]:
    m = float(len(y))
    sy = float(y.sum())
    s = sy / m
    e = y - s
    e2 = e * e
    s1, s2 = float(e.sum()), float(e2.sum())
    return s, (m, sy, s2, s1, float(e2 @ e2), float(e2 @ e), s2, s1, m)


def _shift(sums: tuple, d: float) -> tuple:
    """The sums of a fit whose slope moves by ``d``."""
    suu, suy, srr, sru, sr4, sr3u, sr2u2, sru3, su4 = sums
    return (
        suu,
        suy,
        srr - d * (2.0 * sru - d * suu),
        sru - d * suu,
        sr4 - d * (4.0 * sr3u - d * (6.0 * sr2u2 - d * (4.0 * sru3 - d * su4))),
        sr3u - d * (3.0 * sr2u2 - d * (3.0 * sru3 - d * su4)),
        sr2u2 - d * (2.0 * sru3 - d * su4),
        sru3 - d * su4,
        su4,
    )


def _merge(a: tuple[float, tuple] | None, b: tuple[float, tuple] | None):
    if a is None or b is None:
        return None
    (sa, fa), (sb, fb) = a, b
    suu = fa[0] + fb[0]
    s = (fa[1] + fb[1]) / suu if suu > 0.0 else 0.0
    return s, tuple(p + q for p, q in zip(_shift(fa, s - sa), _shift(fb, s - sb)))


def _shot_fidelity(input_means: np.ndarray, clone_means: np.ndarray, cond_var) -> np.ndarray:
    gx = 1.0 + cond_var[0]
    gp = 1.0 + cond_var[1]
    dx = clone_means[:, 0] - input_means[:, 0]
    dp = clone_means[:, 1] - input_means[:, 1]
    return 2.0 / math.sqrt(gx * gp) * np.exp(-0.5 * (dx**2 / gx + dp**2 / gp))


def _statistics(fits: list, n: int, cond_var) -> dict:
    """Gains, variances and fidelity, with standard errors, from the merged
    fits (x on input x, x on 1, p on input p, p on 1, fidelity on 1).

    A gain is the through-origin slope, NaN when the input carries no
    signal (Σu² below ``_NO_SIGNAL``), in which case the residual is taken
    against the mean.  The per-shot variance is cond_var + residual², and
    standard errors are sample standard deviations over trajectories /
    sqrt(n).
    """
    out: dict = {}
    for q, name in ((0, "x"), (1, "p")):
        (lam, sig), mean_fit = fits[2 * q], fits[2 * q + 1]
        if sig[0] < _NO_SIGNAL:
            lam = se_lam = math.nan
            sig = mean_fit[1]
        else:
            se_lam = math.sqrt(sig[2] / max(n - 1, 1) / sig[0])
        srr, sr4 = sig[2], sig[4]
        out[f"lambda_{name}"] = lam
        out[f"se_lambda_{name}"] = se_lam
        out[f"sigma_{name}"] = cond_var[q] + srr / n
        out[f"se_sigma_{name}"] = (
            math.sqrt(max(sr4 - srr * srr / n, 0.0) / (n - 1) / n) if n > 1 else 0.0
        )
    f_hat, f_sums = fits[4]
    out["f_hat"] = f_hat
    out["se_f"] = math.sqrt(f_sums[2] / (n - 1) / n) if n > 1 else 0.0
    return out


def _merge_in_order(block_sums) -> list:
    return functools.reduce(lambda acc, new: list(map(_merge, acc, new)), block_sums)


def run_batch(
    cfg: ClonerConfig,
    alphabet: Alphabet,
    n_traj: int,
    seed: int,
    elec_noise: float = 0.0,
    workers: int = 1,
    keep_records: bool = False,
) -> TrajectoryBatch:
    """Simulate ``n_traj`` trajectories and aggregate the clone statistics.

    The per-shot model is the affine form extracted from the circuit
    (outcome sampling, Gaussian conditioning, feedforward displacement).
    Blocks of 4096 trajectories each take one bulk normal draw keyed by
    (seed, block), simulate their rows and reduce them at once to a few
    dozen sums, which are merged in block order; no per-trajectory array
    outlives its block, so memory does not grow with ``n_traj``.  The
    blocks run serially; ``workers`` must be positive and has no effect,
    since threads measured no speed-up once aggregation streamed.

    With ``keep_records`` the per-trajectory input means, outcomes and
    clone means are kept as well, 48 bytes per trajectory (40 when only the
    X outcome is measured); without it these arrays have zero rows.
    ``n_traj`` may be at most ``MAX_TRAJECTORIES``, which bounds the run
    time.  ``seed`` must be non-negative and ``elec_noise`` finite and
    non-negative.
    """
    if isinstance(alphabet, FlatLimit):
        raise ValueError("the flat limit is an analytic limit and cannot be sampled")
    if not 1 <= n_traj <= MAX_TRAJECTORIES:
        raise ValueError(f"n_traj must lie in [1, {MAX_TRAJECTORIES}], got {n_traj}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")

    model = _trajectory_model(cfg, elec_noise)
    n_alpha = _alphabet_draws(alphabet)
    has_el = elec_noise > 0.0
    k = n_alpha + 1 + int(has_el) + (1 + int(has_el)) * int(model.has_p_outcome)

    rows = n_traj if keep_records else 0
    input_means = np.empty((rows, 2))
    outcomes = np.empty((rows, 1 + int(model.has_p_outcome)))
    clone_means = np.empty((rows, 2))

    def simulate(block: int) -> list:
        start = block * _CHUNK
        stop = min(start + _CHUNK, n_traj)
        z = _block_normals(seed, block, k, stop - start)
        means = np.empty((stop - start, 2))
        _fill_input_means(alphabet, z[:, :n_alpha], start, means)
        clone = np.empty_like(means)
        col = n_alpha
        x_m = model.out_coeff_x * means[:, 0] + math.sqrt(model.out_var_x) * z[:, col]
        col += 1
        x_el = math.sqrt(elec_noise) * z[:, col] if has_el else 0.0
        col += int(has_el)
        clone[:, 0] = model.ax * means[:, 0] + model.bx * x_m + model.ex * x_el
        if model.has_p_outcome:
            p_m = model.out_coeff_p * means[:, 1] + math.sqrt(model.out_var_p) * z[:, col]
            col += 1
            p_el = math.sqrt(elec_noise) * z[:, col] if has_el else 0.0
            clone[:, 1] = model.ap * means[:, 1] + model.bp * p_m + model.ep * p_el
        else:
            clone[:, 1] = model.ap * means[:, 1]
        if keep_records:
            input_means[start:stop] = means
            outcomes[start:stop, 0] = x_m
            if model.has_p_outcome:
                outcomes[start:stop, 1] = p_m
            clone_means[start:stop] = clone
        sums = []
        for q in (0, 1):
            fit = _fit_sums(means[:, q], clone[:, q])
            sums += [fit, _mean_sums(clone[:, q]) if fit[1][0] < _NO_SIGNAL else None]
        return sums + [_mean_sums(_shot_fidelity(means, clone, model.cond_var))]

    n_blocks = -(-n_traj // _CHUNK)
    fits = _merge_in_order(map(simulate, range(n_blocks)))

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
        **_statistics(fits, n_traj, model.cond_var),
    )


def empirical_fidelity(batch: TrajectoryBatch, alphabet: Alphabet | None = None) -> tuple[float, float]:
    """Mean single-shot fidelity over the trajectory records.

    Each shot contributes the overlap between its known coherent input and
    the clone Gaussian of that shot (realised mean, fixed conditional
    covariance).  Returns (estimate, standard error).  The batch must hold
    its records (``run_batch(..., keep_records=True)``).
    """
    if batch.n_traj < 1:
        raise ValueError("batch is empty")
    if len(batch.clone_means) != batch.n_traj:
        raise ValueError("batch holds no trajectory records; run it with keep_records=True")
    if alphabet is not None and alphabet != batch.alphabet:
        raise ValueError("alphabet does not match the batch records")
    f = _shot_fidelity(batch.input_means, batch.clone_means, batch.clone_cov_diag)
    n = len(f)
    se = float(np.std(f, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return float(np.mean(f)), se


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
