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

The per-shot model (``cloner._shot_model``) is one affine map per measured
quadrature q (x, and p unless t2 = 1): outcome c_q mean_q + sd_q z, clone
mean a_q mean_q + b_q outcome + e_q n_el, and a clone variance cond_var_q
that Gaussian conditioning makes outcome independent.  The mean is shared
by both clones (the output splitter ancilla has zero mean).

Aggregation streams: each block reduces its trajectories to a few dozen
sums as soon as it is simulated, and the blocks merge in block order, so
memory does not grow with the trajectory count.  The per-trajectory records
of a block come from ``_simulate_block``, quadrature-major: the block's draw
is transposed once, and every input mean, outcome and clone mean is a
contiguous row over the block.  ``KnownPhase`` fixes the p input at zero: p
has no slope fit (NaN gain, in ``no_signal``, as a fit on zeros gives), and
unmeasured (t2 = 1) its clone mean is 0 and its sums are constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import (
    Alphabet,
    KnownPhase,
    Single,
    SymmetricGaussian,
    average_fidelity,
)
from .cloner import ClonerConfig, _shot_model, heisenberg_clone_stats

# representative amplitudes for the known-phase alphabet; the statistics are
# amplitude independent at unit gain, and the grid doubles as the
# amplitude-independence check
KNOWN_PHASE_AMPLITUDES = (0.0, 2.0, 4.0, 8.0)

_CHUNK = 4096

# trajectory i's known-phase amplitude is row i mod _CHUNK of this column
assert _CHUNK % len(KNOWN_PHASE_AMPLITUDES) == 0
_KNOWN_PHASE_COLUMN = np.tile(KNOWN_PHASE_AMPLITUDES, _CHUNK // len(KNOWN_PHASE_AMPLITUDES))
_KNOWN_PHASE_COLUMN.flags.writeable = False

# largest trajectory count run_batch accepts; it bounds the run time (about
# 20 s on one core), since memory does not grow with the count
MAX_TRAJECTORIES = 10**8

__all__ = [
    "KNOWN_PHASE_AMPLITUDES",
    "MAX_TRAJECTORIES",
    "TrajectoryBatch",
    "run_batch",
    "trajectory_normals",
    "compare_with_analytic",
]


@dataclass(frozen=True)
class TrajectoryBatch:
    """Aggregates of one Monte Carlo run.

    The record arrays always have zero rows, since no per-trajectory array
    outlives its block.  Aggregates are reproducible bit-exactly from
    (config, alphabet, seed, n_traj, elec_noise).  Gains are through-origin
    regression slopes of the clone mean on the input mean; a gain is NaN
    when the input means carry no signal in that quadrature, and
    ``no_signal`` names those quadrature(s), "x" or "p".
    Variances combine the fixed conditional clone covariance with the
    outcome-induced mean scatter.  Standard errors are sample standard
    deviations over trajectories divided by sqrt(n_traj).
    """

    config: ClonerConfig
    alphabet: Alphabet
    n_traj: int
    seed: int
    elec_noise: float
    input_means: np.ndarray   # (0, 2)
    outcomes: np.ndarray      # (0, 1), or (0, 2) when P is measured too
    clone_means: np.ndarray   # (0, 2)
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
    no_signal: tuple[str, ...]


def _input_means(alphabet: Alphabet, z: np.ndarray, rows: int) -> np.ndarray:
    """A block's (2, rows) input means from its alphabet draws ``z`` (scaled in place)."""
    if isinstance(alphabet, SymmetricGaussian):
        z *= 2.0 * math.sqrt(alphabet.variance)
        return z
    means = np.zeros((2, rows))
    if isinstance(alphabet, Single):
        means[0], means[1] = alphabet.x_mean, alphabet.p_mean
    elif isinstance(alphabet, KnownPhase):
        means[0] = _KNOWN_PHASE_COLUMN[:rows]
    else:
        raise ValueError(f"alphabet {alphabet!r} cannot be sampled")
    return means


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
    block, row = divmod(i, _CHUNK)
    return _block_normals(seed, block, k, row + 1)[row].copy()


# input sum of squares below which a quadrature carries no signal
_NO_SIGNAL = 1e-12

# Streaming statistics.  A block reduces each fit of y on a regressor u to
# its local through-origin slope s and the sums, with r = y - s*u and w = r²,
#     (Σu², Σuy, Σr², Σru, Σ(w - c)², Σr³u, Σr²u², Σru³, Σu⁴, n),  c = Σr²/n.
# Moving the slope to s + d maps r to r - d*u, and every sum to a polynomial
# in d over sums of the same degree (``_shift``), so two blocks merge exactly
# by moving both to their joint slope ΣΣuy / ΣΣu² and adding, the centred
# sums with Chan's term for their means (Chan, Golub and LeVeque, Am. Stat.
# 37 (1983); Pébay, SAND2008-6212).  Local slopes differ from the joint one
# by O(1/sqrt(4096)), so the expansion does not cancel, and Σ(w - c)² keeps
# the spread of w that Σr⁴ - (Σr²)²/n cancels away (two shots of a mean fit).
# The fit on u = 1 is the mean, with r the central deviation; it serves the
# fidelity and the zero-signal branch, which a block computes only when it
# has no signal itself (then no block has).  A p without input has no slope fit.


def _fit_sums(u: np.ndarray, y: np.ndarray) -> tuple[float, tuple]:
    suu = float(u @ u)
    suy = float(u @ y)
    s = suy / suu if suu > 0.0 else 0.0
    r = y - s * u
    w = r * r
    ru = r * u
    u2 = u * u
    srr, sr3u = float(r @ r), float(w @ ru)
    w -= srr / len(u)
    return s, (suu, suy, srr, float(r @ u), float(w @ w), sr3u,
               float(ru @ ru), float(ru @ u2), float(u2 @ u2), float(len(u)))


def _mean_sums(y: np.ndarray) -> tuple[float, tuple]:
    m = float(len(y))
    sy = float(y.sum())
    s = sy / m
    e = y - s
    w = e * e
    s1, s2, s3 = float(e.sum()), float(w.sum()), float(w @ e)
    w -= s2 / m
    return s, (m, sy, s2, s1, float(w @ w), s3, s2, s1, m, m)


def _zero_mean_sums(m: int) -> tuple[float, tuple]:
    return 0.0, (float(m), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, float(m), float(m))


def _shift(sums: tuple, d: float) -> tuple:
    """The sums of a fit whose slope moves by ``d``: w changes by
    δ = -2d ru + d²u², and Σ(w - c)² by 2Σ(w - c)δ + Σδ² - (Σδ)²/n."""
    suu, suy, srr, sru, cww, sr3u, sr2u2, sru3, su4, n = sums
    c = srr / n
    dsrr = -d * (2.0 * sru - d * suu)
    return (
        suu,
        suy,
        srr + dsrr,
        sru - d * suu,
        cww - dsrr * dsrr / n
        - d * (4.0 * (sr3u - c * sru) - d * (6.0 * sr2u2 - 2.0 * c * suu
                                             - d * (4.0 * sru3 - d * su4))),
        sr3u - d * (3.0 * sr2u2 - d * (3.0 * sru3 - d * su4)),
        sr2u2 - d * (2.0 * sru3 - d * su4),
        sru3 - d * su4,
        su4,
        n,
    )


def _combine(a: tuple[float, tuple] | None, b: tuple[float, tuple] | None):
    if a is None or b is None:
        return None
    (sa, fa), (sb, fb) = a, b
    suu = fa[0] + fb[0]
    s = (fa[1] + fb[1]) / suu if suu > 0.0 else 0.0
    fa, fb = _shift(fa, s - sa), _shift(fb, s - sb)
    merged = [p + q for p, q in zip(fa, fb)]
    dc = fa[2] / fa[9] - fb[2] / fb[9]
    merged[4] += dc * dc * fa[9] * fb[9] / merged[9]
    return s, tuple(merged)


def _shot_fidelity(dev: np.ndarray, cond_var) -> np.ndarray:
    """Per-shot fidelities from the rows of clone minus input means (x, and
    p unless it is identically zero); ``dev`` is overwritten."""
    g = 1.0 + cond_var
    dev *= dev
    dev /= g[: len(dev), None]
    return 2.0 / math.sqrt(g[0] * g[1]) * np.exp(-0.5 * dev.sum(0))


def _statistics(fits: list, n: int, cond_var) -> dict:
    """Gains, variances and fidelity, with standard errors, from the merged
    fits (x on input x, x on 1, p on input p, p on 1, fidelity on 1).

    A gain is the through-origin slope, NaN when the input carries no signal
    (no input, or Σu² below ``_NO_SIGNAL``), in which case the residual is
    taken against the mean and the quadrature joins ``no_signal``.  The
    per-shot variance is cond_var + residual², and standard errors are
    sample standard deviations over trajectories / sqrt(n).
    """
    out: dict = {"no_signal": ()}
    for q, name in ((0, "x"), (1, "p")):
        fit, mean_fit = fits[2 * q], fits[2 * q + 1]
        if fit is None or fit[1][0] < _NO_SIGNAL:
            lam = se_lam = math.nan
            sig = mean_fit[1]
            out["no_signal"] += (name,)
        else:
            lam, sig = fit
            se_lam = math.sqrt(sig[2] / (n - 1) / sig[0])
        out[f"lambda_{name}"] = lam
        out[f"se_lambda_{name}"] = se_lam
        out[f"sigma_{name}"] = cond_var[q] + sig[2] / n
        out[f"se_sigma_{name}"] = math.sqrt(max(sig[4], 0.0) / (n - 1) / n)
    f_hat, f_sums = fits[4]
    out["f_hat"] = f_hat
    out["se_f"] = math.sqrt(f_sums[2] / (n - 1) / n)
    return out


def _simulate_block(model, alphabet: Alphabet, elec_noise: float, seed: int, block: int,
                    rows: int = _CHUNK) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input means (2, rows), measured outcomes (measured, rows, x first) and
    clone means (2, rows) of the first ``rows`` trajectories of ``block``,
    from its one bulk normal draw.  ``model`` is ``cloner._shot_model``'s."""
    coeffs, measured = model
    c, sd, a, b, e, _ = coeffs.tolist()
    n_alpha = 2 if isinstance(alphabet, SymmetricGaussian) else 0
    step = 2 if elec_noise > 0.0 else 1
    z = _block_normals(seed, block, n_alpha + step * measured, rows).T.copy()
    means = _input_means(alphabet, z[:n_alpha], rows)
    outcomes = z[n_alpha::step]
    clone = np.empty((2, rows))
    for q in (0, 1):
        np.multiply(means[q], a[q], out=clone[q])
    for q, out in enumerate(outcomes):
        out *= sd[q]
        out += c[q] * means[q]
        clone[q] += b[q] * out
        if step == 2:
            clone[q] += e[q] * (math.sqrt(elec_noise) * z[n_alpha + 2 * q + 1])
    return means, outcomes, clone


def run_batch(
    cfg: ClonerConfig,
    alphabet: Alphabet,
    n_traj: int,
    seed: int,
    elec_noise: float = 0.0,
) -> TrajectoryBatch:
    """Simulate ``n_traj`` trajectories and aggregate the clone statistics.

    The per-shot model is ``cloner._shot_model``'s map per measured
    quadrature, read from the machine core (see the module docstring).
    Blocks of 4096 trajectories each take one bulk normal draw keyed by
    (seed, block), simulate their rows (``_simulate_block``) and reduce them
    at once to a few dozen sums, which are merged in block order; no
    per-trajectory array outlives its block, so memory does not grow with
    ``n_traj``.  ``n_traj`` must be at least 2, since one trajectory has no
    standard error, and at most ``MAX_TRAJECTORIES``, which bounds the run
    time.  ``seed`` must be non-negative and ``elec_noise`` finite
    and non-negative.
    """
    if not 2 <= n_traj <= MAX_TRAJECTORIES:
        raise ValueError(f"n_traj must lie in [2, {MAX_TRAJECTORIES}], got {n_traj}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    model = coeffs, measured = _shot_model(cfg, elec_noise)
    cond_var = coeffs[5]
    # KnownPhase fixes the p input at zero; unmeasured, p's clone mean is 0 too
    no_p_input = isinstance(alphabet, KnownPhase)
    n_dev = 1 if no_p_input and measured == 1 else 2

    def reduce(block: int) -> list:
        rows = min(_CHUNK, n_traj - block * _CHUNK)
        means, _, clone = _simulate_block(model, alphabet, elec_noise, seed, block, rows)
        sums = []
        for q in range(2 - no_p_input):
            fit = _fit_sums(means[q], clone[q])
            sums += [fit, _mean_sums(clone[q]) if fit[1][0] < _NO_SIGNAL else None]
        if no_p_input:
            sums += [None, _mean_sums(clone[1]) if measured == 2 else _zero_mean_sums(rows)]
        dev = np.subtract(clone[:n_dev], means[:n_dev], out=clone[:n_dev])
        return sums + [_mean_sums(_shot_fidelity(dev, cond_var))]

    # overflow shows as a non-finite merged sum, reported below
    with np.errstate(all="ignore"):
        blocks = map(reduce, range(-(-n_traj // _CHUNK)))
        fits = functools.reduce(lambda acc, new: list(map(_combine, acc, new)), blocks)
    if not all(math.isfinite(v) for fit in fits if fit for v in (fit[0], *fit[1])):
        raise ValueError(f"Monte Carlo sums overflow at feedforward gains "
                         f"g_x = {cfg.g_x:g}, g_p = {cfg.g_p:g}")

    return TrajectoryBatch(
        config=cfg,
        alphabet=alphabet,
        n_traj=n_traj,
        seed=seed,
        elec_noise=elec_noise,
        input_means=np.empty((0, 2)),
        outcomes=np.empty((0, measured)),
        clone_means=np.empty((0, 2)),
        clone_cov_diag=cond_var,
        **_statistics(fits, n_traj, cond_var),
    )


def compare_with_analytic(batch: TrajectoryBatch) -> dict[str, dict[str, float]]:
    """Side-by-side empirical vs analytic statistics with z scores.

    A gain whose quadrature carries no input signal (for example the phase
    gain under an alphabet with zero phase mean) is undefined and omitted;
    any other NaN estimate raises ValueError naming it.  A deviation below
    1e-12 counts as an exact match regardless of the standard error.
    """
    stats = heisenberg_clone_stats(batch.config, batch.elec_noise)
    rows = (
        ("lambda_x", batch.lambda_x, batch.se_lambda_x, stats.lambda_x),
        ("lambda_p", batch.lambda_p, batch.se_lambda_p, stats.lambda_p),
        ("sigma_x", batch.sigma_x, batch.se_sigma_x, stats.sigma_x),
        ("sigma_p", batch.sigma_p, batch.se_sigma_p, stats.sigma_p),
        ("fidelity", batch.f_hat, batch.se_f, average_fidelity(stats, batch.alphabet)),
    )
    table: dict[str, dict[str, float]] = {}
    for name, emp, se, exact in rows:
        if math.isnan(emp):
            if name.startswith("lambda_") and name[-1] in batch.no_signal:
                continue
            raise ValueError(f"Monte Carlo estimate {name} is NaN")
        diff = emp - exact
        if abs(diff) < 1e-12:
            z = 0.0
        elif se > 0:
            z = diff / se
        else:
            z = math.inf
        table[name] = {"empirical": emp, "analytic": exact, "se": se, "z": z}
    return table
