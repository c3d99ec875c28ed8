"""Multimode Gaussian states and linear-optics operations in shot-noise units.

States carry a quadrature mean vector and covariance matrix in xpxp ordering,
with the vacuum normalised to unit variance.  Under this scaling a coherent
state of complex amplitude a has mean (2 Re a, 2 Im a) and identity
covariance.  All operations are pure functions; sampling takes an explicit
``numpy.random.Generator`` so that runs are reproducible and states can be
shared freely across threads.

The covariance algebra of ``beam_splitter`` and ``measure_quadrature`` is
memoised on the input covariance's bytes and the operation's parameters.  A
Gaussian measurement's conditional covariance does not depend on the
outcome, so a circuit run shot after shot recomputes only its means and its
draws.  ``tensor`` is not memoised: a circuit builds its tensor products once,
at construction.  The cached arrays are read-only, and every state is still
built and validated from a copy of them.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12        # relative asymmetry allowed in covariance matrices
PHYSICALITY_TOL = 1e-9      # eigenvalue floor for cov + i*Omega
DIAGONAL_TOL = 1e-10        # x-p correlation allowed in single-mode fidelity
DEGENERATE_VAR_TOL = 1e-12  # below this a measured marginal is deterministic

__all__ = [
    "QuadratureKind",
    "Quadrature",
    "MeasurementRecord",
    "GaussianState",
    "symplectic_form",
    "vacuum",
    "coherent",
    "squeezed_vacuum",
    "beam_splitter",
    "displace",
    "tensor",
    "partial_trace",
    "measure_quadrature",
    "fidelity_coherent_vs_gaussian",
]


class QuadratureKind(enum.Enum):
    X = "x"  # amplitude
    P = "p"  # phase


@dataclass(frozen=True)
class Quadrature:
    """One quadrature (amplitude or phase) of one mode."""

    kind: QuadratureKind
    mode: int

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError(f"mode index must be non-negative, got {self.mode}")

    @classmethod
    def x(cls, mode: int) -> "Quadrature":
        return cls(QuadratureKind.X, mode)

    @classmethod
    def p(cls, mode: int) -> "Quadrature":
        return cls(QuadratureKind.P, mode)

    @property
    def index(self) -> int:
        """Position in the xpxp-ordered mean vector."""
        return 2 * self.mode + (0 if self.kind is QuadratureKind.X else 1)


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a single quadrature measurement, in SNU."""

    quadrature: Quadrature
    outcome: float

    def __post_init__(self):
        if not math.isfinite(self.outcome):
            raise ValueError("measurement outcome must be finite")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, [[0, 1], [-1, 0]] per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _cov_of(n_modes: int, cov_bytes: bytes) -> np.ndarray:
    """The 2n x 2n covariance held in ``cov_bytes``, as a fresh array."""
    d = 2 * n_modes
    return np.frombuffer(cov_bytes).reshape(d, d).copy()


@functools.lru_cache(maxsize=256)
def _check_cov(n_modes: int, cov_bytes: bytes, symmetry_tol: float, physicality_tol: float):
    """Raise ValueError unless the 2n x 2n covariance held in ``cov_bytes``
    is finite, symmetric to ``symmetry_tol`` relative to its scale, and
    satisfies cov + i*Omega >= -``physicality_tol``.

    Only passes are cached (``lru_cache`` never stores an exception), so a
    covariance that has not yet passed at these tolerances is checked in
    full every time.
    """
    d = 2 * n_modes
    cov = np.frombuffer(cov_bytes).reshape(d, d)
    if not np.isfinite(cov).all():
        raise ValueError("state moments must be finite")
    if d:
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > symmetry_tol * scale:
            raise ValueError("covariance matrix is not symmetric")
        eigs = np.linalg.eigvalsh(cov + 1j * symplectic_form(n_modes))
        if float(eigs.min()) < -physicality_tol:
            raise ValueError(
                "covariance matrix violates the uncertainty relation "
                f"(min eigenvalue of cov + i*Omega is {eigs.min():.3e})"
            )


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of ``n_modes`` optical modes.

    ``mean`` is the length 2n quadrature mean vector (x0, p0, x1, p1, ...)
    and ``cov`` the 2n x 2n covariance matrix, both in shot-noise units.
    Construction validates symmetry and the physicality condition
    cov + i*Omega >= 0.  Shapes and the mean are checked on every
    construction; each distinct covariance is checked once per tolerance
    setting (see ``_check_cov``), since a circuit's conditional covariance
    repeats from shot to shot.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        # C-ordered copies: the state never aliases the caller's arrays
        mean = np.array(self.mean, dtype=float, order="C", ndmin=1)
        cov = np.array(self.cov, dtype=float, order="C")
        if self.n_modes < 0:
            raise ValueError("n_modes must be non-negative")
        d = 2 * self.n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        # math.isfinite on the few entries beats a numpy ufunc and reduce
        if not all(map(math.isfinite, mean.tolist())):
            raise ValueError("state moments must be finite")
        # the tolerances are read here, so a changed tolerance is a new key
        _check_cov(self.n_modes, cov.tobytes(), SYMMETRY_TOL, PHYSICALITY_TOL)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def mode_mean(self, mode: int) -> np.ndarray:
        """Quadrature mean (x, p) of one mode."""
        self._check_mode(mode)
        return self.mean[2 * mode : 2 * mode + 2]

    def mode_cov(self, mode: int) -> np.ndarray:
        """2x2 covariance block of one mode."""
        self._check_mode(mode)
        return self.cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2]

    def _check_mode(self, mode: int):
        if not 0 <= mode < self.n_modes:
            raise IndexError(f"mode {mode} out of range for {self.n_modes} modes")


def vacuum(n_modes: int = 1) -> GaussianState:
    """Vacuum state: zero mean, identity covariance."""
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def coherent(x_mean: float, p_mean: float) -> GaussianState:
    """Single-mode coherent state with the given quadrature means."""
    if not (math.isfinite(x_mean) and math.isfinite(p_mean)):
        raise ValueError("coherent amplitude must be finite")
    return GaussianState(1, np.array([x_mean, p_mean]), np.eye(2))


def squeezed_vacuum(var_x: float, var_p: float) -> GaussianState:
    """Single-mode squeezed vacuum with quadrature variances (var_x, var_p).

    The variance product must satisfy var_x * var_p >= 1 (up to 1e-9), the
    minimum-uncertainty bound in SNU.
    """
    if var_x <= 0 or var_p <= 0:
        raise ValueError("squeezed variances must be positive")
    if var_x * var_p < 1.0 - 1e-9:
        raise ValueError(
            f"variance product {var_x * var_p:.6g} violates the uncertainty bound"
        )
    return GaussianState(1, np.zeros(2), np.diag([var_x, var_p]))


@functools.lru_cache(maxsize=64)
def _bs_symplectic(n_modes: int, mode_a: int, mode_b: int, transmittance: float) -> np.ndarray:
    """Read-only symplectic matrix of ``beam_splitter``."""
    s = np.eye(2 * n_modes)
    t = math.sqrt(transmittance)
    r = math.sqrt(1.0 - transmittance)
    for off in (0, 1):  # same 2x2 block on x and p
        ia, ib = 2 * mode_a + off, 2 * mode_b + off
        s[ia, ia], s[ia, ib] = t, r
        s[ib, ia], s[ib, ib] = r, -t
    return _frozen(s)


def beam_splitter(
    state: GaussianState, mode_a: int, mode_b: int, transmittance: float
) -> GaussianState:
    """Two-mode beam splitter with the stated sign convention.

    Maps a -> sqrt(T) a + sqrt(1-T) b and b -> sqrt(1-T) a - sqrt(T) b, i.e.
    the minus sign sits on the reflected copy of mode_b.
    """
    state._check_mode(mode_a)
    state._check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("beam splitter needs two distinct modes")
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {transmittance}")
    s = _bs_symplectic(state.n_modes, mode_a, mode_b, transmittance)
    cov = _bs_cov(state.n_modes, mode_a, mode_b, transmittance, state.cov.tobytes())
    return GaussianState(state.n_modes, s @ state.mean, cov)


@functools.lru_cache(maxsize=256)
def _bs_cov(n_modes: int, mode_a: int, mode_b: int, transmittance: float, cov_bytes: bytes):
    """Read-only covariance after ``beam_splitter``: (S C S^T + its transpose) / 2."""
    s = _bs_symplectic(n_modes, mode_a, mode_b, transmittance)
    cov = s @ _cov_of(n_modes, cov_bytes) @ s.T
    return _frozen((cov + cov.T) / 2.0)


def displace(state: GaussianState, mode: int, dx: float, dp: float) -> GaussianState:
    """Shift the mean of one mode by (dx, dp); the covariance is untouched."""
    state._check_mode(mode)
    mean = state.mean.copy()
    mean[2 * mode] += dx
    mean[2 * mode + 1] += dp
    return GaussianState(state.n_modes, mean, state.cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state: block direct sum of means and covariances."""
    n = a.n_modes + b.n_modes
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * a.n_modes, : 2 * a.n_modes] = a.cov
    cov[2 * a.n_modes :, 2 * a.n_modes :] = b.cov
    return GaussianState(n, np.concatenate([a.mean, b.mean]), cov)


def partial_trace(state: GaussianState, keep) -> GaussianState:
    """Restrict the state to the given set of modes (ascending order)."""
    kept = sorted(set(int(k) for k in keep))
    for k in kept:
        state._check_mode(k)
    idx = np.array([2 * k + off for k in kept for off in (0, 1)], dtype=int)
    return GaussianState(len(kept), state.mean[idx], state.cov[np.ix_(idx, idx)])


@functools.lru_cache(maxsize=64)
def _rest_index(n_modes: int, mode: int) -> tuple[np.ndarray, tuple]:
    """Read-only indices of every quadrature outside ``mode``, and their
    ``np.ix_`` grid."""
    rest = np.array(
        [i for i in range(2 * n_modes) if i not in (2 * mode, 2 * mode + 1)], dtype=int
    )
    return _frozen(rest), np.ix_(rest, rest)


def measure_quadrature(
    state: GaussianState, quad: Quadrature, rng: np.random.Generator
) -> tuple[MeasurementRecord, GaussianState]:
    """Homodyne measurement of one quadrature.

    The outcome is drawn from the Gaussian marginal of ``quad``.  The measured
    mode is removed from the returned state (its conjugate quadrature is
    discarded with it) and the remaining modes are conditioned on the outcome:
    the mean shifts along the cross covariance and the covariance shrinks by
    the Schur complement of the measured variance.

    A marginal variance below 1e-12 is treated as deterministic, which is only
    legal when the measured quadrature is uncorrelated with the rest.
    """
    state._check_mode(quad.mode)
    qi = quad.index
    rest = _rest_index(state.n_modes, quad.mode)[0]
    # the tolerance is read here, so a changed tolerance is a new key
    var, cross, cov = _conditioned(state.n_modes, qi, state.cov.tobytes(), DEGENERATE_VAR_TOL)
    if cross is None:
        outcome = float(state.mean[qi])
        reduced = GaussianState(state.n_modes - 1, state.mean[rest], cov)
        return MeasurementRecord(quad, outcome), reduced
    outcome = float(state.mean[qi]) + math.sqrt(var) * float(rng.standard_normal())
    mean = state.mean[rest] + cross * ((outcome - state.mean[qi]) / var)
    return MeasurementRecord(quad, outcome), GaussianState(state.n_modes - 1, mean, cov)


@functools.lru_cache(maxsize=256)
def _conditioned(n_modes: int, qi: int, cov_bytes: bytes, degenerate_tol: float):
    """The outcome-independent part of measuring quadrature ``qi``: its
    variance, the read-only cross covariance cov[rest, qi] and the read-only
    conditioned covariance of the other modes.  The cross covariance is None
    for a variance below ``degenerate_tol``, a deterministic outcome that
    leaves the other modes as they were.

    A rejection raises, and ``lru_cache`` never stores an exception.
    """
    cov = _cov_of(n_modes, cov_bytes)
    rest, rest_grid = _rest_index(n_modes, qi // 2)
    var = float(cov[qi, qi])
    cross = cov[:, qi][rest]  # the entries of cov[rest, qi], indexed faster
    if var < degenerate_tol:
        if cross.size and float(np.max(np.abs(cross))) > degenerate_tol:
            raise ValueError("degenerate marginal with nonzero cross covariance")
        return var, None, _frozen(cov[rest_grid])
    cov = cov[rest_grid] - cross[:, None] * cross / var
    return var, _frozen(cross), _frozen((cov + cov.T) / 2.0)


def fidelity_coherent_vs_gaussian(alpha_mean, clone: GaussianState) -> float:
    """Overlap of a coherent state with a single-mode Gaussian state.

    F = 2 / sqrt((1+sx)(1+sp)) * exp(-[dx^2/(1+sx) + dp^2/(1+sp)] / 2)

    where (sx, sp) are the clone variances and (dx, dp) its mean offsets from
    the coherent state.  This is the unique normalisation for which two
    coherent states overlap as exp(-|a-b|^2).  The clone covariance must be
    diagonal; x-p correlated inputs are rejected.
    """
    if clone.n_modes != 1:
        raise ValueError("fidelity expects a single-mode clone state")
    ax, ap = float(alpha_mean[0]), float(alpha_mean[1])
    if not (math.isfinite(ax) and math.isfinite(ap)):
        raise ValueError("coherent amplitude must be finite")
    if abs(float(clone.cov[0, 1])) > DIAGONAL_TOL:
        raise ValueError("clone covariance has x-p correlations; not supported")
    sx, sp = float(clone.cov[0, 0]), float(clone.cov[1, 1])
    dx = float(clone.mean[0]) - ax
    dp = float(clone.mean[1]) - ap
    return (
        2.0
        / math.sqrt((1.0 + sx) * (1.0 + sp))
        * math.exp(-0.5 * (dx * dx / (1.0 + sx) + dp * dp / (1.0 + sp)))
    )
