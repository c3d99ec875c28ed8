import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvclone.benchmarks import (
    BEAM_SPLITTER_THRESHOLD,
    KnownPhase,
    Regime,
    Single,
    SymmetricGaussian,
    average_fidelity,
    classical_gaussian_alphabet,
    classical_known_phase,
    gaussian_alphabet_fidelity,
    known_phase_map_fidelity,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from cvclone.cloner import CloneStatistics, gaussian_machine, heisenberg_clone_stats


def test_alphabet_validation():
    with pytest.raises(ValueError):
        SymmetricGaussian(0.0)
    with pytest.raises(ValueError):
        Single(math.inf, 0.0)


def test_average_fidelity_measured_operating_point():
    # measured gains/noises of the heterodyne machine run at V = 1.72
    stats = CloneStatistics(lambda_x=0.775, lambda_p=0.775, sigma_x=1.21, sigma_p=1.26)
    f = average_fidelity(stats, SymmetricGaussian(1.72))
    assert f == pytest.approx(0.774, abs=2e-3)


def test_average_fidelity_flat_limit_of_unity_gain_machine():
    stats = CloneStatistics(1.0, 1.0, 2.0, 2.0)
    assert average_fidelity(stats, SymmetricGaussian(1e6)) == pytest.approx(2 / 3, abs=1e-9)


def test_average_fidelity_known_phase():
    stats = CloneStatistics(1.0, 0.5, 1.5, 1.0)
    assert average_fidelity(stats, KnownPhase()) == pytest.approx(2 / math.sqrt(5))
    with pytest.raises(ValueError):
        average_fidelity(CloneStatistics(0.9, 0.5, 1.5, 1.0), KnownPhase())


def test_average_fidelity_single_state():
    stats = CloneStatistics(1.0, 1.0, 2.0, 2.0)
    assert average_fidelity(stats, Single(2.0, 0.0)) == pytest.approx(2 / 3)
    # gain mismatch on a known single state costs the mean offset penalty
    stats = CloneStatistics(0.5, 1.0, 2.0, 2.0)
    expected = 2 / 3 * math.exp(-0.5 * 1.0**2 / 3.0)
    assert average_fidelity(stats, Single(2.0, 0.0)) == pytest.approx(expected)


def test_gaussian_alphabet_fidelity_values():
    assert gaussian_alphabet_fidelity(0.83, 1.72) == pytest.approx(0.7845, abs=5e-4)
    for v in (0.3, 1.0, 4.2):
        assert gaussian_alphabet_fidelity(0.5, v) == pytest.approx(2 / 3, abs=1e-12)
    assert gaussian_alphabet_fidelity(1.0, 1.0) == pytest.approx(
        1 / (1 + (3 - 2 * math.sqrt(2))), abs=1e-12
    )
    with pytest.raises(ValueError):
        gaussian_alphabet_fidelity(0.0, 1.0)
    with pytest.raises(ValueError):
        gaussian_alphabet_fidelity(0.5, -1.0)


def test_gaussian_alphabet_fidelity_matches_machine_statistics():
    for t1, v in ((0.5, 1.0), (0.83, 1.72), (0.95, 0.4)):
        stats = heisenberg_clone_stats(gaussian_machine(t1))
        assert gaussian_alphabet_fidelity(t1, v) == pytest.approx(
            average_fidelity(stats, SymmetricGaussian(v)), abs=1e-12
        )


def test_optimal_gaussian_fidelity_branches():
    opt = optimal_gaussian_fidelity(1.72)
    assert opt.fidelity == pytest.approx(0.7845, abs=1e-4)
    assert opt.t1 == pytest.approx(0.833, abs=1e-3)
    assert opt.regime is Regime.FEEDFORWARD

    narrow = optimal_gaussian_fidelity(0.5)
    assert narrow.t1 == 1.0
    assert narrow.regime is Regime.BEAM_SPLITTER_ONLY

    assert optimal_gaussian_fidelity(1e-9).fidelity == pytest.approx(1.0, abs=1e-8)
    wide = optimal_gaussian_fidelity(1e6)
    assert wide.fidelity == pytest.approx(2 / 3, abs=1e-6)
    assert wide.t1 == pytest.approx(0.5, abs=1e-5)


def test_optimal_gaussian_fidelity_continuous_at_threshold():
    vt = BEAM_SPLITTER_THRESHOLD
    upper = (4 * vt + 2) / (6 * vt + 1)
    lower = 1 / ((3 - 2 * math.sqrt(2)) * vt + 1)
    assert abs(upper - lower) < 1e-12
    assert upper == pytest.approx(0.8284, abs=1e-4)


def test_optimum_dominates_fixed_transmittance_grid():
    for v in np.arange(0.1, 5.01, 0.1):
        best = optimal_gaussian_fidelity(float(v)).fidelity
        for t1 in np.linspace(0.01, 1.0, 150):
            assert gaussian_alphabet_fidelity(float(t1), float(v)) <= best + 1e-12


def test_classical_gaussian_alphabet():
    assert classical_gaussian_alphabet(1e9).fidelity == pytest.approx(0.5, abs=1e-8)
    assert classical_gaussian_alphabet(1.72).fidelity == pytest.approx(0.563452, abs=1e-6)
    assert classical_gaussian_alphabet(1e-9).fidelity == pytest.approx(1.0, abs=1e-8)
    assert classical_gaussian_alphabet(1.0).gain == pytest.approx(2 / 3, abs=1e-12)


def test_classical_known_phase():
    f, prep_var_p = classical_known_phase()
    assert f == pytest.approx(2 / math.sqrt(3 + 2 * math.sqrt(2)), abs=1e-15)
    assert f == pytest.approx(0.8284, abs=1e-4)
    assert prep_var_p == pytest.approx(1 / math.sqrt(2))


def test_phase_known_optimal_bound_values():
    bound = phase_known_optimal_bound()
    assert bound.fidelity == pytest.approx(4 * (math.sqrt(10) - 1) / 9, abs=1e-15)
    assert bound.lambda_p == 0.5
    assert bound.dn_x == pytest.approx(math.sqrt(2 / 5))
    assert bound.dn_p == pytest.approx(math.sqrt(5 / 2))
    assert bound.dn_x * bound.dn_p == pytest.approx(1.0, abs=1e-12)
    # the bound is what the generic-map fidelity gives at its parameters
    assert known_phase_map_fidelity(bound.lambda_p, bound.dn_x, bound.dn_p) == pytest.approx(
        bound.fidelity, abs=1e-12
    )


def test_quantum_beats_classical_across_the_sweep():
    for v in np.arange(0.1, 5.01, 0.1):
        assert optimal_gaussian_fidelity(float(v)).fidelity > classical_gaussian_alphabet(
            float(v)
        ).fidelity


@settings(max_examples=40, deadline=None)
@given(st.floats(0.3, 0.99), st.floats(0.05, 3.0), st.floats(0.05, 3.0))
def test_average_fidelity_decreases_with_alphabet_width(lam, v1, v2):
    # with a gain mismatch, widening the alphabet can only hurt
    stats = CloneStatistics(lam, lam, 1.5, 1.5)
    lo, hi = sorted((v1, v2))
    if hi - lo < 1e-9:
        return
    f_lo = average_fidelity(stats, SymmetricGaussian(lo))
    f_hi = average_fidelity(stats, SymmetricGaussian(hi))
    assert f_hi < f_lo + 1e-15
