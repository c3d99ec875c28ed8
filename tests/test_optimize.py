import math

import numpy as np
import pytest

from cvclone.benchmarks import (
    KnownPhase,
    SymmetricGaussian,
    classical_gaussian_alphabet,
    classical_known_phase,
    gaussian_alphabet_fidelity,
    known_phase_map_fidelity,
    optimal_gaussian_fidelity,
    phase_known_optimal_bound,
)
from cvclone.optimize import (
    _GH_HET_NOISE,
    _GH_HET_WEIGHTS,
    _GH_NODES,
    golden_section_max,
    heterodyne_reprepare_fidelity,
    homodyne_squeezed_fidelity,
    optimize_classical,
    optimize_phase_known,
    optimize_t1,
)


def test_golden_section_on_parabola():
    x, fx, evals = golden_section_max(lambda x: -((x - 0.3) ** 2), -1.0, 2.0, tol=1e-10)
    assert x == pytest.approx(0.3, abs=1e-8)
    assert fx == pytest.approx(0.0, abs=1e-15)
    assert evals > 10


def test_optimize_t1_feedforward_regime():
    res = optimize_t1(1.72)
    assert res.params.t1 == pytest.approx(0.8329, abs=1e-4)
    assert res.f_value == pytest.approx(0.784452, abs=1e-6)
    assert res.certificate["t1"] < 1e-4
    assert res.certificate["fidelity"] < 1e-6


def test_optimize_t1_boundary_regime():
    res = optimize_t1(0.5)
    assert res.params.t1 == 1.0
    assert res.f_value == pytest.approx(1 / (1 + 0.5 * (3 - 2 * math.sqrt(2))), abs=1e-9)


def test_optimize_t1_flat_limit():
    res = optimize_t1(1e6)
    assert res.params.t1 == pytest.approx(0.5, abs=1e-4)
    assert res.f_value == pytest.approx(2 / 3, abs=1e-6)


def test_optimize_t1_certificate_over_grid():
    for v in np.arange(0.2, 5.01, 0.2):
        res = optimize_t1(float(v))
        assert res.certificate["t1"] <= 1e-4
        assert res.certificate["fidelity"] <= 1e-6


def test_optimize_t1_stable_under_grid_doubling():
    coarse = optimize_t1(1.3, grid_points=64)
    fine = optimize_t1(1.3, grid_points=128)
    assert coarse.f_value == pytest.approx(fine.f_value, abs=1e-6)
    assert coarse.params.t1 == pytest.approx(fine.params.t1, abs=1e-6)


def test_optimize_t1_beats_random_search():
    rng = np.random.default_rng(17)
    res = optimize_t1(1.3)
    for t1 in rng.uniform(1e-3, 1.0, size=1000):
        assert gaussian_alphabet_fidelity(float(t1), 1.3) <= res.f_value + 1e-12


def test_optimize_phase_known_squeezed():
    res = optimize_phase_known("squeezed-ancillas")
    bound = phase_known_optimal_bound()
    assert res.params["lambda_p"] == pytest.approx(0.5, abs=1e-4)
    assert res.params["dn_x"] == pytest.approx(math.sqrt(2 / 5), abs=1e-4)
    assert res.params["dn_p"] == pytest.approx(math.sqrt(5 / 2), abs=1e-4)
    assert res.f_value == pytest.approx(bound.fidelity, abs=1e-6)


def test_optimize_phase_known_vacuum():
    res = optimize_phase_known("vacuum-ancillas")
    assert res.params["lambda_p"] == pytest.approx(0.5, abs=1e-3)
    assert res.f_value == pytest.approx(2 / math.sqrt(5), abs=1e-6)


def test_optimize_phase_known_rejects_unknown_model():
    with pytest.raises(ValueError):
        optimize_phase_known("thermal")


def test_commutation_floor_binds():
    # without the noise-product floor the map fidelity is unbounded by the
    # optimum: near-unit phase gain and vanishing noises beat it
    bound = phase_known_optimal_bound()
    unconstrained = known_phase_map_fidelity(0.999, 1e-6, 1e-6)
    assert unconstrained > bound.fidelity


def test_classical_gaussian_oracle_matches_closed_form():
    for v in (0.1, 0.5, 1.0, 1.72, 3.0, 5.0):
        res = optimize_classical("heterodyne-reprepare", SymmetricGaussian(v))
        closed = classical_gaussian_alphabet(v)
        assert res.certificate["fidelity"] <= 1e-6
        assert res.params["gain"] == pytest.approx(closed.gain, abs=1e-3)


def test_classical_gaussian_oracle_small_alphabet():
    res = optimize_classical("heterodyne-reprepare", SymmetricGaussian(1e-6))
    assert res.params["gain"] == pytest.approx(0.0, abs=1e-3)
    assert res.f_value == pytest.approx(1.0, abs=1e-5)


def test_classical_known_phase_oracle():
    res = optimize_classical("homodyne-squeezed")
    assert res.params["prep_var_x"] == pytest.approx(math.sqrt(2), abs=1e-3)
    assert res.params["prep_var_p"] == pytest.approx(1 / math.sqrt(2), abs=1e-3)
    assert res.f_value == pytest.approx(classical_known_phase().fidelity, abs=1e-6)
    assert res.f_value == pytest.approx(0.82843, abs=1e-5)


def test_known_phase_objective_against_dense_scan():
    # brute scan of the closed objective (2 + s)(1 + 1/s) independently
    # locates the same squeezing optimum
    s = np.linspace(0.5, 4.0, 1_000_000)
    product = (2 + s) * (1 + 1 / s)
    s_best = s[np.argmin(product)]
    assert s_best == pytest.approx(math.sqrt(2), abs=1e-3)
    assert homodyne_squeezed_fidelity(float(s_best)) == pytest.approx(
        2 / math.sqrt(product.min()), abs=1e-9
    )


def test_coherent_repreparation_known_phase_value():
    # no squeezing: F = 2/sqrt(6)
    assert homodyne_squeezed_fidelity(1.0) == pytest.approx(2 / math.sqrt(6), abs=1e-9)


def test_heterodyne_oracle_is_an_integral_not_the_closed_form():
    # off the optimum the integral must still track the exact average
    v, g = 1.72, 0.5
    exact = 1.0 / (1.0 + 2 * v * (1 - g) ** 2 + g**2)
    assert heterodyne_reprepare_fidelity(g, v) == pytest.approx(exact, abs=1e-9)


def test_heterodyne_integrand_matches_the_plain_expression_bit_for_bit():
    # the in-place integrand multiplies by -0.25 where this divides by -4
    for v in (0.5, 1.0, 1.72, 3.0, 5.0):
        xbar = math.sqrt(2.0 * 4.0 * v) * _GH_NODES[:, None]
        for g in np.linspace(0.0, 1.0, 201).tolist():
            delta = (g - 1.0) * xbar + g * _GH_HET_NOISE
            plain = float(np.sum(_GH_HET_WEIGHTS * np.exp(-(delta**2) / 4.0))) ** 2
            assert heterodyne_reprepare_fidelity(g, v) == plain


def test_optimize_classical_argument_errors():
    with pytest.raises(ValueError):
        optimize_classical("heterodyne-reprepare", KnownPhase())
    with pytest.raises(ValueError):
        optimize_classical("teleport")


def test_optimizer_dominates_random_known_phase_draws():
    rng = np.random.default_rng(3)
    res = optimize_phase_known("squeezed-ancillas")
    for _ in range(1000):
        lam = rng.uniform(0.1, 0.95)
        dn_x = rng.uniform(0.05, 3.0)
        c = max(1.0, ((1 - lam) / lam) ** 2)
        f = known_phase_map_fidelity(lam, dn_x, c / dn_x)
        assert f <= res.f_value + 1e-9
