import itertools
import math

import numpy as np
import pytest

from cvclone import optimize
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
    _constrained_map_fidelity,
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


def test_optimize_t1_stable_under_grid_doubling(monkeypatch):
    coarse = optimize_t1(1.3)
    monkeypatch.setattr(optimize, "_T1_GRID_POINTS", 2 * optimize._T1_GRID_POINTS)
    fine = optimize_t1(1.3)
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


# the grids as the optimisers lay them out, each scanned point by point
# with the scalar objective (the loops the array calls replace) and in one
# array call; the grid only picks the golden-section bracket, so the two
# must pick the same point
WIDTHS = np.geomspace(0.01, 100.0, 300).tolist()


def _argmax_per_point(f, xs):
    return int(np.argmax([f(x) for x in xs.tolist()]))


def test_heterodyne_grid_picks_the_per_point_argmax():
    gains = np.linspace(0.0, 1.0, 201)
    for v in WIDTHS:
        expected = _argmax_per_point(lambda g: heterodyne_reprepare_fidelity(g, v), gains)
        assert int(np.argmax(heterodyne_reprepare_fidelity(gains, v))) == expected, v


def test_heterodyne_array_route_agrees_with_the_scalar_route():
    gains = np.linspace(0.0, 1.0, 201)
    for v in (0.01, 1.72, 100.0):
        scalar = [heterodyne_reprepare_fidelity(g, v) for g in gains.tolist()]
        assert np.allclose(heterodyne_reprepare_fidelity(gains, v), scalar, rtol=1e-14, atol=0)


def test_homodyne_grid_picks_the_per_point_argmax():
    for n in range(2, 302):
        s = np.linspace(0.05, 8.0, n)
        expected = _argmax_per_point(homodyne_squeezed_fidelity, s)
        assert int(np.argmax(homodyne_squeezed_fidelity(s))) == expected, n


def test_squeezed_map_grid_picks_the_first_per_point_maximum():
    for n in range(2, 66):
        lams = np.linspace(0.10, 0.95, n)
        dns = np.linspace(0.05, 3.0, n)
        best, expected = -1.0, None
        for i, lam in enumerate(lams.tolist()):
            for j, dn in enumerate(dns.tolist()):
                f = _constrained_map_fidelity(lam, dn)
                if f > best:
                    best, expected = f, (i, j)
        grid = _constrained_map_fidelity(lams[:, None], dns[None, :])
        assert np.unravel_index(np.argmax(grid), grid.shape) == expected, n


def _full_grid_then_golden(f, lo, hi, grid_points, tol):
    # the reference scan: every grid point in one array call
    xs = np.linspace(lo, hi, grid_points)
    i = int(np.argmax(f(xs)))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid_points - 1)]
    x, fx, evals = golden_section_max(f, float(a), float(b), tol)
    return x, fx, evals + grid_points


def test_coarse_to_fine_scan_brackets_the_peak_of_any_lopsided_unimodal_grid():
    # a slow rise to the grid point j and a steep fall after it (and the
    # mirror image), so the best coarse point can sit a whole stride away
    for n in [*range(2, 40), 64, 128, 201]:
        xs = np.linspace(0.0, 1.0, n)
        for j, slope in itertools.product(range(n), (1e3, -1e3)):
            def f(x, peak=xs[j], slope=slope):
                d = x - peak
                return -np.where(d * slope > 0, abs(slope) * abs(d), 1e-3 * abs(d))

            full = _full_grid_then_golden(f, 0.0, 1.0, n, 1e-6)
            x, fx, _ = optimize._grid_then_golden(f, 0.0, 1.0, n, 1e-6)
            assert (x, fx) == full[:2], (n, j, slope)


def _searches():
    # every caller of _grid_then_golden, over the widths the optimisers see
    t1_widths = np.geomspace(1e-3, 1e3, 400).tolist() + np.arange(0.2, 5.01, 0.2).tolist()
    for v in t1_widths:
        yield f"t1 V={v}", lambda v=v: optimize_t1(v)
    for v in WIDTHS:
        yield f"heterodyne V={v}", lambda v=v: optimize_classical(
            "heterodyne-reprepare", SymmetricGaussian(v)
        )
    yield "homodyne", lambda: optimize_classical("homodyne-squeezed")
    yield "vacuum phase-known", lambda: optimize_phase_known("vacuum-ancillas")


def _fields(res):
    return res.params, res.f_value, res.certificate


def test_coarse_to_fine_scan_gives_the_full_grid_results(monkeypatch):
    scanned = [(name, _fields(search())) for name, search in _searches()]
    monkeypatch.setattr(optimize, "_grid_then_golden", _full_grid_then_golden)
    for (name, fields), (_, search) in zip(scanned, _searches()):
        assert fields == _fields(search()), name


def _counting(monkeypatch, owner, name):
    # counts each point of an array argument as one evaluation
    calls = 0
    original = getattr(owner, name)

    def counted(x, *args):
        nonlocal calls
        calls += len(x) if isinstance(x, np.ndarray) else 1
        return original(x, *args)

    monkeypatch.setattr(owner, name, counted)
    return lambda: calls


def test_iterations_count_every_objective_evaluation(monkeypatch):
    searches = [
        ("heterodyne_reprepare_fidelity",
         lambda: optimize_classical("heterodyne-reprepare", SymmetricGaussian(1.72))),
        ("homodyne_squeezed_fidelity", lambda: optimize_classical("homodyne-squeezed")),
        ("_vacuum_phase_known_fidelity", lambda: optimize_phase_known("vacuum-ancillas")),
    ]
    for name, search in searches:
        calls = _counting(monkeypatch, optimize, name)
        assert search().iterations == calls(), name
    for v in (0.5, 1.72, 1e6):  # the optimum at t1 = 1, inside, and near 1/2
        calls = _counting(monkeypatch, optimize.benchmarks, "gaussian_alphabet_fidelity")
        assert optimize_t1(v).iterations == calls(), v
        monkeypatch.undo()
