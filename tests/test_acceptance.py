"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 2 checks two gains at alphabet variance V = 1.72.  At the
exact optimum T1 = 0.83295 the matched gain is 0.63333, and it must equal the
closed form sqrt(2(1-t1*)/t1*) with t1* = (1/(2V)+1)^2/2.  The reference gain
0.64 +- 0.005 is the gain of the quoted setting T1 = 0.83, the optimum rounded
to two decimals, so it is checked at the rounded transmittance.
"""

import math
import time

import numpy as np
import pytest

from cvclone.benchmarks import (
    BEAM_SPLITTER_THRESHOLD,
    KnownPhase,
    Single,
    SymmetricGaussian,
    average_fidelity,
    classical_gaussian_alphabet,
    optimal_gaussian_fidelity,
)
from cvclone.cloner import (
    CloneStatistics,
    ClonerConfig,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)
from cvclone.experiments import reproduce_figure4
from cvclone.montecarlo import compare_with_analytic, run_batch
from cvclone.optimize import (
    heterodyne_reprepare_fidelity,
    optimize_classical,
    optimize_phase_known,
    optimize_t1,
)

SQ85 = (math.sqrt(8 / 5), math.sqrt(5 / 8))


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_flat_limit_fidelity():
    start = time.monotonic()
    stats = heisenberg_clone_stats(gaussian_machine(0.5))
    f = average_fidelity(stats, SymmetricGaussian(1e6))
    elapsed = time.monotonic() - start
    _report(
        "criterion-01 flat-limit fidelity",
        abs(f - 2 / 3) <= 1e-4 and elapsed < 1.0,
        f"F={f:.6f} vs 2/3, {elapsed:.3f}s",
    )


def test_c02_gaussian_optimum_at_v172():
    v = 1.72
    start = time.monotonic()
    res = optimize_t1(v)
    elapsed = time.monotonic() - start
    t1 = res.params.t1
    t1_star = 0.5 * (1 / (2 * v) + 1) ** 2
    gain_star = math.sqrt(2 * (1 - t1_star) / t1_star)
    gain = matched_gain(t1)
    t1_quoted = round(t1, 2)
    gain_quoted = matched_gain(t1_quoted)
    ok_t1 = abs(t1 - 0.8329) <= 1e-3
    ok_f = abs(res.f_value - 0.7845) <= 1e-4
    ok_gain = abs(gain - gain_star) <= 1e-6
    ok_quoted = abs(gain_quoted - 0.64) <= 0.005
    _report(
        "criterion-02 gaussian optimum at V=1.72",
        ok_t1 and ok_f and ok_gain and ok_quoted and elapsed < 1.0,
        f"T1={t1:.5f} (ok={ok_t1}), optimum gain={gain:.5f} vs closed form "
        f"{gain_star:.5f}+-1e-6 (ok={ok_gain}), reference gain at T1={t1_quoted:.2f} "
        f"is {gain_quoted:.5f} vs 0.64+-0.005 (ok={ok_quoted}), "
        f"F={res.f_value:.6f} (ok={ok_f}), {elapsed:.3f}s",
    )


def test_c03_experimental_point_reproduction():
    stats = CloneStatistics(lambda_x=0.775, lambda_p=0.775, sigma_x=1.21, sigma_p=1.26)
    f = average_fidelity(stats, SymmetricGaussian(1.72))
    _report(
        "criterion-03 measured-statistics fidelity",
        abs(f - 0.774) <= 2e-3,
        f"F={f:.6f} vs 0.774+-0.002 (measured 0.775+-0.01)",
    )


def test_c04_piecewise_optimum_identity():
    start = time.monotonic()
    worst = 0.0
    for v in np.arange(0.1, 5.01, 0.1):
        res = optimize_t1(float(v))
        worst = max(worst, abs(res.f_value - optimal_gaussian_fidelity(float(v)).fidelity))
    vt = BEAM_SPLITTER_THRESHOLD
    upper = (4 * vt + 2) / (6 * vt + 1)
    lower = 1 / ((3 - 2 * math.sqrt(2)) * vt + 1)
    jump = abs(upper - lower)
    elapsed = time.monotonic() - start
    _report(
        "criterion-04 numeric optimum equals closed form",
        worst <= 1e-9 and jump <= 1e-12 and elapsed < 1.0,
        f"max|F_num-F_closed|={worst:.2e}, branch jump={jump:.2e}, {elapsed:.3f}s",
    )


def test_c05_phase_known_vacuum_cloner():
    start = time.monotonic()
    f = average_fidelity(phase_known_clone_stats((1, 1), (1, 1)), KnownPhase())
    ok_analytic = abs(f - 2 / math.sqrt(5)) <= 1e-9
    batch = run_batch(phase_known_machine(), KnownPhase(), 100_000, seed=501)
    diff = abs(batch.f_hat - f)
    elapsed = time.monotonic() - start
    _report(
        "criterion-05 phase-known vacuum cloner",
        ok_analytic and diff <= 4 * batch.se_f and elapsed < 10.0,
        f"F={f:.9f} vs 0.894427191, MC diff={diff:.5f} "
        f"({diff / batch.se_f:.2f} SE), {elapsed:.2f}s",
    )


def test_c06_phase_known_optimal_cloner():
    f = average_fidelity(phase_known_clone_stats((1e6, 1e-6), SQ85), KnownPhase())
    target = 4 * (math.sqrt(10) - 1) / 9
    ok_f = abs(f - target) <= 1e-5
    res = optimize_phase_known("squeezed-ancillas")
    gaps = (
        abs(res.params["lambda_p"] - 0.5),
        abs(res.params["dn_x"] - math.sqrt(2 / 5)),
        abs(res.params["dn_p"] - math.sqrt(5 / 2)),
    )
    _report(
        "criterion-06 phase-known optimal cloner",
        ok_f and max(gaps) <= 1e-4,
        f"F={f:.7f} vs {target:.7f}, optimizer gaps={tuple(f'{g:.1e}' for g in gaps)}",
    )


def test_c07_classical_known_phase_benchmark():
    res = optimize_classical("homodyne-squeezed")
    target = 2 / math.sqrt(3 + 2 * math.sqrt(2))
    ok = (
        abs(res.params["prep_var_x"] - math.sqrt(2)) <= 1e-3
        and abs(res.f_value - target) <= 1e-5
    )
    _report(
        "criterion-07 classical known-phase benchmark",
        ok,
        f"s_x={res.params['prep_var_x']:.6f} vs sqrt(2), F={res.f_value:.6f} vs "
        f"{target:.6f} (0.82843; quoted ~0.828, misprinted radicand documented)",
    )


def test_c08_classical_gaussian_benchmark():
    worst = 0.0
    for v in np.arange(0.1, 5.01, 0.1):
        res = optimize_classical("heterodyne-reprepare", SymmetricGaussian(float(v)))
        worst = max(worst, res.certificate["fidelity"])
    tail = classical_gaussian_alphabet(1e9).fidelity
    _report(
        "criterion-08 classical gaussian benchmark",
        worst <= 1e-6 and abs(tail - 0.5) <= 1e-8,
        f"max|closed-oracle|={worst:.2e}, F(V->inf)={tail:.9f} vs 1/2",
    )


def test_c09_decibel_check_and_lossy_band():
    stats = phase_known_clone_stats((1, 1), (1, 1))
    db = 10 * math.log10(stats.sigma_x)
    ok_db = abs(db - 10 * math.log10(1.5)) <= 1e-9 and abs(db - 1.75) <= 0.05
    report = reproduce_figure4(eta_ff=0.95, visibility=0.99)
    ok_f = 0.885 <= report["f_imperfect"] <= 0.895
    _report(
        "criterion-09 noise in dB and lossy fidelity band",
        ok_db and ok_f,
        f"ideal={db:.4f} dB (1.761 vs quoted 1.75, band +-0.05), "
        f"lossy F={report['f_imperfect']:.4f} in [0.885, 0.895] "
        f"(measured 88.7-89.1%)",
    )


def test_c10_lossy_sweep_ordering():
    eta, vis = 0.95, 0.99
    strictly_below = True
    exactly_equal = True
    for v in np.arange(0.2, 5.01, 0.2):
        v = float(v)
        t1 = optimal_gaussian_fidelity(v).t1
        alphabet = SymmetricGaussian(v)
        f_ideal = average_fidelity(heisenberg_clone_stats(gaussian_machine(t1)), alphabet)
        f_lossy = average_fidelity(
            heisenberg_clone_stats(gaussian_machine(t1, eta, vis)), alphabet
        )
        if v > BEAM_SPLITTER_THRESHOLD:
            strictly_below &= f_lossy < f_ideal
        else:
            exactly_equal &= f_lossy == f_ideal
    _report(
        "criterion-10 lossy sweep ordering",
        strictly_below and exactly_equal,
        f"strictly below above threshold: {strictly_below}, "
        f"bitwise equal below threshold: {exactly_equal}",
    )


def test_c11_monte_carlo_oracle_equivalence():
    start = time.monotonic()
    configs = [
        (gaussian_machine(0.5), Single(2.0, 0.0)),
        (gaussian_machine(optimal_gaussian_fidelity(1.72).t1), SymmetricGaussian(1.72)),
        (
            gaussian_machine(optimal_gaussian_fidelity(1.72).t1, 0.95, 0.99),
            SymmetricGaussian(1.72),
        ),
        (phase_known_machine(), KnownPhase()),
        (phase_known_machine((1e6, 1e-6), SQ85), Single(2.0, 2.0)),
    ]
    worst_z = 0.0
    for i, (cfg, alphabet) in enumerate(configs):
        batch = run_batch(cfg, alphabet, 100_000, seed=1100 + i)
        for name, row in compare_with_analytic(batch).items():
            worst_z = max(worst_z, abs(row["z"]))
    a = run_batch(configs[1][0], configs[1][1], 20_000, seed=4242)
    b = run_batch(configs[1][0], configs[1][1], 20_000, seed=4242)
    identical = (
        a.f_hat == b.f_hat
        and a.se_f == b.se_f
        and a.sigma_x == b.sigma_x
        and a.lambda_x == b.lambda_x
    )
    elapsed = time.monotonic() - start
    _report(
        "criterion-11 Monte Carlo oracle equivalence",
        worst_z <= 4.0 and identical and elapsed < 60.0,
        f"worst |z|={worst_z:.2f} over 5 configs at 1e5 trajectories, "
        f"same-seed runs identical: {identical}, {elapsed:.1f}s",
    )


def test_c12_uncertainty_product_property():
    rng = np.random.default_rng(12)
    worst = math.inf
    for _ in range(1000):
        vx1 = float(np.exp(rng.uniform(-1.2, 1.2)))
        vx3 = float(np.exp(rng.uniform(-1.2, 1.2)))
        cfg = ClonerConfig(
            t1=float(rng.uniform(0.05, 1.0)),
            t2=float(rng.uniform(0.1, 0.95)),
            g_x=float(rng.uniform(0.0, 2.5)),
            g_p=float(rng.uniform(0.0, 2.5)),
            anc1=(vx1, float(rng.uniform(1.0, 3.0)) / vx1),
            anc3=(vx3, float(rng.uniform(1.0, 3.0)) / vx3),
            eta_ff=float(rng.uniform(0.85, 1.0)),
            visibility=float(rng.uniform(0.9, 1.0)),
        )
        dn_x, dn_p = heisenberg_clone_stats(cfg).referred_noise()
        worst = min(worst, dn_x * dn_p)
    _report(
        "criterion-12 referred-noise uncertainty product",
        worst >= 1.0 - 1e-9,
        f"min product over 1000 random configs = {worst:.12f} >= 1 - 1e-9",
    )


def test_oracle_note_gh_integration_is_independent():
    # guard for criterion 8: the oracle integrand really is the integral form
    v, g = 2.5, 0.61
    exact = 1.0 / (1.0 + 2 * v * (1 - g) ** 2 + g**2)
    assert heterodyne_reprepare_fidelity(g, v) == pytest.approx(exact, abs=1e-9)
