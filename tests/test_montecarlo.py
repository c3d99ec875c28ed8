import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvclone import montecarlo
from cvclone.benchmarks import (
    KnownPhase,
    Single,
    SymmetricGaussian,
    average_fidelity,
)
from cvclone.cloner import (
    ClonerConfig,
    _shot_model,
    build_circuit,
    gaussian_machine,
    heisenberg_clone_stats,
    phase_known_machine,
)
from cvclone.experiments import _random_machines, reproduce_figure3, reproduce_figure4
from cvclone.gaussian import coherent
from cvclone.montecarlo import (
    KNOWN_PHASE_AMPLITUDES,
    MAX_TRAJECTORIES,
    _fit_sums,
    _mean_sums,
    _shot_fidelity,
    _simulate_block,
    _statistics,
    _zero_mean_sums,
    compare_with_analytic,
    run_batch,
    trajectory_normals,
)

SQ85 = (math.sqrt(8 / 5), math.sqrt(5 / 8))


def _records(cfg, alphabet, n, seed, elec_noise=0.0):
    """Input means, outcomes and clone means of trajectories 0..n-1, block
    by block as run_batch simulates them, and the conditional variances."""
    model = _shot_model(cfg, elec_noise)
    blocks = [
        _simulate_block(model, alphabet, elec_noise, seed, b, min(4096, n - 4096 * b))
        for b in range(-(-n // 4096))
    ]
    # the blocks are quadrature-major; the records are one row per trajectory
    means, outcomes, clone = (
        np.concatenate([block[j] for block in blocks], axis=1).T for j in range(3)
    )
    return means, outcomes, clone, model[0][5]


def test_run_batch_validates_arguments():
    cfg = gaussian_machine(0.5)
    with pytest.raises(ValueError):
        run_batch(cfg, SymmetricGaussian(1.0), 0, seed=1)
    # one trajectory has no standard error; every se was reported as 0.0
    with pytest.raises(ValueError, match=r"n_traj must lie in \[2, "):
        run_batch(cfg, SymmetricGaussian(1.0), 1, seed=1)
    with pytest.raises(ValueError, match="cannot be sampled"):
        run_batch(cfg, object(), 100, seed=1)


def test_run_batch_bounds_trajectory_count_before_allocating(monkeypatch):
    cfg, alphabet = gaussian_machine(0.5), SymmetricGaussian(1.0)
    # rejected by the bound, not by a failed allocation of ~4.8 TB of records
    with pytest.raises(ValueError, match=str(MAX_TRAJECTORIES)):
        run_batch(cfg, alphabet, 10**11, seed=1)
    monkeypatch.setattr(montecarlo, "MAX_TRAJECTORIES", 5000)
    assert run_batch(cfg, alphabet, 5000, seed=1).n_traj == 5000
    with pytest.raises(ValueError, match="n_traj"):
        run_batch(cfg, alphabet, 5001, seed=1)


@pytest.mark.parametrize("elec", [math.inf, math.nan, -0.1])
def test_run_batch_rejects_bad_electronic_noise(elec):
    with pytest.raises(ValueError, match="elec_noise"):
        run_batch(phase_known_machine(), KnownPhase(), 100, seed=1, elec_noise=elec)


def test_single_state_batch_matches_analytic():
    batch = run_batch(gaussian_machine(0.5), Single(2.0, 0.0), 100_000, seed=11)
    assert batch.lambda_x == pytest.approx(1.0, abs=0.01)
    assert math.isnan(batch.lambda_p)  # no phase signal to regress on
    assert batch.sigma_x == pytest.approx(2.0, abs=0.04)
    assert batch.sigma_p == pytest.approx(2.0, abs=0.04)
    table = compare_with_analytic(batch)
    assert set(table) == {"lambda_x", "sigma_x", "sigma_p", "fidelity"}
    for row in table.values():
        assert abs(row["z"]) <= 4.0


def test_compare_skips_only_a_gain_without_input_signal():
    known = run_batch(phase_known_machine(), KnownPhase(), 2000, seed=3)
    assert known.no_signal == ("p",)
    assert "lambda_p" not in compare_with_analytic(known)
    gaussian = run_batch(gaussian_machine(0.8), SymmetricGaussian(1.0), 2000, seed=3)
    assert gaussian.no_signal == ()
    # a NaN that no missing signal explains is an error, not a dropped row
    for name in ("lambda_p", "lambda_x", "sigma_x", "f_hat"):
        broken = dataclasses.replace(gaussian, **{name: math.nan})
        with pytest.raises(ValueError, match=name.replace("f_hat", "fidelity")):
            compare_with_analytic(broken)
    with pytest.raises(ValueError, match="sigma_p"):
        compare_with_analytic(dataclasses.replace(known, sigma_p=math.nan))


class _Replay:
    """Stands in for the circuit's generator: hands out the normals that
    trajectory i of a batch consumes, one per ``standard_normal()`` call."""

    def __init__(self, seed, i, k):
        self._draws = iter(trajectory_normals(seed, i, k))

    def standard_normal(self):
        return float(next(self._draws))


def test_batch_trajectories_match_explicit_circuit_runs():
    # the vectorised affine path and the step-by-step Gaussian circuit
    # consume identical streams and must produce the same shots, on both
    # sides of the first block boundary
    cfg = gaussian_machine(0.7, anc1=(1.5, 1.4 / 1.5), anc3=(0.8, 1.25))
    alphabet = Single(2.0, -1.0)
    seed, n = 404, 4100
    _, outcomes, clone_means, cond_var = _records(cfg, alphabet, n, seed)
    assert len(outcomes) == len(clone_means) == n
    assert run_batch(cfg, alphabet, n, seed=seed).clone_cov_diag.tobytes() == cond_var.tobytes()
    circuit = build_circuit(cfg, coherent(2.0, -1.0))
    for i in [*range(200), 4095, 4096, 4099]:
        records, state = circuit.run(_Replay(seed, i, 2))
        assert records[0].outcome == pytest.approx(outcomes[i, 0], abs=1e-9)
        assert records[1].outcome == pytest.approx(outcomes[i, 1], abs=1e-9)
        assert state.mode_mean(0)[0] == pytest.approx(clone_means[i, 0], abs=1e-9)
        assert state.mode_mean(0)[1] == pytest.approx(clone_means[i, 1], abs=1e-9)
        assert state.mode_cov(0)[0, 0] == pytest.approx(cond_var[0], abs=1e-9)
        assert state.mode_cov(0)[1, 1] == pytest.approx(cond_var[1], abs=1e-9)


def test_batch_trajectories_match_circuit_with_loss_and_elec_noise():
    cfg = gaussian_machine(0.83, eta_ff=0.95, visibility=0.99)
    seed, n = 77, 100
    _, _, clone_means, _ = _records(cfg, Single(3.0, 1.0), n, seed, elec_noise=0.4)
    assert len(clone_means) == n
    circuit = build_circuit(cfg, coherent(3.0, 1.0))
    for i in range(0, n, 7):
        # X outcome, its electronic noise, P outcome, its electronic noise
        _, state = circuit.run(_Replay(seed, i, 4), elec_noise=0.4)
        assert state.mode_mean(0)[0] == pytest.approx(clone_means[i, 0], abs=1e-9)
        assert state.mode_mean(0)[1] == pytest.approx(clone_means[i, 1], abs=1e-9)


def test_trajectory_normals_are_rows_of_the_block_stream():
    block = np.random.default_rng((5, 1)).standard_normal((4096, 3))
    assert trajectory_normals(5, 4096, 3).tobytes() == block[0].tobytes()
    assert trajectory_normals(5, 8191, 3).tobytes() == block[4095].tobytes()
    with pytest.raises(ValueError):
        trajectory_normals(5, -1, 3)


@pytest.mark.parametrize(
    "cfg, alphabet",
    [
        (gaussian_machine(0.83, eta_ff=0.95, visibility=0.99), SymmetricGaussian(1.72)),
        (phase_known_machine(eta_ff=0.95, visibility=0.99), KnownPhase()),
    ],
    ids=["gaussian", "known-phase"],
)
def test_records_are_prefixes_of_a_longer_run(cfg, alphabet):
    # trajectory i is the same whatever n is; for the known-phase alphabet
    # this also pins the amplitude grid to the global index i
    full = _records(cfg, alphabet, 10_000, seed=17, elec_noise=0.1)[:3]
    assert [len(a) for a in full] == [10_000] * 3
    for n in (1, 4095, 4096, 4097, 10_000):
        part = _records(cfg, alphabet, n, seed=17, elec_noise=0.1)[:3]
        assert [len(a) for a in part] == [n] * 3
        for a, b in zip(part, full):
            assert a.tobytes() == b[:n].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3 * 4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_streams_are_prefix_invariant(n, seed):
    cfg = gaussian_machine(0.83, eta_ff=0.95, visibility=0.99)
    _, full_outcomes, full_clone, _ = _records(cfg, SymmetricGaussian(1.72), 3 * 4096, seed)
    _, outcomes, clone_means, _ = _records(cfg, SymmetricGaussian(1.72), n, seed)
    assert len(full_clone) == 3 * 4096
    assert len(clone_means) == len(outcomes) == n
    assert clone_means.tobytes() == full_clone[:n].tobytes()
    assert outcomes.tobytes() == full_outcomes[:n].tobytes()


def test_same_seed_same_aggregates():
    cfg = gaussian_machine(0.83)
    a = run_batch(cfg, SymmetricGaussian(1.72), 20_000, seed=9)
    b = run_batch(cfg, SymmetricGaussian(1.72), 20_000, seed=9)
    keys = ("lambda_x", "lambda_p", "sigma_x", "sigma_p", "f_hat",
            "se_lambda_x", "se_lambda_p", "se_sigma_x", "se_sigma_p", "se_f")
    assert [getattr(a, k) for k in keys] == [getattr(b, k) for k in keys]


def _two_pass(input_means, clone_means, cond_var):
    """The estimators written out over the records: per quadrature the
    through-origin slope (NaN without signal, the residual then taken against
    the mean), sigma = cond_var + mean(residual^2), standard errors from
    sample standard deviations, and the mean per-shot fidelity.  The spread
    of the per-shot variance is taken on residual^2 alone, which is the same
    number as on cond_var + residual^2 without the rounding of the sum."""
    n = len(input_means)
    ref = {}
    for q, name in enumerate("xp"):
        x, y = input_means[:, q], clone_means[:, q]
        sxx = float(x @ x)
        if sxx < 1e-12:
            lam = se_lam = math.nan
            resid = y - np.mean(y)
        else:
            lam = float(x @ y) / sxx
            resid = y - lam * x
            se_lam = math.sqrt(float(resid @ resid) / (n - 1) / sxx)
        r2 = resid**2
        ref[f"lambda_{name}"] = lam
        ref[f"se_lambda_{name}"] = se_lam
        ref[f"sigma_{name}"] = cond_var[q] + float(np.mean(r2))
        ref[f"se_sigma_{name}"] = float(np.std(r2, ddof=1)) / math.sqrt(n)
    gx, gp = 1.0 + cond_var
    d = clone_means - input_means
    f = 2.0 / math.sqrt(gx * gp) * np.exp(-0.5 * (d[:, 0] ** 2 / gx + d[:, 1] ** 2 / gp))
    ref["f_hat"] = float(np.mean(f))
    ref["se_f"] = float(np.std(f, ddof=1)) / math.sqrt(n)
    return ref


@pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 50_000])
@pytest.mark.parametrize(
    "cfg, alphabet",
    [
        (gaussian_machine(0.83, eta_ff=0.95, visibility=0.99), SymmetricGaussian(1.72)),
        # zero-signal p quadrature with constant clone means
        (phase_known_machine(eta_ff=0.95, visibility=0.99), KnownPhase()),
        # zero-signal p quadrature with random clone means
        (gaussian_machine(0.83, eta_ff=0.95, visibility=0.99), KnownPhase()),
    ],
    ids=["gaussian", "known-phase", "heterodyne-known-phase"],
)
def test_streamed_aggregates_match_two_pass_reference(cfg, alphabet, n):
    streamed = run_batch(cfg, alphabet, n, seed=29, elec_noise=0.1)
    input_means, _, clone_means, cond_var = _records(cfg, alphabet, n, seed=29, elec_noise=0.1)
    assert len(input_means) == len(clone_means) == n
    assert streamed.clone_cov_diag.tobytes() == cond_var.tobytes()
    ref = _two_pass(input_means, clone_means, cond_var)
    for key, value in ref.items():
        # an exact zero, such as se_sigma of a mean fit at n = 2, is
        # compared to an absolute 1e-15, far below any standard error here
        expected = pytest.approx(value, rel=1e-12, abs=1e-15, nan_ok=True)
        assert getattr(streamed, key) == expected, key
    if isinstance(alphabet, KnownPhase):
        assert math.isnan(streamed.lambda_p)


@settings(max_examples=40, deadline=None)
@given(
    machine_seed=st.integers(min_value=0, max_value=2**32 - 1),
    homodyne=st.booleans(),
    alphabet=st.sampled_from(
        [SymmetricGaussian(1.72), KnownPhase(), Single(2.0, 0.0), Single(-1.5, 0.7)]
    ),
    elec_noise=st.sampled_from([0.0, 0.3]),
    n=st.integers(min_value=2, max_value=3 * 4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_streamed_aggregates_match_two_pass_reference_on_random_machines(
    machine_seed, homodyne, alphabet, elec_noise, n, seed
):
    # lossy machines with squeezed ancillas; at t2 = 1 p is not measured.
    # KnownPhase skips the p fit, Single(2, 0) fits p on zero inputs, and two
    # shots of a mean fit leave w = r² equal to rounding
    row = _random_machines(np.random.default_rng(machine_seed), 1)[0]
    if homodyne:
        row[1] = 1.0
    t1, t2, g_x, g_p, vx1, vp1, vx3, vp3, eta, vis = row.tolist()
    cfg = ClonerConfig(t1=t1, t2=t2, g_x=g_x, g_p=g_p, anc1=(vx1, vp1), anc3=(vx3, vp3),
                       eta_ff=eta, visibility=vis)
    streamed = run_batch(cfg, alphabet, n, seed=seed, elec_noise=elec_noise)
    input_means, _, clone_means, cond_var = _records(cfg, alphabet, n, seed, elec_noise)
    for key, value in _two_pass(input_means, clone_means, cond_var).items():
        expected = pytest.approx(value, rel=1e-12, abs=1e-15, nan_ok=True)
        assert getattr(streamed, key) == expected, key


def _bits(fit):
    return np.array([fit[0], *fit[1]]).tobytes()


@pytest.mark.parametrize("m", [1, 2, 7, 4096])
def test_no_input_constants_are_the_sums_of_zero_rows(m):
    zeros = np.zeros(m)
    y = np.random.default_rng(m).standard_normal(m)
    assert _bits(_zero_mean_sums(m)) == _bits(_mean_sums(zeros))
    if m == 1:
        # a one-row block ends a 4097-trajectory batch, but statistics need
        # at least 2 trajectories
        return
    # a skipped slope fit (None) reads as the fit of y on zero inputs
    fidelity = _mean_sums(np.exp(-y * y))
    x_fits = [_fit_sums(np.arange(m, dtype=float), y), _mean_sums(y)]
    skipped = _statistics(x_fits + [None, _mean_sums(y), fidelity], m, np.array([0.5, 0.7]))
    fitted = _statistics(
        x_fits + [_fit_sums(zeros, y), _mean_sums(y), fidelity], m, np.array([0.5, 0.7])
    )
    assert "p" in skipped["no_signal"]
    assert repr(sorted(skipped.items())) == repr(sorted(fitted.items()))


def test_run_batch_memory_is_flat_without_records():
    cfg = gaussian_machine(0.83, eta_ff=0.95, visibility=0.99)
    run_batch(cfg, SymmetricGaussian(1.72), 10, seed=1, elec_noise=0.1)
    tracemalloc.start()
    try:
        batch = run_batch(cfg, SymmetricGaussian(1.72), 200_000, seed=3, elec_noise=0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.n_traj == 200_000
    # the records alone would take 48 B per trajectory, 9.6 MB
    assert peak < 2_000_000


def test_batch_without_records_has_empty_record_arrays():
    batch = run_batch(phase_known_machine(), KnownPhase(), 5000, seed=1)
    assert batch.input_means.shape == (0, 2)
    assert batch.outcomes.shape == (0, 1)
    assert batch.clone_means.shape == (0, 2)
    assert run_batch(gaussian_machine(0.5), Single(1.0, 1.0), 10, seed=1).outcomes.shape == (0, 2)


def test_run_batch_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        run_batch(gaussian_machine(0.5), SymmetricGaussian(1.0), 10, seed=-5)


def test_standard_error_scaling():
    cfg = gaussian_machine(0.83)
    small = run_batch(cfg, SymmetricGaussian(1.72), 20_000, seed=5)
    large = run_batch(cfg, SymmetricGaussian(1.72), 40_000, seed=6)
    ratio = small.se_f / large.se_f
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.10)


def test_gaussian_alphabet_batch_against_analytic():
    cfg = gaussian_machine(0.8329502433747973)
    batch = run_batch(cfg, SymmetricGaussian(1.72), 100_000, seed=2)
    for name, row in compare_with_analytic(batch).items():
        assert abs(row["z"]) <= 4.0, name
    stats = heisenberg_clone_stats(cfg)
    assert batch.f_hat == pytest.approx(
        average_fidelity(stats, SymmetricGaussian(1.72)), abs=4 * batch.se_f
    )


def test_published_operating_point_batch():
    # T1 = 0.83 with gain 0.64, the quoted experimental setting
    cfg = ClonerConfig(t1=0.83, t2=0.5, g_x=0.64, g_p=0.64)
    batch = run_batch(cfg, SymmetricGaussian(1.72), 50_000, seed=83)
    assert batch.f_hat == pytest.approx(0.785, abs=0.005)
    assert batch.lambda_x == pytest.approx(0.776, abs=0.01)


def test_unity_gain_machine_reaches_two_thirds_for_any_alphabet():
    cfg = gaussian_machine(0.5)
    for v, seed in ((0.5, 21), (3.0, 22)):
        batch = run_batch(cfg, SymmetricGaussian(v), 50_000, seed=seed)
        assert batch.f_hat == pytest.approx(2 / 3, abs=4 * batch.se_f)


def test_phase_known_batch_and_amplitude_independence():
    cfg = phase_known_machine()
    batch = run_batch(cfg, KnownPhase(), 80_000, seed=13)
    assert batch.f_hat == pytest.approx(2 / math.sqrt(5), abs=4 * batch.se_f)
    assert math.isnan(batch.lambda_p)
    # per-amplitude estimates agree pairwise within 3 combined SEs
    input_means, _, clone_means, cond_var = _records(cfg, KnownPhase(), 80_000, seed=13)
    f = _shot_fidelity((clone_means - input_means).T, cond_var)
    assert float(np.mean(f)) == pytest.approx(batch.f_hat, rel=1e-12)
    per_amp = []
    for a in KNOWN_PHASE_AMPLITUDES:
        sub = f[input_means[:, 0] == a]
        per_amp.append((float(np.mean(sub)), float(np.std(sub, ddof=1)) / math.sqrt(len(sub))))
    for (fa, sa), (fb, sb) in zip(per_amp, per_amp[1:]):
        assert abs(fa - fb) <= 3.0 * math.hypot(sa, sb)


def test_electronic_noise_hook():
    cfg = gaussian_machine(0.83)
    noisy = run_batch(cfg, SymmetricGaussian(1.72), 60_000, seed=31, elec_noise=0.5)
    clean = run_batch(cfg, SymmetricGaussian(1.72), 60_000, seed=31)
    assert noisy.sigma_x > clean.sigma_x
    for name, row in compare_with_analytic(noisy).items():
        assert abs(row["z"]) <= 4.0, name


def test_reproduce_figure3_rows():
    rows = reproduce_figure3([0.5, 1.0, 1.72, 3.0], n_traj=4000, seed=100)
    assert [r["v"] for r in rows] == [0.5, 1.0, 1.72, 3.0]
    for row in rows:
        assert row["f_classical"] < row["f_ideal"]
        assert row["f_imperfect"] <= row["f_ideal"]
        assert abs(row["f_mc"] - row["f_imperfect"]) <= 4.0 * row["se_mc"]
    # beam-splitter regime: the lossy machine has zero gain, the loss channel
    # feeds nothing forward, and the curves coincide exactly
    assert rows[0]["f_imperfect"] == rows[0]["f_ideal"]
    assert rows[2]["f_ideal"] == pytest.approx(0.7845, abs=1e-4)
    assert rows[2]["f_imperfect"] == pytest.approx(0.780, abs=1e-3)


def test_reproduce_figure4_ideal_and_lossy():
    report = reproduce_figure4(n_traj=20_000, seed=55)
    assert report["ideal_noise_db"] == pytest.approx(1.761, abs=1e-3)
    assert report["f_ideal"] == pytest.approx(2 / math.sqrt(5), abs=1e-9)
    assert report["f_classical"] == pytest.approx(0.8284, abs=1e-4)
    assert report["f_bound"] == pytest.approx(0.961012, abs=1e-6)
    assert report["imperfect_noise_db"] > report["ideal_noise_db"]
    assert report["imperfect_noise_db"] == pytest.approx(1.867, abs=2e-3)
    assert 0.885 <= report["f_imperfect"] <= 0.895
    assert abs(report["f_mc"] - report["f_imperfect"]) <= 4.0 * report["se_mc"]


def test_reproduce_figure4_noise_grows_with_loss():
    dbs = [
        reproduce_figure4(eta_ff=eta)["imperfect_noise_db"] for eta in (1.0, 0.95, 0.9, 0.85)
    ]
    assert all(b > a for a, b in zip(dbs, dbs[1:]))


def test_reproduce_figure4_at_measured_gain():
    report = reproduce_figure4(lambda_x=0.98)
    assert report["lambda_x"] == pytest.approx(0.98, abs=1e-12)
    assert 0.885 <= report["f_imperfect"] <= 0.895


def test_shot_model_draw_layout():
    assert _shot_model(phase_known_machine())[1] == 1
    assert _shot_model(gaussian_machine(0.5))[1] == 2
