import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvclone import montecarlo
from cvclone.benchmarks import (
    FlatLimit,
    KnownPhase,
    Single,
    SymmetricGaussian,
    average_fidelity,
)
from cvclone.cloner import (
    ClonerConfig,
    _trajectory_model,
    build_circuit,
    gaussian_machine,
    heisenberg_clone_stats,
    phase_known_machine,
)
from cvclone.gaussian import coherent
from cvclone.montecarlo import (
    KNOWN_PHASE_AMPLITUDES,
    MAX_TRAJECTORIES,
    TrajectoryBatch,
    compare_with_analytic,
    empirical_fidelity,
    reproduce_figure3,
    reproduce_figure4,
    run_batch,
    trajectory_normals,
)

SQ85 = (math.sqrt(8 / 5), math.sqrt(5 / 8))


def test_run_batch_validates_arguments():
    cfg = gaussian_machine(0.5)
    with pytest.raises(ValueError):
        run_batch(cfg, SymmetricGaussian(1.0), 0, seed=1)
    with pytest.raises(ValueError):
        run_batch(cfg, FlatLimit(), 100, seed=1)
    with pytest.raises(ValueError):
        run_batch(cfg, SymmetricGaussian(1.0), 100, seed=1, workers=0)


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
    batch = run_batch(cfg, alphabet, n, seed=seed, keep_records=True)
    assert len(batch.outcomes) == len(batch.clone_means) == n
    circuit = build_circuit(cfg, coherent(2.0, -1.0))
    for i in [*range(200), 4095, 4096, 4099]:
        records, state = circuit.run(_Replay(seed, i, 2))
        assert records[0].outcome == pytest.approx(batch.outcomes[i, 0], abs=1e-9)
        assert records[1].outcome == pytest.approx(batch.outcomes[i, 1], abs=1e-9)
        assert state.mode_mean(0)[0] == pytest.approx(batch.clone_means[i, 0], abs=1e-9)
        assert state.mode_mean(0)[1] == pytest.approx(batch.clone_means[i, 1], abs=1e-9)
        assert state.mode_cov(0)[0, 0] == pytest.approx(batch.clone_cov_diag[0], abs=1e-9)
        assert state.mode_cov(0)[1, 1] == pytest.approx(batch.clone_cov_diag[1], abs=1e-9)


def test_batch_trajectories_match_circuit_with_loss_and_elec_noise():
    cfg = gaussian_machine(0.83, eta_ff=0.95, visibility=0.99)
    seed, n = 77, 100
    batch = run_batch(cfg, Single(3.0, 1.0), n, seed=seed, elec_noise=0.4, keep_records=True)
    assert len(batch.clone_means) == n
    circuit = build_circuit(cfg, coherent(3.0, 1.0))
    for i in range(0, n, 7):
        # X outcome, its electronic noise, P outcome, its electronic noise
        _, state = circuit.run(_Replay(seed, i, 4), elec_noise=0.4)
        assert state.mode_mean(0)[0] == pytest.approx(batch.clone_means[i, 0], abs=1e-9)
        assert state.mode_mean(0)[1] == pytest.approx(batch.clone_means[i, 1], abs=1e-9)


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
    full = run_batch(cfg, alphabet, 10_000, seed=17, elec_noise=0.1, keep_records=True)
    assert len(full.input_means) == len(full.outcomes) == len(full.clone_means) == 10_000
    for n in (1, 4095, 4096, 4097, 10_000):
        part = run_batch(cfg, alphabet, n, seed=17, elec_noise=0.1, keep_records=True)
        assert len(part.input_means) == len(part.outcomes) == len(part.clone_means) == n
        assert part.input_means.tobytes() == full.input_means[:n].tobytes()
        assert part.clone_means.tobytes() == full.clone_means[:n].tobytes()
        assert part.outcomes.tobytes() == full.outcomes[:n].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3 * 4096),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    workers=st.sampled_from([1, 2]),
)
def test_block_streams_are_prefix_and_worker_invariant(n, seed, workers):
    cfg = gaussian_machine(0.83, eta_ff=0.95, visibility=0.99)
    full = run_batch(cfg, SymmetricGaussian(1.72), 3 * 4096, seed, keep_records=True)
    part = run_batch(cfg, SymmetricGaussian(1.72), n, seed, workers=workers, keep_records=True)
    assert len(full.clone_means) == 3 * 4096
    assert len(part.clone_means) == len(part.outcomes) == n
    assert part.clone_means.tobytes() == full.clone_means[:n].tobytes()
    assert part.outcomes.tobytes() == full.outcomes[:n].tobytes()


def test_same_seed_same_aggregates_across_workers():
    cfg = gaussian_machine(0.83)
    a = run_batch(cfg, SymmetricGaussian(1.72), 20_000, seed=9, workers=1, keep_records=True)
    b = run_batch(cfg, SymmetricGaussian(1.72), 20_000, seed=9, workers=8, keep_records=True)
    assert len(a.clone_means) == len(b.clone_means) == 20_000
    assert a.clone_means.tobytes() == b.clone_means.tobytes()
    assert a.outcomes.tobytes() == b.outcomes.tobytes()
    assert (a.lambda_x, a.sigma_x, a.sigma_p, a.f_hat) == (b.lambda_x, b.sigma_x, b.sigma_p, b.f_hat)
    c = run_batch(cfg, SymmetricGaussian(1.72), 20_000, seed=9, workers=1)
    assert c.f_hat == a.f_hat


def _two_pass(batch):
    """The estimators written out over the records: per quadrature the
    through-origin slope (NaN without signal, the residual then taken against
    the mean), sigma = cond_var + mean(residual^2), standard errors from
    sample standard deviations, and the mean per-shot fidelity.  The spread
    of the per-shot variance is taken on residual^2 alone, which is the same
    number as on cond_var + residual^2 without the rounding of the sum."""
    n = batch.n_traj
    ref = {}
    for q, name in enumerate("xp"):
        x, y = batch.input_means[:, q], batch.clone_means[:, q]
        sxx = float(x @ x)
        if sxx < 1e-12:
            lam = se_lam = math.nan
            resid = y - np.mean(y)
        else:
            lam = float(x @ y) / sxx
            resid = y - lam * x
            se_lam = math.sqrt(float(resid @ resid) / max(n - 1, 1) / sxx)
        r2 = resid**2
        ref[f"lambda_{name}"] = lam
        ref[f"se_lambda_{name}"] = se_lam
        ref[f"sigma_{name}"] = batch.clone_cov_diag[q] + float(np.mean(r2))
        ref[f"se_sigma_{name}"] = float(np.std(r2, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    gx, gp = 1.0 + batch.clone_cov_diag
    d = batch.clone_means - batch.input_means
    f = 2.0 / math.sqrt(gx * gp) * np.exp(-0.5 * (d[:, 0] ** 2 / gx + d[:, 1] ** 2 / gp))
    ref["f_hat"] = float(np.mean(f))
    ref["se_f"] = float(np.std(f, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return ref


@pytest.mark.parametrize("n", [1, 2, 4095, 4096, 4097, 50_000])
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
    recorded = run_batch(cfg, alphabet, n, seed=29, elec_noise=0.1, keep_records=True)
    assert len(recorded.input_means) == len(recorded.clone_means) == n
    ref = _two_pass(recorded)
    for key, value in ref.items():
        assert getattr(recorded, key) == getattr(streamed, key) or math.isnan(value), key
        # an exact zero, such as se_sigma of a mean fit at n = 2, is
        # compared to an absolute 1e-15, far below any standard error here
        expected = pytest.approx(value, rel=1e-12, abs=1e-15, nan_ok=True)
        assert getattr(streamed, key) == expected, key
    if isinstance(alphabet, KnownPhase):
        assert math.isnan(streamed.lambda_p)


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
    with pytest.raises(ValueError, match="keep_records"):
        empirical_fidelity(batch)


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
        batch = run_batch(cfg, SymmetricGaussian(v), 50_000, seed=seed, keep_records=True)
        assert len(batch.clone_means) == 50_000
        f, se = empirical_fidelity(batch)
        assert f == pytest.approx(2 / 3, abs=4 * se)


def test_phase_known_batch_and_amplitude_independence():
    batch = run_batch(phase_known_machine(), KnownPhase(), 80_000, seed=13, keep_records=True)
    assert len(batch.input_means) == len(batch.clone_means) == 80_000
    f, se = empirical_fidelity(batch)
    assert f == pytest.approx(2 / math.sqrt(5), abs=4 * se)
    assert math.isnan(batch.lambda_p)
    # per-amplitude estimates agree pairwise within 3 combined SEs
    amps = batch.input_means[:, 0]
    per_amp = []
    for a in KNOWN_PHASE_AMPLITUDES:
        sel = amps == a
        sub_f = _fidelity_subset(batch, sel)
        per_amp.append(sub_f)
    for (fa, sa), (fb, sb) in zip(per_amp, per_amp[1:]):
        assert abs(fa - fb) <= 3.0 * math.hypot(sa, sb)


def _fidelity_subset(batch, sel):
    sub = TrajectoryBatch(
        config=batch.config,
        alphabet=batch.alphabet,
        n_traj=int(sel.sum()),
        seed=batch.seed,
        elec_noise=batch.elec_noise,
        input_means=batch.input_means[sel],
        outcomes=batch.outcomes[sel],
        clone_means=batch.clone_means[sel],
        clone_cov_diag=batch.clone_cov_diag,
        lambda_x=math.nan, lambda_p=math.nan,
        sigma_x=math.nan, sigma_p=math.nan, f_hat=math.nan,
        se_lambda_x=math.nan, se_lambda_p=math.nan,
        se_sigma_x=math.nan, se_sigma_p=math.nan, se_f=math.nan,
    )
    return empirical_fidelity(sub)


def test_empirical_fidelity_of_perfect_passthrough():
    # degenerate machine: clone = input exactly, still one record per shot
    means = np.array([[2.0, 0.0], [0.0, 1.0], [-3.0, 4.0]])
    batch = TrajectoryBatch(
        config=gaussian_machine(0.5),
        alphabet=Single(2.0, 0.0),
        n_traj=3,
        seed=0,
        elec_noise=0.0,
        input_means=means,
        outcomes=np.zeros((3, 1)),
        clone_means=means.copy(),
        clone_cov_diag=np.array([1.0, 1.0]),
        lambda_x=1.0, lambda_p=1.0, sigma_x=1.0, sigma_p=1.0, f_hat=1.0,
        se_lambda_x=0.0, se_lambda_p=0.0, se_sigma_x=0.0, se_sigma_p=0.0, se_f=0.0,
    )
    f, se = empirical_fidelity(batch)
    assert f == 1.0
    assert se == 0.0
    with pytest.raises(ValueError):
        empirical_fidelity(batch, SymmetricGaussian(1.0))


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


def test_trajectory_model_draw_layout():
    model = _trajectory_model(phase_known_machine())
    assert not model.has_p_outcome
    model = _trajectory_model(gaussian_machine(0.5))
    assert model.has_p_outcome
