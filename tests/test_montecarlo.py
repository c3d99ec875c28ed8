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
from cvclone.experiments import reproduce_figure3, reproduce_figure4
from cvclone.gaussian import coherent
from cvclone.montecarlo import (
    KNOWN_PHASE_AMPLITUDES,
    MAX_TRAJECTORIES,
    _shot_fidelity,
    _simulate_block,
    compare_with_analytic,
    run_batch,
    trajectory_normals,
)

SQ85 = (math.sqrt(8 / 5), math.sqrt(5 / 8))


def _records(cfg, alphabet, n, seed, elec_noise=0.0):
    """Input means, outcomes and clone means of trajectories 0..n-1, block
    by block as run_batch simulates them, and the conditional variances."""
    model = _trajectory_model(cfg, elec_noise)
    blocks = [
        _simulate_block(model, alphabet, elec_noise, seed, b, min(4096, n - 4096 * b))
        for b in range(-(-n // 4096))
    ]
    means = np.concatenate([block[0] for block in blocks])
    outcomes = np.concatenate([np.column_stack(block[1]) for block in blocks])
    clone = np.concatenate([block[2] for block in blocks])
    return means, outcomes, clone, model.cond_var


def test_run_batch_validates_arguments():
    cfg = gaussian_machine(0.5)
    with pytest.raises(ValueError):
        run_batch(cfg, SymmetricGaussian(1.0), 0, seed=1)
    with pytest.raises(ValueError):
        run_batch(cfg, FlatLimit(), 100, seed=1)


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
            se_lam = math.sqrt(float(resid @ resid) / max(n - 1, 1) / sxx)
        r2 = resid**2
        ref[f"lambda_{name}"] = lam
        ref[f"se_lambda_{name}"] = se_lam
        ref[f"sigma_{name}"] = cond_var[q] + float(np.mean(r2))
        ref[f"se_sigma_{name}"] = float(np.std(r2, ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    gx, gp = 1.0 + cond_var
    d = clone_means - input_means
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
    f = _shot_fidelity(input_means, clone_means, cond_var)
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


def test_trajectory_model_draw_layout():
    model = _trajectory_model(phase_known_machine())
    assert not model.has_p_outcome
    model = _trajectory_model(gaussian_machine(0.5))
    assert model.has_p_outcome
