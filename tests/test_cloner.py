import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvclone.benchmarks import KnownPhase, average_fidelity
from cvclone.cloner import (
    ClonerConfig,
    CloningCircuit,
    build_circuit,
    clone_output_state,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)
from cvclone.gaussian import (
    GaussianState,
    Quadrature,
    beam_splitter,
    coherent,
    displace,
    measure_quadrature,
    partial_trace,
    squeezed_vacuum,
    tensor,
    vacuum,
)

SQ85 = (math.sqrt(8 / 5), math.sqrt(5 / 8))


def test_config_validation():
    with pytest.raises(ValueError):
        ClonerConfig(t1=1.3)
    with pytest.raises(ValueError):
        ClonerConfig(t1=0.5, eta_ff=0.0)
    with pytest.raises(ValueError):
        ClonerConfig(t1=0.5, anc1=(0.5, 1.0))


@pytest.mark.parametrize("name", ["eta_ff", "visibility"])
@pytest.mark.parametrize("value", [0.0, -0.5, 1.5, math.nan, math.inf])
def test_loss_parameters_are_checked_before_any_gain_is_derived(name, value):
    # each would otherwise divide by zero or pass a NaN gain on to the
    # config, whose message would then name the gain
    for build in (
        lambda: gaussian_machine(0.8, **{name: value}),
        lambda: phase_known_machine(**{name: value}),
        lambda: ClonerConfig(t1=0.5, g_x=math.nan, **{name: value}),
    ):
        with pytest.raises(ValueError, match=name):
            build()


@pytest.mark.parametrize("spec", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
def test_ancilla_variances_must_be_finite(spec):
    with pytest.raises(ValueError, match="anc1 variances"):
        ClonerConfig(t1=0.5, anc1=spec)


def test_matched_gain_values():
    assert matched_gain(0.5) == pytest.approx(math.sqrt(2.0))
    assert matched_gain(1.0) == 0.0
    assert matched_gain(0.83) == pytest.approx(0.64, abs=5e-4)
    with pytest.raises(ValueError):
        matched_gain(0.0)


def test_balanced_machine_is_unity_gain():
    stats = heisenberg_clone_stats(gaussian_machine(0.5))
    assert stats.lambda_x == pytest.approx(1.0)
    assert stats.lambda_p == pytest.approx(1.0)
    assert stats.sigma_x == pytest.approx(2.0)
    assert stats.sigma_p == pytest.approx(2.0)


def test_experimental_operating_point():
    stats = heisenberg_clone_stats(gaussian_machine(0.83))
    assert stats.lambda_x == pytest.approx(0.776, abs=1e-3)
    assert stats.sigma_x == pytest.approx(1.205, abs=1e-3)
    assert stats.sigma_p == pytest.approx(1.205, abs=1e-3)


def test_bare_beam_splitter_machine():
    stats = heisenberg_clone_stats(ClonerConfig(t1=1.0, t2=0.5, g_x=0.0, g_p=0.0))
    assert stats.lambda_x == pytest.approx(1.0 / math.sqrt(2.0))
    assert stats.sigma_x == pytest.approx(1.0)


def test_zero_transmittance_rejected():
    with pytest.raises(ValueError):
        heisenberg_clone_stats(ClonerConfig(t1=0.0, g_x=1.0))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.02, 1.0))
def test_gain_law(t1):
    stats = heisenberg_clone_stats(gaussian_machine(t1))
    assert stats.lambda_x == pytest.approx(1.0 / math.sqrt(2.0 * t1), abs=1e-12)
    assert stats.lambda_p == pytest.approx(1.0 / math.sqrt(2.0 * t1), abs=1e-12)
    assert stats.sigma_x == pytest.approx(1.0 / t1, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-1.5, 1.5), st.floats(1.0, 3.0))
def test_tap_ancilla_cancels_at_matched_gain(t1, log_vx, product):
    vx = math.exp(log_vx)
    ref = heisenberg_clone_stats(gaussian_machine(t1))
    stats = heisenberg_clone_stats(gaussian_machine(t1, anc1=(vx, product / vx)))
    assert stats.lambda_x == pytest.approx(ref.lambda_x, abs=1e-10)
    assert stats.sigma_x == pytest.approx(ref.sigma_x, abs=1e-10)
    assert stats.sigma_p == pytest.approx(ref.sigma_p, abs=1e-10)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.05, 1.0), st.floats(0.1, 0.95),
    st.floats(0.0, 2.5), st.floats(0.0, 2.5),
    st.floats(-1.2, 1.2), st.floats(1.0, 3.0),
    st.floats(-1.2, 1.2), st.floats(1.0, 3.0),
    st.floats(0.85, 1.0), st.floats(0.9, 1.0),
)
def test_referred_noise_uncertainty_product(t1, t2, gx, gp, l1, c1, l3, c3, eta, vis):
    vx1, vx3 = math.exp(l1), math.exp(l3)
    cfg = ClonerConfig(
        t1=t1, t2=t2, g_x=gx, g_p=gp,
        anc1=(vx1, c1 / vx1), anc3=(vx3, c3 / vx3),
        eta_ff=eta, visibility=vis,
    )
    dn_x, dn_p = heisenberg_clone_stats(cfg).referred_noise()
    assert dn_x * dn_p >= 1.0 - 1e-9


def test_phase_known_stats_vacuum():
    stats = phase_known_clone_stats((1, 1), (1, 1))
    assert (stats.lambda_x, stats.lambda_p) == (1.0, 0.5)
    assert stats.sigma_x == pytest.approx(1.5)
    assert stats.sigma_p == pytest.approx(1.0)
    assert average_fidelity(stats, KnownPhase()) == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    # amplitude noise above shot noise, in dB
    assert 10 * math.log10(stats.sigma_x) == pytest.approx(1.761, abs=1e-3)


def test_phase_known_stats_optimal_ancillas():
    stats = phase_known_clone_stats((1e6, 1e-6), SQ85)
    f = average_fidelity(stats, KnownPhase())
    assert f == pytest.approx(4 * (math.sqrt(10) - 1) / 9, abs=1e-6)


def test_phase_known_stats_match_general_map():
    anc1, anc3 = (1.4, 1.0 / 1.4), SQ85
    direct = phase_known_clone_stats(anc1, anc3)
    general = heisenberg_clone_stats(phase_known_machine(anc1, anc3))
    assert direct.lambda_x == pytest.approx(general.lambda_x, abs=1e-12)
    assert direct.lambda_p == pytest.approx(general.lambda_p, abs=1e-12)
    assert direct.sigma_x == pytest.approx(general.sigma_x, abs=1e-12)
    assert direct.sigma_p == pytest.approx(general.sigma_p, abs=1e-12)


def _marginal_stats(two_clone_state, mode, input_mean):
    lam_x = two_clone_state.mean[2 * mode] / input_mean[0]
    lam_p = two_clone_state.mean[2 * mode + 1] / input_mean[1]
    cov = two_clone_state.mode_cov(mode)
    return lam_x, lam_p, cov[0, 0], cov[1, 1]


@pytest.mark.parametrize(
    "cfg",
    [
        gaussian_machine(0.5),
        gaussian_machine(0.83),
        gaussian_machine(0.7, eta_ff=0.95, visibility=0.99),
        phase_known_machine((2.0, 0.5), SQ85),
        ClonerConfig(t1=0.6, t2=0.4, g_x=0.9, g_p=1.1, anc3=(1.3, 1 / 1.3)),
    ],
)
def test_circuit_ensemble_matches_analytic_stats(cfg):
    inp = coherent(3.0, -2.0)
    out = clone_output_state(cfg, inp)
    stats = heisenberg_clone_stats(cfg)
    for mode in (0, 1):
        lam_x, lam_p, sig_x, sig_p = _marginal_stats(out, mode, (3.0, -2.0))
        assert lam_x == pytest.approx(stats.lambda_x, abs=1e-10)
        assert lam_p == pytest.approx(stats.lambda_p, abs=1e-10)
        assert sig_x == pytest.approx(stats.sigma_x, abs=1e-10)
        assert sig_p == pytest.approx(stats.sigma_p, abs=1e-10)


def test_clone_output_state_symmetry_and_cross_covariance():
    cfg = gaussian_machine(0.5)
    out = clone_output_state(cfg, coherent(1.0, 2.0))
    assert np.allclose(out.mode_cov(0), out.mode_cov(1))
    assert np.allclose(out.mean[:2], out.mean[2:])
    stats = heisenberg_clone_stats(cfg)
    # shared displaced-beam noise: cross covariance is sigma minus the
    # output-splitter ancilla variance
    assert out.cov[0, 2] == pytest.approx(stats.sigma_x - 1.0, abs=1e-12)
    assert out.cov[1, 3] == pytest.approx(stats.sigma_p - 1.0, abs=1e-12)


def test_clone_output_state_vacuum_input_has_zero_means():
    out = clone_output_state(gaussian_machine(0.8), vacuum())
    assert np.allclose(out.mean, 0.0)


def test_inter_clone_covariance_matches_circuit_sampling():
    cfg = gaussian_machine(0.5)
    analytic = clone_output_state(cfg, coherent(2.0, 0.0))
    circuit = build_circuit(cfg, coherent(2.0, 0.0))
    rng = np.random.default_rng(123)
    n = 4000
    means = np.empty((n, 4))
    cond_cov = None
    for i in range(n):
        _, state = circuit.run(rng)
        means[i] = state.mean
        cond_cov = state.cov
    # law of total covariance: conditional cov (fixed) + scatter of the means
    total = cond_cov + np.cov(means.T, ddof=1)
    assert np.allclose(total, analytic.cov, atol=0.15)
    assert means.mean(axis=0) == pytest.approx(list(analytic.mean), abs=0.1)


def test_full_transmittance_circuit_is_a_balanced_splitter():
    cfg = ClonerConfig(t1=1.0, t2=0.5, g_x=0.0, g_p=0.0)
    out = clone_output_state(cfg, coherent(2.0, 0.0))
    s = math.sqrt(2.0)
    assert np.allclose(out.mean, [s, 0.0, s, 0.0], atol=1e-12)
    assert np.allclose(out.cov, np.eye(4), atol=1e-12)


def test_feedforward_loss_lowers_gaussian_fidelity():
    from cvclone.benchmarks import SymmetricGaussian

    for v in (1.5, 1.72, 3.0, 5.0):
        t1 = 0.5 * (1 / (2 * v) + 1) ** 2
        ideal = average_fidelity(heisenberg_clone_stats(gaussian_machine(t1)), SymmetricGaussian(v))
        lossy = average_fidelity(
            heisenberg_clone_stats(gaussian_machine(t1, eta_ff=0.95, visibility=0.99)),
            SymmetricGaussian(v),
        )
        assert lossy < ideal


def test_build_circuit_requires_single_mode_input():
    two_modes = tensor(vacuum(), vacuum())
    with pytest.raises(ValueError, match="single-mode input"):
        build_circuit(gaussian_machine(0.5), two_modes)
    with pytest.raises(ValueError, match="single-mode input"):
        CloningCircuit(config=gaussian_machine(0.5), input_state=two_modes)


def test_electronic_noise_adds_variance():
    cfg = gaussian_machine(0.7)
    clean = heisenberg_clone_stats(cfg)
    noisy = heisenberg_clone_stats(cfg, elec_noise=0.5)
    assert noisy.sigma_x > clean.sigma_x
    assert noisy.lambda_x == clean.lambda_x
    assert noisy.sigma_x - clean.sigma_x == pytest.approx(cfg.g_x**2 * 0.5 / 2, abs=1e-12)


def _reference_shot(cfg, input_state, rng, elec_noise):
    """One shot built from the primitives stage by stage, the fixed part
    included, in the circuit's order of stream use."""

    def elec():
        return math.sqrt(elec_noise) * float(rng.standard_normal()) if elec_noise > 0 else 0.0

    state = beam_splitter(tensor(input_state, squeezed_vacuum(*cfg.anc1)), 0, 1, cfg.t1)
    tau = cfg.feedforward_transmission
    if tau < 1.0:
        state = partial_trace(beam_splitter(tensor(state, vacuum()), 1, 2, tau), (0, 1))
    if cfg.t2 < 1.0:
        state = beam_splitter(tensor(state, vacuum()), 1, 2, cfg.t2)
        rec_x, state = measure_quadrature(state, Quadrature.x(1), rng)
        x_used = rec_x.outcome + elec()
        rec_p, state = measure_quadrature(state, Quadrature.p(1), rng)
        p_used = rec_p.outcome + elec()
        records, g_p = [rec_x, rec_p], cfg.g_p
    else:
        rec_x, state = measure_quadrature(state, Quadrature.x(1), rng)
        x_used = rec_x.outcome + elec()
        records, p_used, g_p = [rec_x], 0.0, 0.0
    state = displace(state, 0, cfg.g_x * x_used, g_p * p_used)
    state = beam_splitter(tensor(state, squeezed_vacuum(*cfg.anc3)), 0, 1, 0.5)
    return records, state


@pytest.mark.parametrize(
    "cfg, elec_noise",
    [
        (gaussian_machine(0.7, eta_ff=0.95, visibility=0.99), 0.1),  # t2 = 1/2, tau < 1
        (gaussian_machine(0.83), 0.0),  # t2 = 1/2, tau = 1
        (phase_known_machine((2.0, 0.5), SQ85, eta_ff=0.9), 0.2),  # t2 = 1, tau < 1
        (phase_known_machine(), 0.0),  # t2 = 1, tau = 1
        (ClonerConfig(t1=0.6, t2=0.4, g_x=0.9, g_p=1.1, anc1=(0.5, 2.0),
                      anc3=(1.3, 1 / 1.3), visibility=0.9), 0.3),
    ],
    ids=["heterodyne-lossy-noisy", "heterodyne", "homodyne-lossy-noisy-squeezed",
         "homodyne", "general-squeezed"],
)
def test_circuit_shots_are_bit_identical_to_the_per_shot_chain(cfg, elec_noise):
    inp = GaussianState(1, np.array([1.5, -0.5]), np.array([[1.2, 0.1], [0.1, 1.0]]))
    circuit = build_circuit(cfg, inp)
    rng_circuit, rng_ref = np.random.default_rng(77), np.random.default_rng(77)
    for _ in range(40):
        records, state = circuit.run(rng_circuit, elec_noise)
        ref_records, ref_state = _reference_shot(cfg, inp, rng_ref, elec_noise)
        assert records == ref_records
        assert np.array_equal(
            [r.outcome for r in records], [r.outcome for r in ref_records]
        )
        assert np.array_equal(state.mean, ref_state.mean)
        assert np.array_equal(state.cov, ref_state.cov)
    # both streams were used alike
    assert rng_circuit.standard_normal() == rng_ref.standard_normal()


@pytest.mark.parametrize(
    "cfg, per_shot",
    [(gaussian_machine(0.7, eta_ff=0.95, visibility=0.99), 5),
     (phase_known_machine(eta_ff=0.9), 4)],
    ids=["heterodyne", "homodyne"],
)
def test_circuit_shot_builds_only_the_outcome_dependent_states(monkeypatch, cfg, per_shot):
    circuit = build_circuit(cfg, coherent(2.0, -1.0))
    checked = GaussianState.__post_init__
    count = 0

    def counting(self):
        nonlocal count
        count += 1
        checked(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counting)
    rng = np.random.default_rng(5)
    for _ in range(10):
        circuit.run(rng, elec_noise=0.1)
    assert 0 < count <= 10 * per_shot
