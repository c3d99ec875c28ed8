import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvclone import gaussian
from cvclone.benchmarks import KnownPhase, average_fidelity
from cvclone.cloner import (
    MACHINE_COLUMNS,
    ClonerConfig,
    CloningCircuit,
    _shot_model,
    batched_clone_stats,
    build_circuit,
    check_fraction,
    clone_output_state,
    gaussian_machine,
    heisenberg_clone_stats,
    matched_gain,
    phase_known_clone_stats,
    phase_known_machine,
)
from cvclone.experiments import _random_machines
from cvclone.gaussian import (
    GaussianState,
    MeasurementRecord,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_phase_known_machine_rejects_a_non_finite_lambda_x(value):
    # the derived gain's message named g_x, not the argument, before
    with pytest.raises(ValueError, match=f"^lambda_x must be finite, got {value}$"):
        phase_known_machine(lambda_x=value)


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


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.05, 1.0), st.one_of(st.floats(0.1, 0.95), st.just(1.0)),
    st.floats(-2.5, 2.5), st.floats(-2.5, 2.5),
    st.floats(-1.2, 1.2), st.floats(1.0, 3.0),
    st.floats(-1.2, 1.2), st.floats(1.0, 3.0),
    st.floats(0.85, 1.0), st.floats(0.9, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_shot_model_reproduces_clone_stats(t1, t2, gx, gp, l1, c1, l3, c3, eta, vis, elec):
    vx1, vx3 = math.exp(l1), math.exp(l3)
    cfg = ClonerConfig(
        t1=t1, t2=t2, g_x=gx, g_p=gp,
        anc1=(vx1, c1 / vx1), anc3=(vx3, c3 / vx3),
        eta_ff=eta, visibility=vis,
    )
    stats = heisenberg_clone_stats(cfg, elec)
    (c, sd, a, b, e, cond_var), measured = _shot_model(cfg, elec)
    assert measured == (2 if t2 < 1.0 else 1)
    for q, lam, sigma in ((0, stats.lambda_x, stats.sigma_x), (1, stats.lambda_p, stats.sigma_p)):
        # averaged over outcomes: lambda = a + b c and
        # sigma = cond_var + b^2 sd^2 + e^2 elec_noise; an unmeasured
        # quadrature keeps a and cond_var alone
        lam_terms, sigma_terms = [a[q]], [cond_var[q]]
        if q < measured:
            lam_terms.append(b[q] * c[q])
            sigma_terms += [b[q] ** 2 * sd[q] ** 2, e[q] ** 2 * elec]
        # relative to the size of the terms, which bounds their rounding
        for terms, want in ((lam_terms, lam), (sigma_terms, sigma)):
            assert abs(sum(terms) - want) <= 1e-12 * sum(map(abs, terms))


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


class _GivenNormals:
    """A stand-in generator whose standard normals are the given values, in
    order; ``used`` counts the draws taken."""

    def __init__(self, values):
        self.values, self.used = list(values), 0

    def standard_normal(self):
        self.used += 1
        return self.values[self.used - 1]


def _exact_circuit_ensemble(cfg, input_state, elec_noise):
    """Mean and covariance of ``CloningCircuit``'s two clones averaged over
    the outcomes, exactly: a shot's clone means are affine in the standard
    normals it draws and its covariance depends on none of them, so the
    ensemble is the all-zero shot's state plus the scatter J J^T of the
    means, J's columns the shifts that unit draws make."""
    circuit = build_circuit(cfg, input_state)
    zero = _GivenNormals([0.0] * 4)
    _, base = circuit.run(zero, elec_noise)
    shifts = [
        circuit.run(_GivenNormals(np.eye(4)[j].tolist()), elec_noise)[1].mean - base.mean
        for j in range(zero.used)
    ]
    jac = np.array(shifts).T
    return base.mean, base.cov + jac @ jac.T


def _close(got, want, rel=1e-12):
    """Entrywise within ``rel`` of the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() <= rel * np.abs(want).max()


_CORRELATED = GaussianState(1, np.array([1.5, -0.5]), np.array([[1.2, 0.1], [0.1, 1.0]]))


def _check_circuit_ensemble(cfg, elec_noise):
    """The circuit's exact ensemble against ``heisenberg_clone_stats`` on a
    coherent input, and against the full ``clone_output_state`` on that
    input and on an x-p correlated one, to 1e-12 relative."""
    stats = heisenberg_clone_stats(cfg, elec_noise)
    mean, cov = _exact_circuit_ensemble(cfg, coherent(3.0, -2.0), elec_noise)
    for mode in (0, 1):
        gains = mean[2 * mode : 2 * mode + 2] / (3.0, -2.0)
        assert _close(gains[0], stats.lambda_x) and _close(gains[1], stats.lambda_p)
        assert _close(cov[2 * mode, 2 * mode], stats.sigma_x)
        assert _close(cov[2 * mode + 1, 2 * mode + 1], stats.sigma_p)
    for inp in (coherent(3.0, -2.0), _CORRELATED):
        mean, cov = _exact_circuit_ensemble(cfg, inp, elec_noise)
        state = clone_output_state(cfg, inp, elec_noise)
        assert _close(mean, state.mean) and _close(cov, state.cov)


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
    for elec_noise in (0.0, 0.3):
        _check_circuit_ensemble(cfg, elec_noise)


@settings(max_examples=100, deadline=None)
@given(
    machine_seed=st.integers(min_value=0, max_value=2**32 - 1),
    homodyne=st.booleans(),
    elec_noise=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_exact_circuit_ensemble_matches_the_core_over_random_machines(
    machine_seed, homodyne, elec_noise
):
    # lossy machines with squeezed ancillas, at their own t2 < 1 and at t2 = 1
    _check_circuit_ensemble(_random_config(machine_seed, homodyne), elec_noise)


def _mirrored(machines):
    """Each machine with x and p exchanged: t2 -> 1 - t2, the gains swapped
    and each ancilla's variance pair swapped."""
    t1, t2, g_x, g_p, vx1, vp1, vx3, vp3, eta, vis = machines.T
    return np.column_stack([t1, 1.0 - t2, g_p, g_x, vp1, vx1, vp3, vx3, eta, vis])


@settings(max_examples=50, deadline=None)
@given(
    machine_seed=st.integers(min_value=0, max_value=2**32 - 1),
    elec_noise=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_mirrored_machine_swaps_the_x_and_p_statistics(machine_seed, elec_noise):
    # 0 < t2 < 1 in every machine: at the ends the mirror fails by the gain
    # convention pinned in the next test
    machines = _random_machines(np.random.default_rng(machine_seed), 40)
    stats = batched_clone_stats(machines, elec_noise)
    mirror = batched_clone_stats(_mirrored(machines), elec_noise)
    for got, want in (
        (mirror.lambda_x, stats.lambda_p), (mirror.lambda_p, stats.lambda_x),
        (mirror.sigma_x, stats.sigma_p), (mirror.sigma_p, stats.sigma_x),
    ):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_gain_convention_at_the_ends_of_t2():
    elec_noise = 0.3
    cfg = ClonerConfig(t1=0.6, t2=1.0, g_x=0.9, anc1=(2.0, 0.6), eta_ff=0.9)
    # at t2 = 1 no phase detector exists, so g_p is dropped
    dropped = replace(cfg, g_p=1.7)
    assert heisenberg_clone_stats(dropped, elec_noise) == heisenberg_clone_stats(cfg, elec_noise)
    # at t2 = 0 the x arm is vacuum, and g_x still feeds it forward
    vacuum_arm = replace(cfg, t2=0.0)
    stats = heisenberg_clone_stats(vacuum_arm, elec_noise)
    no_gain = heisenberg_clone_stats(replace(vacuum_arm, g_x=0.0), elec_noise)
    assert stats.lambda_x == no_gain.lambda_x == pytest.approx(math.sqrt(0.6 / 2.0), rel=1e-15)
    assert stats.sigma_x - no_gain.sigma_x == pytest.approx(0.9**2 * (1.0 + elec_noise) / 2.0)
    # the circuit follows both conventions
    for machine in (dropped, vacuum_arm):
        _check_circuit_ensemble(machine, elec_noise)


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
    # an x-p correlated input that is not coherent
    correlated = GaussianState(1, np.array([1.5, -0.5]), np.array([[1.2, 0.1], [0.1, 1.0]]))
    cases = [
        (gaussian_machine(0.5), coherent(2.0, 0.0), 0.0),
        (gaussian_machine(0.5), correlated, 0.0),
        (gaussian_machine(0.7, eta_ff=0.9, visibility=0.95), correlated, 0.2),
    ]
    rng = np.random.default_rng(123)
    n = 4000
    for cfg, inp, elec_noise in cases:
        analytic = clone_output_state(cfg, inp, elec_noise)
        circuit = build_circuit(cfg, inp)
        means = np.empty((n, 4))
        cond_cov = None
        for i in range(n):
            _, state = circuit.run(rng, elec_noise)
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


def _reference_shot(
    cfg, input_state, rng, elec_noise,
    beam_splitter=beam_splitter, tensor=tensor, measure_quadrature=measure_quadrature,
):
    """One shot built from the primitives stage by stage, the fixed part
    included, in the circuit's order of stream use, with the output-splitter
    ancilla tensored in after the displacement as in the machine's layout
    (the circuit holds it from construction on)."""

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


# beam_splitter, tensor and measure_quadrature written out with no cache


def _plain_beam_splitter(state, mode_a, mode_b, transmittance):
    s = np.eye(2 * state.n_modes)
    t, r = math.sqrt(transmittance), math.sqrt(1.0 - transmittance)
    for off in (0, 1):
        ia, ib = 2 * mode_a + off, 2 * mode_b + off
        s[ia, ia], s[ia, ib] = t, r
        s[ib, ia], s[ib, ib] = r, -t
    cov = s @ state.cov @ s.T
    return GaussianState(state.n_modes, s @ state.mean, (cov + cov.T) / 2.0)


def _plain_tensor(a, b):
    n = a.n_modes + b.n_modes
    cov = np.zeros((2 * n, 2 * n))
    cov[: 2 * a.n_modes, : 2 * a.n_modes] = a.cov
    cov[2 * a.n_modes :, 2 * a.n_modes :] = b.cov
    return GaussianState(n, np.concatenate([a.mean, b.mean]), cov)


def _plain_measure(state, quad, rng):
    qi = quad.index
    rest = np.array([i for i in range(2 * state.n_modes) if i // 2 != quad.mode])
    var = float(state.cov[qi, qi])
    cross = state.cov[rest, qi]
    assert var >= gaussian.DEGENERATE_VAR_TOL  # no circuit here has a degenerate arm
    outcome = float(state.mean[qi]) + math.sqrt(var) * float(rng.standard_normal())
    mean = state.mean[rest] + cross * ((outcome - state.mean[qi]) / var)
    cov = state.cov[np.ix_(rest, rest)] - cross[:, None] * cross / var
    return (
        MeasurementRecord(quad, outcome),
        GaussianState(state.n_modes - 1, mean, (cov + cov.T) / 2.0),
    )


_CACHES = (gaussian._bs_cov, gaussian._conditioned)


def _random_config(machine_seed, homodyne):
    row = _random_machines(np.random.default_rng(machine_seed), 1)[0]
    if homodyne:
        row[1] = 1.0
    t1, t2, g_x, g_p, vx1, vp1, vx3, vp3, eta, vis = row.tolist()
    return ClonerConfig(t1=t1, t2=t2, g_x=g_x, g_p=g_p, anc1=(vx1, vp1), anc3=(vx3, vp3),
                        eta_ff=eta, visibility=vis)


def _shot_bits(records, state):
    return [r.outcome for r in records], state.mean.tobytes(), state.cov.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    machine_seed=st.integers(min_value=0, max_value=2**32 - 1),
    homodyne=st.booleans(),
    elec_noise=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_memoised_shots_equal_cold_and_unmemoised_shots(machine_seed, homodyne, elec_noise, seed):
    # lossy machines with squeezed ancillas, at their own t2 < 1 and at t2 = 1
    cfg = _random_config(machine_seed, homodyne)
    inp = GaussianState(1, np.array([1.5, -0.5]), np.array([[1.2, 0.1], [0.1, 1.0]]))
    shots = 4
    rng = np.random.default_rng(seed)
    cold = []
    for _ in range(shots):
        for cache in _CACHES:
            cache.cache_clear()
        cold.append(_shot_bits(*build_circuit(cfg, inp).run(rng, elec_noise)))
    circuit = build_circuit(cfg, inp)
    rng = np.random.default_rng(seed)
    warm = [_shot_bits(*circuit.run(rng, elec_noise)) for _ in range(shots)]
    rng = np.random.default_rng(seed)
    plain = [
        _shot_bits(*_reference_shot(cfg, inp, rng, elec_noise, _plain_beam_splitter,
                                    _plain_tensor, _plain_measure))
        for _ in range(shots)
    ]
    assert cold == warm == plain


def test_caches_stay_bounded_over_many_distinct_circuits():
    rng = np.random.default_rng(8)
    for machine_seed in range(1000):
        cfg = _random_config(machine_seed, homodyne=machine_seed % 2 == 1)
        build_circuit(cfg, coherent(2.0, -1.0)).run(rng, elec_noise=0.1)
    for cache in _CACHES:
        info = cache.cache_info()
        assert info.maxsize == 256
        assert info.currsize <= info.maxsize


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("elec_noise", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cfg", [gaussian_machine(0.7), phase_known_machine()],
                         ids=["heterodyne", "homodyne"])
def test_circuit_rejects_bad_electronic_noise_before_any_draw(cfg, elec_noise):
    circuit = build_circuit(cfg, coherent(2.0, -1.0))
    rng, untouched = np.random.default_rng(4), np.random.default_rng(4)
    with pytest.raises(ValueError) as info:
        circuit.run(rng, elec_noise)
    assert str(info.value) == f"elec_noise must be finite and non-negative, got {elec_noise}"
    assert rng.standard_normal() == untouched.standard_normal()


@pytest.mark.parametrize(
    "cfg, per_shot",
    [(gaussian_machine(0.7, eta_ff=0.95, visibility=0.99), 4),
     (phase_known_machine(eta_ff=0.9), 3)],
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


def _written_out_stats(row, elec_noise):
    """Gains and variances of one machine by the closed form, in Python
    floats: each quadrature's (T, M) moments, then
    lambda = (sqrt(t1) + g m0) / sqrt(2) and
    sigma = (var_t + 2 g cov + g^2 (var_m + elec_noise) + var(a3)) / 2."""
    t1, t2, g_x, g_p, vx1, vp1, vx3, vp3, eta, vis = row
    tau = eta * (vis * vis)
    s1 = math.sqrt(t1)
    lam, sigma = [], []
    for arm, g, v1, v3 in ((tau * t2, g_x, vx1, vx3),
                           (tau * (1.0 - t2), g_p if t2 < 1.0 else 0.0, vp1, vp3)):
        e = v1 - 1.0
        m0 = math.sqrt(arm) * math.sqrt(1.0 - t1)
        var_t = 1.0 + (1.0 - t1) * e
        var_m = 1.0 + arm * t1 * e
        cov = -m0 * s1 * e
        lam.append((s1 + g * m0) / math.sqrt(2.0))
        sigma.append((var_t + 2.0 * g * cov + g * g * (var_m + elec_noise) + v3) / 2.0)
    return lam + sigma


_machine_rows = st.lists(
    st.tuples(
        st.floats(0.01, 1.0), st.one_of(st.floats(0.0, 1.0), st.just(1.0)),
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
        st.floats(-1.5, 1.5), st.floats(1.0, 3.0),
        st.floats(-1.5, 1.5), st.floats(1.0, 3.0),
        st.floats(0.05, 1.0), st.floats(0.05, 1.0),
    ).map(lambda r: (*r[:4], math.exp(r[4]), r[5] / math.exp(r[4]),
                     math.exp(r[6]), r[7] / math.exp(r[6]), *r[8:])),
    min_size=1,
    max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(_machine_rows, st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
# a visibility whose square Python's pow rounds differently from v * v
@example([(0.8, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.9386328699343535)], 0.37)
def test_batched_stats_equal_the_written_out_formula_bit_for_bit(rows, elec_noise):
    batched = batched_clone_stats(np.array(rows), elec_noise)
    for i, row in enumerate(rows):
        expected = _written_out_stats(row, elec_noise)
        got = [batched.lambda_x[i], batched.lambda_p[i], batched.sigma_x[i], batched.sigma_p[i]]
        assert got == expected
        cfg = ClonerConfig(*row[:4], row[4:6], row[6:8], *row[8:])
        assert list(vars(heisenberg_clone_stats(cfg, elec_noise)).values()) == expected
        # the circuit's loss channel uses the same square
        assert cfg.feedforward_transmission == row[8] * (row[9] * row[9])


def test_referred_noise_product_over_many_machines_in_one_call():
    # verify's ranges, 10^5 machines instead of 1000
    rng = np.random.default_rng(2024)
    n = 100_000
    lo = np.array([-1.2, -1.2, 0.05, 0.1, 0.0, 0.0, 1.0, 1.0, 0.85, 0.9])
    hi = np.array([1.2, 1.2, 1.0, 0.95, 2.5, 2.5, 3.0, 3.0, 1.0, 1.0])
    u = lo + (hi - lo) * rng.random((n, 10))
    vx1, vx3 = np.exp(u[:, 0]), np.exp(u[:, 1])
    machines = np.column_stack([u[:, 2:6], vx1, u[:, 6] / vx1, vx3, u[:, 7] / vx3, u[:, 8:]])
    dn_x, dn_p = batched_clone_stats(machines).referred_noise()
    assert dn_x.shape == (n,)
    assert (dn_x * dn_p).min() >= 1.0 - 1e-9


_GOOD_ROW = ClonerConfig(t1=0.6, g_x=0.9, g_p=1.1, anc1=(2.0, 0.6), eta_ff=0.9).as_row()


@pytest.mark.parametrize(
    "column, value",
    [
        ("t1", 1.3), ("t2", -0.1), ("eta_ff", 0.0), ("visibility", math.nan),
        ("g_x", math.inf), ("g_p", math.nan), ("vx1", math.nan), ("vp3", 0.0),
        ("vx1", 0.5), ("vp3", 0.2),
    ],
)
def test_batched_stats_reject_a_bad_machine_with_the_config_message(column, value):
    row = list(_GOOD_ROW)
    row[MACHINE_COLUMNS.index(column)] = value
    with pytest.raises(ValueError) as config_error:
        ClonerConfig(*row[:4], row[4:6], row[6:8], *row[8:])
    machines = np.array([_GOOD_ROW] * 3 + [row] + [_GOOD_ROW])
    with pytest.raises(ValueError) as batch_error:
        batched_clone_stats(machines)
    assert str(batch_error.value) == str(config_error.value)


def test_batched_stats_reject_zero_transmittance_and_bad_shapes():
    row = list(_GOOD_ROW)
    row[0] = 0.0
    with pytest.raises(ValueError, match="t1 = 0 requires infinite feedforward gain"):
        batched_clone_stats(np.array([_GOOD_ROW, row]))
    with pytest.raises(ValueError, match="shape"):
        batched_clone_stats(np.array(_GOOD_ROW))
    with pytest.raises(ValueError, match="elec_noise"):
        batched_clone_stats(np.array([_GOOD_ROW]), elec_noise=-1.0)


def test_check_fraction_on_floats_and_arrays():
    assert check_fraction("eta", 0.5) == 0.5
    assert check_fraction("t1", 0.0, allow_zero=True) == 0.0
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\], got 0.0$"):
        check_fraction("eta", 0.0)
    values = np.array([0.5, 1.0, 1.5, -2.0])
    with pytest.raises(ValueError, match=r"^v must lie in \[0, 1\], got 1.5$"):
        check_fraction("v", values, allow_zero=True)
    inside = values[:2]
    assert check_fraction("v", inside) is inside
    with pytest.raises(ValueError, match="got nan"):
        check_fraction("v", np.array([0.5, math.nan]))
