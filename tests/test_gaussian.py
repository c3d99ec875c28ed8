import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvclone import gaussian
from cvclone.gaussian import (
    PHYSICALITY_TOL,
    SYMMETRY_TOL,
    GaussianState,
    _bs_symplectic,
    Quadrature,
    beam_splitter,
    coherent,
    displace,
    fidelity_coherent_vs_gaussian,
    measure_quadrature,
    partial_trace,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    vacuum,
)


def test_vacuum_is_coherent_origin():
    v = vacuum()
    assert np.array_equal(v.mean, [0.0, 0.0])
    assert np.array_equal(v.cov, np.eye(2))
    assert np.array_equal(coherent(0.0, 0.0).cov, v.cov)


def test_coherent_state_definition():
    c = coherent(2.0, 0.0)
    assert np.array_equal(c.mean, [2.0, 0.0])
    assert np.array_equal(c.cov, np.eye(2))
    assert fidelity_coherent_vs_gaussian((2.0, 0.0), c) == pytest.approx(1.0, abs=1e-15)


def test_squeezed_vacuum():
    assert np.array_equal(squeezed_vacuum(1.0, 1.0).cov, np.eye(2))
    anc = squeezed_vacuum(math.sqrt(8 / 5), math.sqrt(5 / 8))
    assert anc.cov[0, 0] == pytest.approx(math.sqrt(8 / 5))
    assert anc.cov[1, 1] == pytest.approx(math.sqrt(5 / 8))
    with pytest.raises(ValueError):
        squeezed_vacuum(0.5, 1.0)
    with pytest.raises(ValueError):
        squeezed_vacuum(-1.0, 2.0)


def test_unphysical_covariance_rejected():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), np.diag([0.5, 0.5]))
    asym = np.array([[1.0, 0.3], [0.1, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), asym)


def test_beam_splitter_full_transmission():
    state = tensor(coherent(2.0, 1.0), vacuum())
    out = beam_splitter(state, 0, 1, 1.0)
    assert np.allclose(out.mode_mean(0), [2.0, 1.0])
    assert np.allclose(out.cov, np.eye(4))


def test_beam_splitter_balanced_split():
    state = tensor(coherent(2.0, 0.0), vacuum())
    out = beam_splitter(state, 0, 1, 0.5)
    s = math.sqrt(2.0)
    assert np.allclose(out.mean, [s, 0.0, s, 0.0])
    assert np.allclose(out.cov, np.eye(4), atol=1e-14)


def test_beam_splitter_argument_errors():
    state = tensor(vacuum(), vacuum())
    with pytest.raises(ValueError):
        beam_splitter(state, 0, 0, 0.5)
    with pytest.raises(ValueError):
        beam_splitter(state, 0, 1, 1.2)
    with pytest.raises(IndexError):
        beam_splitter(state, 0, 3, 0.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
def test_beam_splitter_is_symplectic(t, vx, vp):
    # apply to a correlated 2-mode state and check cov -> S cov S^T with
    # S Omega S^T = Omega
    vp = max(vp, 1.0 / vx)
    base = tensor(squeezed_vacuum(vx, vp), vacuum())
    mixed = beam_splitter(base, 0, 1, 0.3)
    out = beam_splitter(mixed, 0, 1, t)

    st_ = math.sqrt(t)
    rt = math.sqrt(1 - t)
    s = np.eye(4)
    for off in (0, 1):
        s[0 + off, 0 + off], s[0 + off, 2 + off] = st_, rt
        s[2 + off, 0 + off], s[2 + off, 2 + off] = rt, -st_
    omega = symplectic_form(2)
    assert np.allclose(s @ omega @ s.T, omega, atol=1e-10)
    assert np.allclose(out.cov, s @ mixed.cov @ s.T, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_coherent_states_stay_coherent(t, x, p):
    out = beam_splitter(tensor(coherent(x, p), coherent(1.0, -2.0)), 0, 1, t)
    assert np.allclose(out.cov, np.eye(4), atol=1e-12)


def test_displace():
    assert np.allclose(displace(vacuum(), 0, 0.0, 0.0).mean, [0.0, 0.0])
    moved = displace(vacuum(), 0, 2.0, 0.0)
    assert np.array_equal(moved.mean, coherent(2.0, 0.0).mean)
    state = squeezed_vacuum(2.0, 0.5)
    assert np.array_equal(displace(state, 0, 1.0, -1.0).cov, state.cov)


def test_tensor_and_partial_trace():
    two = tensor(vacuum(), vacuum())
    assert two.n_modes == 2
    assert np.array_equal(two.cov, np.eye(4))
    kept = partial_trace(tensor(coherent(2.0, 0.0), vacuum()), {0})
    assert np.array_equal(kept.mean, [2.0, 0.0])
    with pytest.raises(IndexError):
        partial_trace(two, {0, 5})


def test_partial_trace_after_splitter_is_loss_channel():
    t = 0.36
    out = beam_splitter(tensor(coherent(2.0, 0.0), vacuum()), 0, 1, t)
    kept = partial_trace(out, {0})
    assert np.allclose(kept.mean, [2.0 * math.sqrt(t), 0.0])
    assert np.allclose(kept.cov, np.eye(2), atol=1e-14)


def test_measurement_marginal_statistics():
    rng = np.random.default_rng(2024)
    samples = np.array(
        [measure_quadrature(vacuum(), Quadrature.x(0), rng)[0].outcome for _ in range(100_000)]
    )
    assert abs(samples.var() - 1.0) < 0.02
    assert abs(samples.mean()) < 0.02

    rng = np.random.default_rng(5)
    outcomes = [
        measure_quadrature(coherent(2.0, 0.0), Quadrature.x(0), rng)[0].outcome
        for _ in range(20_000)
    ]
    assert np.mean(outcomes) == pytest.approx(2.0, abs=4 / math.sqrt(20_000))


def test_measurement_removes_mode_and_keeps_product_states_unconditioned():
    state = beam_splitter(tensor(coherent(2.0, 0.0), vacuum()), 0, 1, 0.5)
    rng = np.random.default_rng(1)
    record, rest = measure_quadrature(state, Quadrature.x(1), rng)
    assert rest.n_modes == 1
    # coherent inputs split into product states: no cross covariance, so the
    # conditional mean of the kept arm never moves
    assert np.allclose(rest.mean, state.mean[:2])
    assert np.allclose(rest.cov, np.eye(2), atol=1e-14)
    assert record.quadrature == Quadrature.x(1)


def test_measurement_conditioning_shrinks_variance():
    # correlated two-mode state from splitting squeezed light
    state = beam_splitter(tensor(squeezed_vacuum(0.25, 4.0), vacuum()), 0, 1, 0.5)
    rng = np.random.default_rng(3)
    _, rest = measure_quadrature(state, Quadrature.x(1), rng)
    for i in range(2):
        assert rest.cov[i, i] <= state.cov[i, i] + 1e-12


def test_measurement_determinism_and_degenerate_marginal():
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    state = beam_splitter(tensor(squeezed_vacuum(3.0, 1 / 3), coherent(1.0, 1.0)), 0, 1, 0.7)
    seq_a = [measure_quadrature(state, Quadrature.p(0), a)[0].outcome for _ in range(10)]
    seq_b = [measure_quadrature(state, Quadrature.p(0), b)[0].outcome for _ in range(10)]
    assert seq_a == seq_b

    tiny = squeezed_vacuum(1e-13, 1e13)
    record, rest = measure_quadrature(tiny, Quadrature.x(0), np.random.default_rng(0))
    assert record.outcome == 0.0
    assert rest.n_modes == 0


def test_fidelity_values():
    assert fidelity_coherent_vs_gaussian((2, 0), coherent(2, 0)) == pytest.approx(1.0)
    noisy = GaussianState(1, np.array([2.0, 0.0]), np.diag([2.0, 2.0]))
    assert fidelity_coherent_vs_gaussian((2, 0), noisy) == pytest.approx(2 / 3)
    pk = GaussianState(1, np.zeros(2), np.diag([1.5, 1.0]))
    assert fidelity_coherent_vs_gaussian((0, 0), pk) == pytest.approx(2 / math.sqrt(5))
    # two coherent states overlap as exp(-|a-b|^2); quadrature means are 2a
    assert fidelity_coherent_vs_gaussian((2, 0), coherent(0, 0)) == pytest.approx(math.exp(-1.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_fidelity_rejects_a_non_finite_coherent_amplitude(alpha):
    with pytest.raises(ValueError, match="coherent amplitude must be finite"):
        fidelity_coherent_vs_gaussian(alpha, coherent(0, 0))
    with pytest.raises(ValueError, match="coherent amplitude must be finite"):
        fidelity_coherent_vs_gaussian(np.array(alpha), coherent(0, 0))


def test_fidelity_rejects_correlated_covariance():
    corr = GaussianState(1, np.zeros(2), np.array([[2.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(ValueError):
        fidelity_coherent_vs_gaussian((0, 0), corr)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-4, 4), st.floats(-4, 4),
    st.floats(-4, 4), st.floats(-4, 4),
    st.floats(0.3, 5.0), st.floats(0.3, 5.0),
)
def test_fidelity_range_and_identity(ax, ap, cx, cp, sx, sp):
    sp = max(sp, 1.0 / sx)
    clone = GaussianState(1, np.array([cx, cp]), np.diag([sx, sp]))
    f = fidelity_coherent_vs_gaussian((ax, ap), clone)
    assert 0.0 < f <= 1.0
    if f > 1.0 - 1e-12:
        assert abs(sx - 1) < 1e-5 and abs(sp - 1) < 1e-5
        assert abs(cx - ax) < 1e-5 and abs(cp - ap) < 1e-5


def _epr_cov(n_modes, c):
    """Vacuum on every mode but the first two, which share x-x correlation c
    and p-p correlation -c on variance 2; cov + i*Omega >= 0 iff c^2 <= 3."""
    cov = np.eye(2 * n_modes)
    cov[:4, :4] = [[2, 0, c, 0], [0, 2, 0, -c], [c, 0, 2, 0], [0, -c, 0, 2]]
    return cov


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_rejection_fires_with_its_message(n):
    d = 2 * n
    mean, cov = np.zeros(d), np.eye(d)
    GaussianState(n, mean, cov)
    cases = [
        (-1, mean, cov, "n_modes must be non-negative"),
        (n, np.zeros(d + 1), cov, rf"mean must have shape \({d},\), got \({d + 1},\)"),
        (n, np.zeros((d, 1)), cov, rf"mean must have shape \({d},\)"),
        (n, mean, np.eye(d + 2), rf"cov must have shape \({d}, {d}\), got \({d + 2}, {d + 2}\)"),
        (n, mean, np.ones(d), rf"cov must have shape \({d}, {d}\)"),
    ]
    for bad in (math.nan, math.inf, -math.inf):
        bad_mean = mean.copy()
        bad_mean[-1] = bad
        bad_cov = cov.copy()
        bad_cov[0, -1] = bad_cov[-1, 0] = bad
        cases += [
            (n, bad_mean, cov, "state moments must be finite"),
            (n, mean, bad_cov, "state moments must be finite"),
        ]
    # asymmetry just above the relative tolerance, on a scale of 100
    asym = 100.0 * np.eye(d)
    asym[0, -1] = 3 * SYMMETRY_TOL * 100.0
    cases.append((n, mean, asym, "covariance matrix is not symmetric"))
    # below the tolerance the same matrix passes
    ok = 100.0 * np.eye(d)
    ok[0, -1] = 0.5 * SYMMETRY_TOL * 100.0
    GaussianState(n, mean, ok)
    # positive definite but below the uncertainty bound on the first mode
    squeezed = np.eye(d)
    squeezed[0, 0] = squeezed[1, 1] = 0.9
    assert np.linalg.eigvalsh(squeezed).min() > 0
    cases.append((n, mean, squeezed, "violates the uncertainty relation"))
    for n_modes, m, c, message in cases:
        with pytest.raises(ValueError, match=message):
            GaussianState(n_modes, m, c)


@pytest.mark.parametrize("n", [2, 3])
def test_positive_definite_two_mode_covariance_below_the_bound_is_rejected(n):
    # every single-mode marginal has variance 2 and passes on its own
    GaussianState(n, np.zeros(2 * n), _epr_cov(n, math.sqrt(3.0)))
    cov = _epr_cov(n, 1.9)
    assert np.linalg.eigvalsh(cov).min() > 0
    for k in range(n):
        GaussianState(1, np.zeros(2), cov[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])
    with pytest.raises(ValueError, match="violates the uncertainty relation"):
        GaussianState(n, np.zeros(2 * n), cov)


def test_physicality_floor_is_unchanged():
    # for cov = diag(1 - delta, 1) the smallest eigenvalue of cov + i*Omega
    # is about -delta/2, so the floor sits at delta = 2 * PHYSICALITY_TOL
    GaussianState(1, np.zeros(2), np.diag([1.0 - 1.5 * PHYSICALITY_TOL, 1.0]))
    with pytest.raises(ValueError, match="violates the uncertainty relation"):
        GaussianState(1, np.zeros(2), np.diag([1.0 - 3.0 * PHYSICALITY_TOL, 1.0]))


def _reference_verdict(n, cov):
    """The covariance checks written out without a cache: None for a pass,
    else the message GaussianState must raise."""
    if not np.isfinite(cov).all():
        return "state moments must be finite"
    scale = max(1.0, float(np.abs(cov).max()))
    if float(np.abs(cov - cov.T).max()) > SYMMETRY_TOL * scale:
        return "covariance matrix is not symmetric"
    eigs = np.linalg.eigvalsh(cov + 1j * symplectic_form(n))
    if float(eigs.min()) < -PHYSICALITY_TOL:
        return (
            "covariance matrix violates the uncertainty relation "
            f"(min eigenvalue of cov + i*Omega is {eigs.min():.3e})"
        )
    return None


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3),
    log_squeeze=st.floats(-2.0, 2.0),
    mix=st.floats(0.0, 1.0),
    shrink=st.floats(-4.0, 4.0),
    skew=st.floats(-3.0, 3.0),
    big=st.booleans(),
)
def test_cached_checks_accept_exactly_what_a_full_check_accepts(
    n, log_squeeze, mix, shrink, skew, big
):
    # a pure squeezed state (min eigenvalue of cov + i*Omega at 0), mixed into
    # the other modes, shrunk by `shrink` physicality tolerances and skewed
    # by `skew` symmetry tolerances: both verdicts flip inside the ranges
    cov = np.eye(2 * n)
    cov[0, 0], cov[1, 1] = math.exp(log_squeeze), math.exp(-log_squeeze)
    if n > 1:
        cov = beam_splitter(GaussianState(n, np.zeros(2 * n), cov), 0, n - 1, mix).cov.copy()
    cov *= (100.0 if big else 1.0) * (1.0 - shrink * PHYSICALITY_TOL)
    cov[0, -1] += skew * SYMMETRY_TOL * max(1.0, float(np.abs(cov).max()))
    expected = _reference_verdict(n, cov)
    for _ in range(2):  # the second build may be answered from the cache
        if expected is None:
            GaussianState(n, np.zeros(2 * n), cov)
        else:
            with pytest.raises(ValueError) as info:
                GaussianState(n, np.zeros(2 * n), cov)
            assert str(info.value) == expected


def test_rejected_covariance_is_checked_again_every_time():
    unphysical = np.diag([1.0 - 3.0 * PHYSICALITY_TOL, 1.0])
    asymmetric = np.array([[1.0, 0.0], [3.0 * SYMMETRY_TOL, 1.0]])
    non_finite = np.array([[1.0, 0.0], [0.0, math.nan]])
    for _ in range(3):
        with pytest.raises(ValueError, match="violates the uncertainty relation"):
            GaussianState(1, np.zeros(2), unphysical)
        with pytest.raises(ValueError, match="covariance matrix is not symmetric"):
            GaussianState(1, np.zeros(2), asymmetric)
        with pytest.raises(ValueError, match="state moments must be finite"):
            GaussianState(1, np.zeros(2), non_finite)


def test_stricter_tolerance_rejects_a_covariance_that_passed(monkeypatch):
    near_floor = np.diag([1.0 - 1.5 * PHYSICALITY_TOL, 1.0])
    skewed = np.array([[1.0, 0.0], [0.5 * SYMMETRY_TOL, 1.0]])
    for _ in range(2):  # the second pass comes from the cache
        GaussianState(1, np.zeros(2), near_floor)
        GaussianState(1, np.zeros(2), skewed)
    monkeypatch.setattr(gaussian, "PHYSICALITY_TOL", 0.5 * PHYSICALITY_TOL)
    with pytest.raises(ValueError, match="violates the uncertainty relation"):
        GaussianState(1, np.zeros(2), near_floor)
    GaussianState(1, np.zeros(2), skewed)
    monkeypatch.setattr(gaussian, "SYMMETRY_TOL", 0.25 * SYMMETRY_TOL)
    with pytest.raises(ValueError, match="covariance matrix is not symmetric"):
        GaussianState(1, np.zeros(2), skewed)
    # the old tolerances find their cached passes again
    monkeypatch.undo()
    GaussianState(1, np.zeros(2), near_floor)
    GaussianState(1, np.zeros(2), skewed)


def test_cached_beam_splitter_matrix_is_read_only():
    s = _bs_symplectic(2, 0, 1, 0.3)
    assert s is _bs_symplectic(2, 0, 1, 0.3)
    assert not s.flags.writeable
    with pytest.raises(ValueError):
        s[0, 0] = 0.0


def test_state_copies_and_freezes_its_moments():
    mean, cov = np.array([1.0, 2.0]), np.eye(2)
    state = GaussianState(1, mean, cov)
    mean[0] = cov[0, 0] = 5.0
    assert np.array_equal(state.mean, [1.0, 2.0])
    assert np.array_equal(state.cov, np.eye(2))
    assert not state.mean.flags.writeable and not state.cov.flags.writeable
    fortran = np.asfortranarray([[2.0, 0.3], [0.3, 1.0]])
    assert GaussianState(1, mean, fortran).cov.flags.c_contiguous
    assert GaussianState(1, [0, 0], [[1, 0], [0, 1]]).mean.dtype == float


def test_states_built_from_cached_covariances_are_read_only_copies():
    anc, inp = squeezed_vacuum(2.0, 0.5), coherent(1.0, -1.0)
    joint = tensor(anc, inp)
    split = beam_splitter(joint, 0, 1, 0.3)
    _, rest = measure_quadrature(split, Quadrature.x(1), np.random.default_rng(0))
    var, cross, conditioned = gaussian._conditioned(
        2, 2, split.cov.tobytes(), gaussian.DEGENERATE_VAR_TOL
    )
    entries = [
        (split, gaussian._bs_cov(2, 0, 1, 0.3, joint.cov.tobytes())),
        (rest, conditioned),
    ]
    for state, entry in entries:
        assert np.array_equal(state.cov, entry)
        assert not entry.flags.writeable and not state.cov.flags.writeable
        assert not np.shares_memory(state.cov, entry)
    assert not cross.flags.writeable
    assert var == split.cov[2, 2]
    # the entries are the cached objects themselves
    assert gaussian._bs_cov(2, 0, 1, 0.3, joint.cov.tobytes()) is entries[0][1]


def test_degenerate_decision_reads_the_tolerance_at_call_time(monkeypatch):
    tiny = squeezed_vacuum(1e-13, 1e13)
    for _ in range(2):  # the second pass comes from the cache
        record, rest = measure_quadrature(tiny, Quadrature.x(0), np.random.default_rng(0))
        assert record.outcome == 0.0 and rest.n_modes == 0
    monkeypatch.setattr(gaussian, "DEGENERATE_VAR_TOL", 1e-14)
    record, _ = measure_quadrature(tiny, Quadrature.x(0), np.random.default_rng(0))
    assert record.outcome == math.sqrt(1e-13) * float(np.random.default_rng(0).standard_normal())
    monkeypatch.undo()
    assert measure_quadrature(tiny, Quadrature.x(0), np.random.default_rng(0))[0].outcome == 0.0


def test_degenerate_marginal_with_cross_covariance_is_rejected_every_time():
    # x of mode 0 has zero variance but correlates with mode 1's x
    cov = np.array([
        [0.0, 0.0, 1e-6, 0.0],
        [0.0, 1e13, 0.0, 0.0],
        [1e-6, 0.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    correlated = GaussianState(2, np.zeros(4), cov)
    for _ in range(2):
        with pytest.raises(ValueError, match="degenerate marginal with nonzero cross"):
            measure_quadrature(correlated, Quadrature.x(0), np.random.default_rng(0))
