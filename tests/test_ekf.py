"""Kalman tracker: forecast algebra, Jacobian oracle, update equivalence, closed loop."""
import math

import numpy as np
import pytest

from nfbeam import (
    BeamNormError,
    ExperimentConfig,
    FilterHealthError,
    MotionNoise,
    MotionState,
    ProjectionKinkError,
    SystemConfig,
    TrackerBelief,
    cpi_throughput,
    ekf_forecast,
    ekf_track_step,
    generate_trajectory,
    kalman_update,
    observation_jacobian,
    observation_mean,
    pathloss,
    predictive_beamformers,
    run_experiment,
    stream,
    synthesize_observation,
    transition_matrix,
)
from nfbeam import ekf
from nfbeam import geometry as geo

from helpers import (
    N_SYM,
    TS,
    default_model,
    fd_central4_vec,
    fd_central_vec,
    geom_for,
    sample_state,
)

DT = N_SYM * TS


def reference_update(prior_mean, prior_cov, y, jac, h_mean, sigma_e2):
    """Textbook gain-form update on the real-stacked observation."""
    j_r = np.vstack([jac.real, jac.imag])
    nu = np.concatenate([(y - h_mean).real, (y - h_mean).imag])
    s = j_r @ prior_cov @ j_r.T + (sigma_e2 / 2.0) * np.eye(j_r.shape[0])
    k = prior_cov @ j_r.T @ np.linalg.inv(s)
    mean = prior_mean + k @ nu
    cov = (np.eye(4) - k @ j_r) @ prior_cov
    return mean, 0.5 * (cov + cov.T)


def make_problem(rng, m=8):
    scale = 10.0 ** rng.uniform(-2, 0)
    jac = scale * (rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4)))
    root = rng.normal(size=(4, 4))
    cov = root @ root.T + 0.05 * np.eye(4)
    prior = TrackerBelief(mean=MotionState(5.0, 10.0, 8.0, 7.0), covariance=cov)
    h = rng.normal(size=m) + 1j * rng.normal(size=m)
    y = h + scale * 0.1 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    return prior, y, jac, h


def test_forecast_reference_values():
    belief = TrackerBelief(mean=MotionState(5.0, 10.0, 8.0, 7.0), covariance=0.1 * np.eye(4))
    prior = ekf_forecast(belief, 1e-4, MotionNoise(0.0, 0.0))
    np.testing.assert_allclose(
        prior.mean.as_array(), [5.0008, 10.0007, 8.0, 7.0], rtol=1e-12
    )
    assert abs(prior.covariance[0, 0] - (0.1 + 1e-9)) <= 1e-15
    assert abs(prior.covariance[1, 1] - (0.1 + 1e-9)) <= 1e-15
    assert abs(prior.covariance[0, 2] - 0.1e-4) <= 1e-15

    zero = ekf_forecast(
        TrackerBelief(mean=belief.mean, covariance=np.zeros((4, 4))), 1e-4, MotionNoise(0.0, 0.0)
    )
    np.testing.assert_array_equal(zero.covariance, np.zeros((4, 4)))
    seeded = ekf_forecast(
        TrackerBelief(mean=belief.mean, covariance=np.zeros((4, 4))),
        1e-4,
        MotionNoise(0.02, 0.03),
    )
    np.testing.assert_array_equal(seeded.covariance, np.diag([0.0, 0.0, 0.02, 0.03]))
    f = transition_matrix(1e-4)
    np.testing.assert_allclose(
        prior.covariance, f @ belief.covariance @ f.T, rtol=0, atol=1e-18
    )


@pytest.mark.parametrize("signed", [False, True])
def test_jacobian_matches_finite_difference(signed):
    rng = np.random.default_rng(77 + int(signed))
    geom = geom_for(32, signed)
    model = default_model()
    for _ in range(6):
        eta = sample_state(rng, geom)
        bf = predictive_beamformers(geom, eta.position, (0.0, 0.0), N_SYM, TS)
        f = bf[-1]
        jac = observation_jacobian(geom, model, eta, f, 1.0, N_SYM, TS)

        def mean_at(state):
            return observation_mean(geom, model, MotionState(*state), f, 1.0, N_SYM, TS)

        base = eta.as_array()
        for col in range(4):
            def along(t, col=col):
                s = base.copy()
                s[col] = t
                return mean_at(s)

            # position columns oscillate at carrier scale: a plain second-order
            # difference at 1e-4 m is all truncation, the 5-point stencil is not
            if col < 2:
                ref = fd_central4_vec(along, base[col], 1e-4)
            else:
                ref = fd_central_vec(along, base[col], 1e-4)
            err = np.linalg.norm(jac[:, col] - ref) / np.linalg.norm(ref)
            assert err < 1e-4


def test_jacobian_velocity_columns_at_rest():
    geom = geom_for(24)
    model = default_model()
    eta = MotionState(4.0, 11.0, 0.0, 0.0)
    rng = np.random.default_rng(3)
    f = rng.normal(size=24) + 1j * rng.normal(size=24)
    f /= np.linalg.norm(f)
    jac = observation_jacobian(geom, model, eta, f, 1.0, N_SYM, TS)
    from nfbeam import projection_coeffs, steering_vector

    atil = steering_vector(geom, eta.position)
    g, q = projection_coeffs(geom, eta.position)
    alpha2 = pathloss(model, eta.position, "roundtrip")
    fac = -1j * geom.wavenumber * DT * alpha2
    af = atil @ f
    for col, proj in ((2, g), (3, q)):
        expect = fac * ((proj * atil) * af + atil * ((proj * atil) @ f))
        np.testing.assert_allclose(jac[:, col], expect, rtol=1e-12)


def test_jacobian_linear_in_beam_phase():
    geom = geom_for(16)
    model = default_model()
    eta = MotionState(3.0, 9.0, 4.0, -2.0)
    rng = np.random.default_rng(5)
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    f /= np.linalg.norm(f)
    phase = np.exp(1j * 0.83)
    jac = observation_jacobian(geom, model, eta, f, 1.0, N_SYM, TS)
    rotated = observation_jacobian(geom, model, eta, phase * f, 1.0, N_SYM, TS)
    np.testing.assert_allclose(rotated, phase * jac, rtol=1e-12)


def test_jacobian_kink_guard():
    geom = geom_for(8)
    model = default_model()
    from nfbeam import element_offsets

    x_on_antenna = float(element_offsets(geom)[2])
    eta = MotionState(x_on_antenna, 9.0, 1.0, 1.0)
    f = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    with pytest.raises(ProjectionKinkError):
        observation_jacobian(geom, model, eta, f, 1.0, N_SYM, TS)
    observation_jacobian(geom_for(8, signed=True), model, eta, f, 1.0, N_SYM, TS)


def test_update_matches_dense_reference():
    rng = np.random.default_rng(2024)
    for trial in range(8):
        prior, y, jac, h = make_problem(rng)
        for sigma_e2, tol in ((1e-2, 1e-11), (1e-8, 1e-6)):
            post, diag = kalman_update(prior, y, jac, h, sigma_e2)
            ref_mean, ref_cov = reference_update(
                prior.mean.as_array(), prior.covariance, y, jac, h, sigma_e2
            )
            scale = 1.0 + np.linalg.norm(ref_mean) + np.linalg.norm(ref_cov)
            dev = (
                np.linalg.norm(post.mean.as_array() - ref_mean)
                + np.linalg.norm(post.covariance - ref_cov)
            ) / scale
            # the two algebraic routes drift apart with the conditioning of the
            # innovation system, hence the looser bound at operating noise
            assert dev < tol
            assert not diag.ridged


def test_update_scalar_closed_form():
    p0 = np.diag([0.4, 0.3, 0.2, 0.1])
    j1 = 0.7 - 0.2j
    jac = np.zeros((1, 4), complex)
    jac[0, 0] = j1
    nu = 0.11 + 0.05j
    sigma_e2 = 1e-3
    r = sigma_e2 / 2.0
    prior = TrackerBelief(mean=MotionState(1.0, 2.0, 3.0, 4.0), covariance=p0)
    post, diag = kalman_update(prior, np.array([nu]), jac, np.array([0j]), sigma_e2)
    denom = abs(j1) ** 2 * 0.4 + r
    assert abs(post.mean.x - (1.0 + 0.4 * (j1.conjugate() * nu).real / denom)) < 1e-12
    assert abs(post.covariance[0, 0] - 0.4 * r / denom) < 1e-15
    # untouched states keep their variance
    np.testing.assert_allclose(np.diag(post.covariance)[1:], [0.3, 0.2, 0.1], rtol=1e-12)
    assert abs(diag.innovation_norm - abs(nu)) < 1e-12


def test_update_infinite_noise_keeps_prior():
    rng = np.random.default_rng(8)
    prior, y, jac, h = make_problem(rng)
    post, _ = kalman_update(prior, y, jac, h, 1e30)
    np.testing.assert_allclose(post.mean.as_array(), prior.mean.as_array(), atol=1e-12)
    np.testing.assert_allclose(post.covariance, prior.covariance, rtol=1e-9)


def test_update_zero_innovation_keeps_mean_and_contracts():
    rng = np.random.default_rng(9)
    prior, _, jac, h = make_problem(rng)
    post, diag = kalman_update(prior, h.copy(), jac, h, 1e-4)
    np.testing.assert_array_equal(post.mean.as_array(), prior.mean.as_array())
    assert diag.innovation_norm == 0.0
    assert np.trace(post.covariance) <= np.trace(prior.covariance) * (1.0 + 1e-12)


def test_update_invariant_to_common_phase():
    rng = np.random.default_rng(10)
    prior, y, jac, h = make_problem(rng)
    rot = np.exp(1j * 1.234)
    base, _ = kalman_update(prior, y, jac, h, 1e-4)
    spun, _ = kalman_update(prior, rot * y, rot * jac, rot * h, 1e-4)
    np.testing.assert_allclose(spun.mean.as_array(), base.mean.as_array(), rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(spun.covariance, base.covariance, rtol=1e-9, atol=1e-12)


def test_update_ridge_and_zero_sensitivity_paths():
    prior = TrackerBelief(mean=MotionState(5.0, 10.0, 8.0, 7.0), covariance=np.eye(4))
    jac = np.zeros((1, 4), complex)
    jac[0, 0] = 1.0
    # r = 0 with a rank-1 gram: the innovation system is exactly singular
    post, diag = kalman_update(prior, np.array([0.3 + 0j]), jac, np.array([0j]), 0.0)
    assert diag.ridged
    assert np.all(np.isfinite(post.covariance))
    # no sensitivity and no noise: nothing to assimilate
    post2, diag2 = kalman_update(
        prior, np.array([0.3 + 0j]), np.zeros((1, 4), complex), np.array([0j]), 0.0
    )
    assert not diag2.ridged
    np.testing.assert_array_equal(post2.mean.as_array(), prior.mean.as_array())
    np.testing.assert_array_equal(post2.covariance, prior.covariance)


def test_belief_validation_rejects_bad_covariance():
    mean = MotionState(0.0, 10.0, 0.0, 0.0)
    skew = np.eye(4)
    skew[0, 1] = 1e-6
    with pytest.raises(FilterHealthError):
        TrackerBelief(mean=mean, covariance=skew).validate()
    with pytest.raises(FilterHealthError):
        TrackerBelief(mean=mean, covariance=-np.eye(4)).validate()
    with pytest.raises(ValueError):
        TrackerBelief(mean=mean, covariance=np.eye(3)).validate()
    TrackerBelief(mean=mean, covariance=np.eye(4)).validate()


def test_config_validation():
    belief = TrackerBelief(MotionState(5.0, 10.0, 8.0, 7.0), 0.1 * np.eye(4))
    y = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError, match="echo_noise_power"):
        kalman_update(belief, y, np.zeros((4, 4), dtype=complex), y, -1e-9)
    # a run's initial belief is ekf_init_cov (default 0.1) times the identity
    cfg = ExperimentConfig(system=SystemConfig(num_antennas=16), num_cpis=1)
    first = run_experiment(cfg).belief_rows[0]
    assert (first.var_x, first.var_y, first.var_vx, first.var_vy) == (0.1,) * 4


def test_track_step_composes_forecast_beam_update():
    geom = geom_for(32)
    model = default_model()
    process_noise, echo_noise_power = MotionNoise(0.01, 0.01), 1e-8
    belief = TrackerBelief(MotionState(5.0, 10.0, 8.0, 7.0), 0.1 * np.eye(4))
    truth = MotionState(5.0009, 10.0006, 8.1, 6.9)

    prior = ekf_forecast(belief, DT, process_noise)
    bf_ref = predictive_beamformers(
        geom, prior.mean.position, prior.mean.velocity, N_SYM, TS
    )
    noise = 1e-8
    y = synthesize_observation(
        geom, model, truth, bf_ref, noise, 1.0, TS, np.random.default_rng(4)
    )
    h_bar = observation_mean(geom, model, prior.mean, bf_ref[-1], 1.0, N_SYM, TS)
    jac = observation_jacobian(geom, model, prior.mean, bf_ref[-1], 1.0, N_SYM, TS)
    want, want_diag = kalman_update(prior, y, jac, h_bar, echo_noise_power)

    bf, post, diag = ekf_track_step(
        belief, lambda b: y, geom, model, process_noise, echo_noise_power, 1.0, N_SYM, TS, DT
    )
    np.testing.assert_array_equal(bf, bf_ref)
    np.testing.assert_array_equal(post.mean.as_array(), want.mean.as_array())
    np.testing.assert_array_equal(post.covariance, want.covariance)
    assert diag == want_diag


def test_track_step_noiseless_fixed_point():
    geom = geom_for(64)
    model = default_model()
    process_noise, echo_noise_power = MotionNoise(0.0, 0.0), 0.0
    rng = np.random.default_rng(0)
    traj = generate_trajectory(
        MotionState(5.0, 10.0, 8.0, 7.0), MotionNoise(0.0, 0.0), DT, 100, rng
    )
    noise = 0.0
    belief = TrackerBelief(MotionState.from_array(traj[0]), 0.1 * np.eye(4))
    worst = 0.0
    for l in range(1, 100):
        eta = MotionState.from_array(traj[l])

        def observe(bf, eta=eta):
            return synthesize_observation(
                geom, model, eta, bf, noise, 1.0, TS, rng
            )

        bf, belief, diag = ekf_track_step(
            belief, observe, geom, model, process_noise, echo_noise_power, 1.0, N_SYM, TS, DT
        )
        worst = max(
            worst,
            math.hypot(belief.mean.x - eta.x, belief.mean.y - eta.y),
            math.hypot(belief.mean.vx - eta.vx, belief.mean.vy - eta.vy),
        )
        belief.validate()
    assert worst < 1e-6


def test_track_step_throughput_near_matched():
    # closed loop at operating noise: designed beams give essentially the
    # matched-filter rate once the filter locks
    geom = geom_for(64)
    model = default_model()
    process_noise, echo_noise_power = MotionNoise(0.01, 0.01), 1e-8
    traj_rng = stream(0, "trajectory")
    noise_rng = stream(0, "echo-noise")
    cpis = 600
    traj = generate_trajectory(
        MotionState(5.0, 10.0, 8.0, 7.0), MotionNoise(0.01, 0.01), DT, cpis, traj_rng
    )
    noise = 1e-8
    belief = TrackerBelief(MotionState.from_array(traj[0]), 0.1 * np.eye(4))
    rates, opts = [], []
    for l in range(1, cpis):
        eta = MotionState.from_array(traj[l])

        def observe(bf, eta=eta):
            return synthesize_observation(
                geom, model, eta, bf, noise, 1.0, TS, noise_rng
            )

        bf, belief, diag = ekf_track_step(
            belief, observe, geom, model, process_noise, echo_noise_power, 1.0, N_SYM, TS, DT
        )
        rates.append(cpi_throughput(geom, model, eta, bf, TS, 1.0, 1e-8))
        a1 = pathloss(model, eta.position, "downlink")
        opts.append(math.log2(1.0 + 64 * a1 * a1 / 1e-8))
    assert np.mean(rates) / np.mean(opts) > 0.98


def test_belief_sequence_deterministic():
    geom = geom_for(32)
    model = default_model()
    process_noise, echo_noise_power = MotionNoise(0.01, 0.01), 1e-8

    def run():
        traj_rng = stream(5, "trajectory")
        noise_rng = stream(5, "echo-noise")
        traj = generate_trajectory(
            MotionState(5.0, 10.0, 8.0, 7.0), MotionNoise(0.01, 0.01), DT, 40, traj_rng
        )
        noise = 1e-8
        belief = TrackerBelief(MotionState.from_array(traj[0]), 0.1 * np.eye(4))
        means = []
        for l in range(1, 40):
            eta = MotionState.from_array(traj[l])

            def observe(bf, eta=eta):
                return synthesize_observation(
                    geom, model, eta, bf, noise, 1.0, TS, noise_rng
                )

            bf, belief, diag = ekf_track_step(
                belief, observe, geom, model, process_noise, echo_noise_power, 1.0, N_SYM, TS, DT
            )
            means.append(np.concatenate([belief.mean.as_array(), belief.covariance.ravel()]))
        return np.array(means)

    np.testing.assert_array_equal(run(), run())


@pytest.mark.parametrize("field", ["x", "y", "vx", "vy"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_belief_validation_rejects_non_finite_mean(field, bad):
    mean = MotionState(**{**dict(x=0.0, y=10.0, vx=0.0, vy=0.0), field: bad})
    with pytest.raises(FilterHealthError, match="non-finite mean"):
        TrackerBelief(mean=mean, covariance=np.eye(4)).validate()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_belief_validation_rejects_non_finite_covariance(bad):
    mean = MotionState(0.0, 10.0, 0.0, 0.0)
    for entry in ((0, 0), (1, 2), (3, 3)):
        cov = np.eye(4)
        cov[entry] = cov[entry[::-1]] = bad
        with np.errstate(invalid="ignore"), pytest.raises(FilterHealthError):
            TrackerBelief(mean=mean, covariance=cov).validate()
    with np.errstate(invalid="ignore"), pytest.raises(FilterHealthError):
        TrackerBelief(mean=mean, covariance=np.full((4, 4), bad)).validate()


def test_belief_validation_reports_eigensolver_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(FilterHealthError, match="did not converge"):
        TrackerBelief(mean=MotionState(0.0, 10.0, 0.0, 0.0), covariance=np.eye(4)).validate()


def test_update_refuses_a_non_finite_ridged_solve():
    # a NaN echo makes the first solve non-finite; the ridged re-solve is too,
    # and its NaN mean must not leave kalman_update as a posterior
    prior = TrackerBelief(mean=MotionState(5.0, 10.0, 8.0, 7.0), covariance=np.eye(4))
    jac = np.zeros((1, 4), complex)
    jac[0, 0] = 1.0
    with pytest.raises(FilterHealthError, match="non-finite mean"):
        kalman_update(prior, np.array([complex(math.nan, 0.0)]), jac, np.array([0j]), 0.1)


def _long_double_jacobian(geom, model, eta, f, s_amp, num_symbols, symbol_duration):
    """The echo Jacobian's four columns assembled in np.longdouble arithmetic.

    The inputs (array response, ranges, projections and their gradients,
    pathloss) are the float64 values of the geometry layer; only the
    assembly of the columns runs in long double, so this is a reference for
    the round-off of the assembly alone.
    """
    dtype = np.longdouble
    cplx = np.result_type(dtype, 1j).type
    nf = geo.near_field(geom, eta.position)
    r, ux, uy, g, q = (np.asarray(x, dtype) for x in (nf.r, nf.ux, nf.uy, nf.g, nf.q))
    grads = geo.projection_coeff_gradients(geom, nf)
    dg_dx, dq_dx, dg_dy, dq_dy = (np.asarray(d, dtype) for d in grads)
    v = np.asarray(eta.velocity, dtype)
    kappa = dtype(geom.wavenumber)
    dtt = dtype(num_symbols) * dtype(symbol_duration)
    s_amp = dtype(s_amp)
    a = np.asarray(geo.array_response(geom, num_symbols, symbol_duration, eta.velocity, nf), cplx)
    f = np.asarray(f, cplx)
    alpha2 = dtype(geo.pathloss(model, nf.position, geo.ROUNDTRIP))
    da2_dx, da2_dy = (dtype(d) for d in geo.pathloss_gradient(model, nf.position))
    minus_j = -cplx(1j)

    af = a @ f
    core = a * af
    da_dx = minus_j * kappa * a * (dtt * (v[0] * dg_dx + v[1] * dq_dx) + ux / r)
    da_dy = minus_j * kappa * a * (dtt * (v[0] * dg_dy + v[1] * dq_dy) + uy / r)
    col_x = s_amp * (da2_dx * core + alpha2 * (da_dx * af + a * (da_dx @ f)))
    col_y = s_amp * (da2_dy * core + alpha2 * (da_dy * af + a * (da_dy @ f)))
    fac = minus_j * kappa * dtt * alpha2 * s_amp
    ga, qa = g * a, q * a
    col_vx = fac * (ga * af + a * (ga @ f))
    col_vy = fac * (qa * af + a * (qa @ f))
    return np.column_stack([col_x, col_y, col_vx, col_vy])


def _jacobian_cases(m, signed):
    """Broadside (at rest and moving), off-axis and front-of-aperture states,
    each with the predictive beam at the state and with a random unit beam."""
    geom = geom_for(m, signed)
    states = [
        MotionState(0.0, 10.0, 0.0, 0.0),
        MotionState(0.0, 10.0, 3.0, -2.0),
        MotionState(5.0, 10.0, 8.0, 7.0),
        MotionState(0.05, 3.0, 8.0, 7.0),
    ]
    if not signed and m % 2:
        states = states[2:]  # x = 0 is the middle antenna: a magnitude kink
    rng = np.random.default_rng(m + 1000 * int(signed))
    for eta in states:
        matched = predictive_beamformers(geom, eta.position, eta.velocity, N_SYM, TS)[-1]
        other = rng.normal(size=m) + 1j * rng.normal(size=m)
        for f in (matched, other / np.linalg.norm(other)):
            yield geom, eta, f


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 64, 512])
def test_jacobian_against_long_double(m, signed):
    # error of a column: its distance to the long-double assembly over that
    # column's norm, within a few units of round-off
    model = default_model()
    for geom, eta, f in _jacobian_cases(m, signed):
        exact = _long_double_jacobian(geom, model, eta, f, 1.0, N_SYM, TS)
        size = np.linalg.norm(exact, axis=0)
        live = size > 0  # broadside at rest: the x column vanishes
        jac = observation_jacobian(geom, model, eta, f, 1.0, N_SYM, TS)
        err = np.linalg.norm(jac - exact, axis=0)
        assert np.all(err[~live] == 0.0)
        assert np.all(err[live] < 8 * np.finfo(float).eps * size[live]), (eta, err / size)


def test_harness_ekf_refuses_a_non_unit_beam(monkeypatch):
    # the EKF step leaves the norm check to the echo synthesis, which sees
    # every beam the tracker sends
    def stretched(*args, **kwargs):
        return 1.01 * predictive_beamformers(*args, **kwargs)

    monkeypatch.setattr(ekf, "predictive_beamformers", stretched)
    cfg = ExperimentConfig(
        method="ekf", num_cpis=4, system=SystemConfig(num_antennas=16)
    )
    with pytest.raises(BeamNormError):
        run_experiment(cfg)


def test_tracked_cpi_builds_two_doppler_vectors(monkeypatch):
    # one for the echo at the truth, one shared by the echo mean and the
    # Jacobian at the prior
    calls = []
    build = geo.doppler_vector

    def counted(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(geo, "doppler_vector", counted)
    num_cpis = 7
    cfg = ExperimentConfig(
        method="ekf", num_cpis=num_cpis, system=SystemConfig(num_antennas=16)
    )
    run_experiment(cfg)
    assert calls == [N_SYM] * (2 * (num_cpis - 1))
