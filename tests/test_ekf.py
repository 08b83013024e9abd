"""Kalman tracker: forecast algebra, Jacobian oracle, update equivalence, closed loop."""
import math

import numpy as np
import pytest

from nfbeam import checks, ekf
from nfbeam import geometry as geo
from nfbeam.beamforming import predictive_beamformers
from nfbeam.config import ExperimentConfig, SystemConfig
from nfbeam.ekf import (
    FactoredJacobian,
    FilterHealthError,
    TrackerBelief,
    ekf_forecast,
    ekf_track_step,
    kalman_update,
    observation_jacobian,
    velocity_jacobian,
)
from nfbeam.geometry import ProjectionKinkError
from nfbeam.harness import run_experiment, stream
from nfbeam.motion import generate_trajectory, transition_matrix
from nfbeam.signals import (
    BeamNormError,
    cpi_throughput,
    observation_mean,
    synthesize_observation,
)

from helpers import (
    N_SYM,
    TS,
    belief_rows,
    fd_central,
    fd_central4,
    metric_rows,
    sample_state,
    system_for,
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


def factored(jac):
    """A dense (M, 4) J as kalman_update takes it: unit response, Z = J^T."""
    return FactoredJacobian(np.ones(len(jac)), np.asarray(jac, complex).T.copy())


def make_problem(rng, m=8):
    scale = 10.0 ** rng.uniform(-2, 0)
    jac = scale * (rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4)))
    root = rng.normal(size=(4, 4))
    cov = root @ root.T + 0.05 * np.eye(4)
    prior = TrackerBelief(mean=np.array([5.0, 10.0, 8.0, 7.0]), covariance=cov)
    h = rng.normal(size=m) + 1j * rng.normal(size=m)
    y = h + scale * 0.1 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    return prior, y, jac, h


def test_forecast_reference_values():
    belief = TrackerBelief(mean=np.array([5.0, 10.0, 8.0, 7.0]), covariance=0.1 * np.eye(4))
    prior = ekf_forecast(belief, 1e-4, (0.0, 0.0))
    np.testing.assert_allclose(
        prior.mean, [5.0008, 10.0007, 8.0, 7.0], rtol=1e-12
    )
    assert abs(prior.covariance[0, 0] - (0.1 + 1e-9)) <= 1e-15
    assert abs(prior.covariance[1, 1] - (0.1 + 1e-9)) <= 1e-15
    assert abs(prior.covariance[0, 2] - 0.1e-4) <= 1e-15

    zero = ekf_forecast(
        TrackerBelief(mean=belief.mean, covariance=np.zeros((4, 4))), 1e-4, (0.0, 0.0)
    )
    np.testing.assert_array_equal(zero.covariance, np.zeros((4, 4)))
    seeded = ekf_forecast(
        TrackerBelief(mean=belief.mean, covariance=np.zeros((4, 4))),
        1e-4,
        (0.02, 0.03),
    )
    np.testing.assert_array_equal(seeded.covariance, np.diag([0.0, 0.0, 0.02, 0.03]))
    f = transition_matrix(1e-4)
    np.testing.assert_allclose(
        prior.covariance, f @ belief.covariance @ f.T, rtol=0, atol=1e-18
    )


@pytest.mark.parametrize("signed", [False, True])
def test_jacobian_matches_finite_difference(signed):
    rng = np.random.default_rng(77 + int(signed))
    system = system_for(32, signed)
    for _ in range(6):
        eta = sample_state(rng, system)
        nf = geo.NearField(system, eta[:2])
        bf = predictive_beamformers(nf, (0.0, 0.0))
        f = bf[-1]
        jac = np.asarray(observation_jacobian(nf, eta[2:], f))

        def mean_at(state):
            return observation_mean(geo.NearField(system, state[:2]), state[2:], f)

        for col in range(4):
            def along(t, col=col):
                s = eta.copy()
                s[col] = t
                return mean_at(s)

            # position columns oscillate at carrier scale: a plain second-order
            # difference at 1e-4 m is all truncation, the 5-point stencil is not
            if col < 2:
                ref = fd_central4(along, eta[col], 1e-4)
            else:
                ref = fd_central(along, eta[col], 1e-4)
            err = np.linalg.norm(jac[:, col] - ref) / np.linalg.norm(ref)
            assert err < 1e-4


def test_jacobian_velocity_columns_at_rest():
    system = system_for(24)
    eta = np.array([4.0, 11.0, 0.0, 0.0])
    rng = np.random.default_rng(3)
    f = rng.normal(size=24) + 1j * rng.normal(size=24)
    f /= np.linalg.norm(f)
    nf = geo.NearField(system, eta[:2])
    jac = np.asarray(observation_jacobian(nf, eta[2:], f))
    atil, g, q = nf.steering, nf.g, nf.q
    fac = -1j * system.wavenumber * DT * nf.alpha2
    af = atil @ f
    for col, proj in ((2, g), (3, q)):
        expect = fac * ((proj * atil) * af + atil * ((proj * atil) @ f))
        np.testing.assert_allclose(jac[:, col], expect, rtol=1e-12)


def test_jacobian_linear_in_beam_phase():
    system = system_for(16)
    eta = np.array([3.0, 9.0, 4.0, -2.0])
    rng = np.random.default_rng(5)
    f = rng.normal(size=16) + 1j * rng.normal(size=16)
    f /= np.linalg.norm(f)
    phase = np.exp(1j * 0.83)
    nf = geo.NearField(system, eta[:2])
    jac = np.asarray(observation_jacobian(nf, eta[2:], f))
    rotated = np.asarray(observation_jacobian(nf, eta[2:], phase * f))
    np.testing.assert_allclose(rotated, phase * jac, rtol=1e-12)


def test_jacobian_kink_guard():
    system, signed = system_for(8), system_for(8, signed=True)
    offsets = geo.element_offsets(system)
    v = (1.0, 1.0)
    f = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    on_antenna = (float(offsets[2]), 9.0)
    with pytest.raises(ProjectionKinkError, match=r"system\.signed_projection=true"):
        observation_jacobian(geo.NearField(system, on_antenna), v, f)
    observation_jacobian(geo.NearField(signed, on_antenna), v, f)
    # off every antenna, within KINK_TOL of the array plane: a kink of |y|
    near_plane = (0.5 * float(offsets[2] + offsets[3]), 0.5 * geo.KINK_TOL)
    with pytest.raises(ProjectionKinkError, match="of the array plane"):
        observation_jacobian(geo.NearField(system, near_plane), v, f)
    observation_jacobian(geo.NearField(signed, near_plane), v, f)


def test_jacobian_refuses_a_snapshot_of_two_positions():
    system = system_for(8, signed=True)
    nf = geo.NearField(system, [(0.5, 9.0), (1.0, 7.0)])
    f = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    with pytest.raises(ValueError, match=r"position must have shape \(2,\), got \(2, 2\)"):
        observation_jacobian(nf, (1.0, 1.0), f)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [32, 512])
def test_velocity_jacobian_is_the_velocity_rows(m, signed):
    # the same Z rows, bit for bit, and the velocity blocks of the Gram and score
    rng = np.random.default_rng(m + int(signed))
    system = system_for(m, signed)
    for _ in range(5):
        eta = sample_state(rng, system)
        nf = geo.NearField(system, eta[:2])
        v = eta[2:] + rng.normal(0.0, 0.3, 2)
        bf = predictive_beamformers(nf, v)
        y = synthesize_observation(nf, eta[2:], bf, rng)
        full, vel = observation_jacobian(nf, v, bf[-1]), velocity_jacobian(nf, v, bf[-1])
        assert vel.sensitivity.shape == (2, m) and vel.sensitivity.flags.c_contiguous
        assert vel.sensitivity.tobytes() == full.sensitivity[2:].tobytes()
        assert vel.response is full.response
        nu = y - observation_mean(nf, v, bf[-1])
        gram, u = full.gram_and_score(nu)
        gram_v, u_v = vel.gram_and_score(nu)
        np.testing.assert_allclose(gram_v, gram[2:, 2:], rtol=1e-13, atol=0)
        np.testing.assert_allclose(u_v, u[2:], rtol=1e-13, atol=1e-13 * np.abs(u[2:]).max())


def test_velocity_jacobian_passes_a_projection_kink():
    # with the target's x on an antenna, only the position rows need the kink's derivative
    system = system_for(8)
    p, v = (float(geo.element_offsets(system)[2]), 9.0), (1.0, 1.0)
    f = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    dense = np.asarray(velocity_jacobian(geo.NearField(system, p), v, f))
    for col, speed in enumerate(v):
        def along(t, col=col):
            s = np.array(v)
            s[col] = t
            return observation_mean(geo.NearField(system, p), s, f)

        ref = fd_central(along, speed, 1e-4)
        assert np.linalg.norm(dense[:, col] - ref) / np.linalg.norm(ref) < 1e-4


def test_velocity_fisher_check_passes_and_catches_a_scaled_gram(monkeypatch):
    ok, detail = checks.check_velocity_fisher(0)
    assert ok, detail
    jacobian = checks.velocity_jacobian

    def scaled(*args):
        jac = jacobian(*args)
        return FactoredJacobian(jac.response, jac.sensitivity * (1.0 + 1e-7))

    monkeypatch.setattr(checks, "velocity_jacobian", scaled)
    ok, detail = checks.check_velocity_fisher(0)
    assert not ok, detail


def test_update_matches_dense_reference():
    rng = np.random.default_rng(2024)
    for trial in range(8):
        prior, y, jac, h = make_problem(rng)
        for sigma_e2, tol in ((1e-2, 1e-11), (1e-8, 1e-6)):
            post, diag = kalman_update(prior, y, factored(jac), h, sigma_e2)
            ref_mean, ref_cov = reference_update(
                prior.mean, prior.covariance, y, jac, h, sigma_e2
            )
            scale = 1.0 + np.linalg.norm(ref_mean) + np.linalg.norm(ref_cov)
            dev = (
                np.linalg.norm(post.mean - ref_mean)
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
    prior = TrackerBelief(mean=np.array([1.0, 2.0, 3.0, 4.0]), covariance=p0)
    post, diag = kalman_update(prior, np.array([nu]), factored(jac), np.array([0j]), sigma_e2)
    denom = abs(j1) ** 2 * 0.4 + r
    assert abs(post.mean[0] - (1.0 + 0.4 * (j1.conjugate() * nu).real / denom)) < 1e-12
    assert abs(post.covariance[0, 0] - 0.4 * r / denom) < 1e-15
    # untouched states keep their variance
    np.testing.assert_allclose(np.diag(post.covariance)[1:], [0.3, 0.2, 0.1], rtol=1e-12)
    assert abs(diag.innovation_norm - abs(nu)) < 1e-12


def test_update_infinite_noise_keeps_prior():
    rng = np.random.default_rng(8)
    prior, y, jac, h = make_problem(rng)
    post, _ = kalman_update(prior, y, factored(jac), h, 1e30)
    np.testing.assert_allclose(post.mean, prior.mean, atol=1e-12)
    np.testing.assert_allclose(post.covariance, prior.covariance, rtol=1e-9)


def test_update_zero_innovation_keeps_mean_and_contracts():
    rng = np.random.default_rng(9)
    prior, _, jac, h = make_problem(rng)
    post, diag = kalman_update(prior, h.copy(), factored(jac), h, 1e-4)
    np.testing.assert_array_equal(post.mean, prior.mean)
    assert diag.innovation_norm == 0.0
    assert np.trace(post.covariance) <= np.trace(prior.covariance) * (1.0 + 1e-12)


def test_update_invariant_to_common_phase():
    rng = np.random.default_rng(10)
    prior, y, jac, h = make_problem(rng)
    rot = np.exp(1j * 1.234)
    base, _ = kalman_update(prior, y, factored(jac), h, 1e-4)
    spun, _ = kalman_update(prior, rot * y, factored(rot * jac), rot * h, 1e-4)
    np.testing.assert_allclose(spun.mean, base.mean, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(spun.covariance, base.covariance, rtol=1e-9, atol=1e-12)


def test_update_ridge_and_zero_sensitivity_paths():
    prior = TrackerBelief(mean=np.array([5.0, 10.0, 8.0, 7.0]), covariance=np.eye(4))
    jac = np.zeros((1, 4), complex)
    jac[0, 0] = 1.0
    # r = 0 with a rank-1 gram: the innovation system is exactly singular
    post, diag = kalman_update(prior, np.array([0.3 + 0j]), factored(jac), np.array([0j]), 0.0)
    assert diag.ridged
    assert np.all(np.isfinite(post.covariance))
    # the ridge's load keeps the three unobserved axes at their prior variance
    np.testing.assert_allclose(np.diag(post.covariance)[1:], 1.0, rtol=1e-9)
    assert 0.0 < post.covariance[0, 0] <= 1e-11
    # no sensitivity and no noise: nothing to assimilate
    post2, diag2 = kalman_update(
        prior, np.array([0.3 + 0j]), factored(np.zeros((1, 4))), np.array([0j]), 0.0
    )
    assert not diag2.ridged
    np.testing.assert_array_equal(post2.mean, prior.mean)
    np.testing.assert_array_equal(post2.covariance, prior.covariance)


def test_belief_validation_rejects_bad_covariance():
    mean = np.array([0.0, 10.0, 0.0, 0.0])
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
    belief = TrackerBelief(np.array([5.0, 10.0, 8.0, 7.0]), 0.1 * np.eye(4))
    y = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError, match="echo_noise_power"):
        kalman_update(belief, y, factored(np.zeros((4, 4))), y, -1e-9)
    # a run's initial belief is ekf_init_cov (default 0.1) times the identity
    cfg = ExperimentConfig(system=SystemConfig(num_antennas=16), num_cpis=1)
    first = belief_rows(run_experiment(cfg), "var_x", "var_y", "var_vx", "var_vy")[0]
    assert first == (0.1,) * 4


def test_track_step_composes_forecast_beam_update():
    system = system_for(32)
    motion_var = (0.01, 0.01)
    belief = TrackerBelief(np.array([5.0, 10.0, 8.0, 7.0]), 0.1 * np.eye(4))
    truth = np.array([5.0009, 10.0006, 8.1, 6.9])

    prior = ekf_forecast(belief, DT, motion_var)
    nf, v = geo.NearField(system, prior.mean[:2]), prior.mean[2:]
    bf_ref = predictive_beamformers(nf, v)
    y = synthesize_observation(
        geo.NearField(system, truth[:2]), truth[2:], bf_ref, np.random.default_rng(4)
    )
    h_bar = observation_mean(nf, v, bf_ref[-1])
    jac = observation_jacobian(nf, v, bf_ref[-1])
    want, want_diag = kalman_update(prior, y, jac, h_bar, system.echo_noise_power)

    bf, post, diag = ekf_track_step(belief, lambda b: y, system, motion_var)
    np.testing.assert_array_equal(bf, bf_ref)
    np.testing.assert_array_equal(post.mean, want.mean)
    np.testing.assert_array_equal(post.covariance, want.covariance)
    assert diag == want_diag


def test_track_step_noiseless_fixed_point():
    system = system_for(64, echo_noise_power=0.0)
    rng = np.random.default_rng(0)
    traj = generate_trajectory((5.0, 10.0, 8.0, 7.0), (0.0, 0.0), DT, 100, rng)
    belief = TrackerBelief(traj[0].copy(), 0.1 * np.eye(4))
    worst = 0.0
    for l in range(1, 100):
        eta = traj[l]

        def observe(bf, eta=eta):
            return synthesize_observation(geo.NearField(system, eta[:2]), eta[2:], bf, rng)

        bf, belief, diag = ekf_track_step(belief, observe, system, (0.0, 0.0))
        worst = max(
            worst,
            math.hypot(*(belief.mean[:2] - eta[:2])),
            math.hypot(*(belief.mean[2:] - eta[2:])),
        )
        belief.validate()
    assert worst < 1e-6


def test_track_step_throughput_near_matched():
    # closed loop at operating noise: designed beams give essentially the
    # matched-filter rate once the filter locks
    system = system_for(64)
    traj_rng = stream(0, "trajectory")
    noise_rng = stream(0, "echo-noise")
    cpis = 600
    traj = generate_trajectory((5.0, 10.0, 8.0, 7.0), (0.01, 0.01), DT, cpis, traj_rng)
    belief = TrackerBelief(traj[0].copy(), 0.1 * np.eye(4))
    rates, opts = [], []
    for l in range(1, cpis):
        eta = traj[l]

        def observe(bf, eta=eta):
            return synthesize_observation(geo.NearField(system, eta[:2]), eta[2:], bf, noise_rng)

        bf, belief, diag = ekf_track_step(belief, observe, system, (0.01, 0.01))
        nf = geo.NearField(system, eta[:2])
        rates.append(cpi_throughput(nf, eta[2:], bf))
        a1 = nf.alpha1
        opts.append(math.log2(1.0 + 64 * a1 * a1 / 1e-8))
    assert np.mean(rates) / np.mean(opts) > 0.98


def test_belief_sequence_deterministic():
    system = system_for(32)

    def run():
        traj_rng = stream(5, "trajectory")
        noise_rng = stream(5, "echo-noise")
        traj = generate_trajectory((5.0, 10.0, 8.0, 7.0), (0.01, 0.01), DT, 40, traj_rng)
        belief = TrackerBelief(traj[0].copy(), 0.1 * np.eye(4))
        means = []
        for l in range(1, 40):
            eta = traj[l]

            def observe(bf, eta=eta):
                return synthesize_observation(
                    geo.NearField(system, eta[:2]), eta[2:], bf, noise_rng
                )

            bf, belief, diag = ekf_track_step(belief, observe, system, (0.01, 0.01))
            means.append(np.concatenate([belief.mean, belief.covariance.ravel()]))
        return np.array(means)

    np.testing.assert_array_equal(run(), run())


@pytest.mark.parametrize("field", ["x", "y", "vx", "vy"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_belief_validation_rejects_non_finite_mean(field, bad):
    mean = np.array([0.0, 10.0, 0.0, 0.0])
    mean[["x", "y", "vx", "vy"].index(field)] = bad
    with pytest.raises(FilterHealthError, match="non-finite mean"):
        TrackerBelief(mean=mean, covariance=np.eye(4)).validate()


@pytest.mark.parametrize("shape", [(), (3,), (5,), (1, 4), (4, 1), (2, 4)])
def test_belief_validation_rejects_a_mean_not_of_shape_4(shape):
    with pytest.raises(ValueError, match=r"mean must have shape \(4,\)"):
        TrackerBelief(mean=np.ones(shape), covariance=np.eye(4)).validate()


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (2, 4), (), (1,), (3,)])
def test_update_refuses_a_prior_mean_that_broadcasts(shape):
    # prior.mean + delta would broadcast () and (1,) to a (4,) posterior
    # mean, and the others to a posterior mean that is not (4,)
    prior = TrackerBelief(mean=np.ones(shape), covariance=np.eye(4))
    jac = factored(np.ones((3, 4)))
    with pytest.raises(ValueError, match=r"mean must have shape \(4,\)"):
        kalman_update(prior, np.ones(3, complex), jac, np.zeros(3, complex), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_belief_validation_rejects_non_finite_covariance(bad):
    mean = np.array([0.0, 10.0, 0.0, 0.0])
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
        TrackerBelief(mean=np.array([0.0, 10.0, 0.0, 0.0]), covariance=np.eye(4)).validate()


def test_update_refuses_a_non_finite_ridged_solve():
    # a NaN echo makes the first solve non-finite; the ridged re-solve is too,
    # and its NaN mean must not leave kalman_update as a posterior
    prior = TrackerBelief(mean=np.array([5.0, 10.0, 8.0, 7.0]), covariance=np.eye(4))
    jac = np.zeros((1, 4), complex)
    jac[0, 0] = 1.0
    with pytest.raises(FilterHealthError, match="non-finite mean"):
        kalman_update(
            prior, np.array([complex(math.nan, 0.0)]), factored(jac), np.array([0j]), 0.1
        )


def _long_double_jacobian(nf, v, f):
    """The echo Jacobian's four columns assembled in np.longdouble arithmetic.

    The inputs (array response, ranges, offsets, projections, gains) are the
    float64 values of the geometry layer. The derivatives of the projections
    (g, q) = (sx * ux, sy * uy) / r, signs s = 1 when signed and else
    sx = sign(ux), sy = sign(y), and of alpha2 = rcs * ref_gain / (4 |p|^2)
    follow from these definitions in long double, as does the assembly of
    the columns; so this is a reference for the code's closed form and its
    round-off, not only for the assembly.
    """
    dtype = np.longdouble
    cplx = np.result_type(dtype, 1j).type
    r, ux, uy, g, q = (np.asarray(x, dtype) for x in (nf.r, nf.ux, nf.uy, nf.g, nf.q))
    px, py = np.asarray(nf.position, dtype)
    one = dtype(1)
    sx, sy = (one, one) if nf.system.signed_projection else (np.sign(ux), np.sign(py))
    r3 = r * r * r
    dg_dx, dq_dx = sx * (one / r - ux * ux / r3), -sy * uy * ux / r3
    dg_dy, dq_dy = -sx * ux * uy / r3, sy * (one / r - uy * uy / r3)
    system = nf.system
    a = np.asarray(geo.array_response(system.symbols_per_cpi, v, nf), cplx)
    v = np.asarray(v, dtype)
    kappa = dtype(system.wavenumber)
    dtt = dtype(system.symbols_per_cpi) * dtype(system.symbol_duration_s)
    s_amp = dtype(math.sqrt(system.tx_power_w))
    f = np.asarray(f, cplx)
    alpha2 = dtype(nf.alpha2)
    pp = px * px + py * py
    da2_dp = -dtype(system.rcs) * dtype(system.ref_gain) / (dtype(2) * pp * pp)
    da2_dx, da2_dy = da2_dp * px, da2_dp * py
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
    system = system_for(m, signed)
    states = [
        np.array([0.0, 10.0, 0.0, 0.0]),
        np.array([0.0, 10.0, 3.0, -2.0]),
        np.array([5.0, 10.0, 8.0, 7.0]),
        np.array([0.05, 3.0, 8.0, 7.0]),
    ]
    if not signed and m % 2:
        states = states[2:]  # x = 0 is the middle antenna: a magnitude kink
    rng = np.random.default_rng(m + 1000 * int(signed))
    for eta in states:
        nf, v = geo.NearField(system, eta[:2]), eta[2:]
        matched = predictive_beamformers(nf, v)[-1]
        other = rng.normal(size=m) + 1j * rng.normal(size=m)
        for f in (matched, other / np.linalg.norm(other)):
            yield nf, v, f


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 64, 512])
def test_jacobian_against_long_double(m, signed):
    # error of a column: its distance to the long-double assembly over that
    # column's norm, within a few units of round-off
    for nf, v, f in _jacobian_cases(m, signed):
        exact = _long_double_jacobian(nf, v, f)
        size = np.linalg.norm(exact, axis=0)
        live = size > 0  # broadside at rest: the x column vanishes
        jac = np.asarray(observation_jacobian(nf, v, f))
        err = np.linalg.norm(jac - exact, axis=0)
        assert np.all(err[~live] == 0.0)
        bound = 8 * np.finfo(float).eps * size[live]
        assert np.all(err[live] < bound), (nf.position, v, err / size)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [1, 2, 64, 512])
def test_gram_and_score_against_long_double(m, signed):
    # G = Re(J^H J) and u = Re(J^H nu) from the factored Jacobian against
    # their long-double assembly from the long-double columns: G_kl within
    # 16 eps sqrt(G_kk G_ll), u_k within 16 eps sqrt(G_kk) |nu|
    eps = np.finfo(float).eps
    rng = np.random.default_rng(m + 1000 * int(signed))
    for nf, v, f in _jacobian_cases(m, signed):
        exact = _long_double_jacobian(nf, v, f)
        nu = rng.normal(size=m) + 1j * rng.normal(size=m)
        jac = observation_jacobian(nf, v, f)
        gram, score = jac.gram_and_score(nu)
        exact_h = np.conj(exact).T
        want_gram = np.real(exact_h @ exact)
        want_score = np.real(exact_h @ nu.astype(exact.dtype))
        size = np.sqrt(np.diag(want_gram))
        assert np.all(np.abs(gram - want_gram) <= 16 * eps * np.outer(size, size)), (nf.position, v)
        assert np.all(
            np.abs(score - want_score) <= 16 * eps * size * np.linalg.norm(nu)
        ), (nf.position, v)


def _dense_update(prior, y, jac, predicted_mean, echo_noise_power):
    """kalman_update's signature over the square-root-information reference update."""
    mean, cov = checks._dense_reference_update(
        prior, y, np.asarray(jac), predicted_mean, echo_noise_power
    )
    posterior = TrackerBelief(mean, cov)
    return posterior, ekf.UpdateDiagnostics(float(np.linalg.norm(y - predicted_mean)))


@pytest.mark.parametrize("front", [False, True])
def test_closed_loop_agrees_with_the_dense_update(monkeypatch, front):
    # 200 CPIs at M=64, from the default start and from the signed
    # front-of-aperture start: the production update on the factored Jacobian
    # and the reference update on its dense expansion keep the same means,
    # here from a narrow 1e-8 I prior (the default prior is the next test).
    # The loop carries a position error into velocity about 1e4 times larger
    system = SystemConfig(num_antennas=64, signed_projection=front)
    start = (0.05, 3.0, 8.0, 7.0) if front else (5.0, 10.0, 8.0, 7.0)
    cfg = ExperimentConfig(
        system=system, method="ekf", num_cpis=200, initial_state=start, ekf_init_cov=1e-8
    )

    def means():
        return np.array(belief_rows(run_experiment(cfg), "x", "y", "vx", "vy"))

    got = means()
    monkeypatch.setattr(ekf, "kalman_update", _dense_update)
    want = means()
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("front", [False, True])
def test_closed_loop_agrees_with_the_dense_update_from_the_default_prior(monkeypatch, front):
    # as above from the default 0.1 I prior, where the first 128 x 128
    # innovation covariance has cond ~5e11: the reference forms none, and the
    # two runs keep every estimate within 1e-8 relative (bound fixed before
    # the run; an explicit inverse of that covariance parted by up to 0.9)
    system = SystemConfig(num_antennas=64, signed_projection=front)
    start = (0.05, 3.0, 8.0, 7.0) if front else (5.0, 10.0, 8.0, 7.0)
    cfg = ExperimentConfig(system=system, method="ekf", num_cpis=200, initial_state=start)

    def estimates():
        return np.array(metric_rows(run_experiment(cfg), "x_hat", "y_hat", "vx_hat", "vy_hat"))

    got = estimates()
    monkeypatch.setattr(ekf, "kalman_update", _dense_update)
    want = estimates()
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("front", [False, True])
def test_closed_loop_variances_agree_with_the_dense_update(monkeypatch, front):
    # the posterior r (G P + r I)^-1-form keeps every marginal variance of the
    # 200-CPI runs within 1e-8 of the square-root-information reference's; the
    # Joseph form parted from it by up to 3.5e-6 (var_x, front start)
    system = SystemConfig(num_antennas=64, signed_projection=front)
    start = (0.05, 3.0, 8.0, 7.0) if front else (5.0, 10.0, 8.0, 7.0)
    cfg = ExperimentConfig(system=system, method="ekf", num_cpis=200, initial_state=start)

    def variances():
        return np.array(belief_rows(run_experiment(cfg), "var_x", "var_y", "var_vx", "var_vy"))

    got = variances()
    monkeypatch.setattr(ekf, "kalman_update", _dense_update)
    want = variances()
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("x0", [5.0, -5.0])
def test_noiseless_filter_holds_the_fixed_point(monkeypatch, signed, x0):
    # no echo noise and no motion noise, 2000 CPIs at M=64: the prior mean is
    # the truth, each update keeps it, and no update may grow the covariance.
    # The Joseph form's I - K J kept O(1) error at r = 0, blew the covariance
    # up at the first update and ended in FilterHealthError within 150 CPIs
    traces = []
    update = ekf.kalman_update

    def spy(prior, *args):
        posterior, diag = update(prior, *args)
        traces.append((np.trace(prior.covariance), np.trace(posterior.covariance)))
        return posterior, diag

    monkeypatch.setattr(ekf, "kalman_update", spy)
    system = SystemConfig(num_antennas=64, signed_projection=signed, echo_noise_power=0.0)
    cfg = ExperimentConfig(
        system=system, method="ekf", num_cpis=2000,
        initial_state=(x0, 10.0, 8.0, 7.0), motion_var=(0.0, 0.0),
    )
    result = run_experiment(cfg)
    assert len(traces) == cfg.num_cpis - 1
    assert all(posterior <= prior for prior, posterior in traces)
    truth = metric_rows(result, "x", "y", "vx", "vy")
    assert metric_rows(result, "x_hat", "y_hat", "vx_hat", "vy_hat") == truth
    assert belief_rows(result, "x", "y", "vx", "vy") == truth


def test_forecast_matrices_are_built_once_and_read_only():
    f, q = ekf._forecast_model(DT, (0.02, 0.03))
    assert ekf._forecast_model(DT, (0.02, 0.03))[0] is f
    assert not f.flags.writeable and not q.flags.writeable
    np.testing.assert_array_equal(f, transition_matrix(DT))
    np.testing.assert_array_equal(q, np.diag([0.0, 0.0, 0.02, 0.03]))


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
        calls.append(args[0])
        return build(*args)

    monkeypatch.setattr(geo, "doppler_vector", counted)
    num_cpis = 7
    cfg = ExperimentConfig(
        method="ekf", num_cpis=num_cpis, system=SystemConfig(num_antennas=16)
    )
    run_experiment(cfg)
    assert calls == [N_SYM] * (2 * (num_cpis - 1))
