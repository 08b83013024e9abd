"""Kinematics, process noise, and trajectory generation."""
import math

import numpy as np
import pytest

from nfbeam.ekf import TrackerBelief, ekf_forecast
from nfbeam.motion import (
    generate_trajectory,
    kinematic_forecast,
    transition_matrix,
)


def _reference_trajectory(eta0, motion_var, dt, num_cpis, rng):
    """The state-by-state loop: move with the pre-step velocity, then kick it."""
    var_vx, var_vy = motion_var
    traj = [np.array(eta0)]
    for _ in range(num_cpis - 1):
        moved = kinematic_forecast(traj[-1], dt)
        moved[2] += rng.normal(0.0, math.sqrt(var_vx))
        moved[3] += rng.normal(0.0, math.sqrt(var_vy))
        traj.append(moved)
    return np.array(traj)


def test_transition_matrix_matches_forecast():
    dt = 1e-4
    f = transition_matrix(dt)
    np.testing.assert_array_equal(np.diag(f), 1.0)
    assert f[0, 2] == dt and f[1, 3] == dt
    rng = np.random.default_rng(0)
    for _ in range(10):
        eta = rng.uniform(-10, 10, size=4)
        np.testing.assert_allclose(kinematic_forecast(eta, dt), f @ eta, rtol=1e-15)


def test_forecast_composes_in_time():
    eta = np.array([5.0, 10.0, 8.0, 7.0])
    dt = 1e-4
    two = kinematic_forecast(kinematic_forecast(eta, dt), dt)
    one = kinematic_forecast(eta, 2 * dt)
    # float re-association keeps this at ulp level, not bit level
    np.testing.assert_allclose(two, one, rtol=1e-14)


def test_forecast_leaves_its_input_unwritten():
    eta = np.array([5.0, 10.0, 8.0, 7.0])
    before = eta.tobytes()
    out = kinematic_forecast(eta, 1e-4)
    assert eta.tobytes() == before
    assert not np.shares_memory(out, eta)
    # x + dt * vx per coordinate, the same two operations as the scalar form
    assert out.tolist() == [5.0 + 1e-4 * 8.0, 10.0 + 1e-4 * 7.0, 8.0, 7.0]


@pytest.mark.parametrize("shape", [(7,), (2, 3)])
@pytest.mark.parametrize("per_state_dt", [False, True])
def test_batch_forecast_rounds_as_its_rows(shape, per_state_dt):
    rng = np.random.default_rng(12)
    eta = rng.uniform(-20.0, 20.0, size=(*shape, 4))
    dt = rng.uniform(0.0, 0.1, size=shape) if per_state_dt else 1e-3
    got = kinematic_forecast(eta, dt)
    assert got.shape == eta.shape
    rows = eta.reshape(-1, 4)
    dts = np.ravel(dt) if per_state_dt else [dt] * len(rows)
    want = np.array([kinematic_forecast(row, float(d)) for row, d in zip(rows, dts)])
    assert got.reshape(-1, 4).tobytes() == want.tobytes()


def test_noise_covariance_layout():
    # the filter's process noise over one interval: the velocity kicks' variances
    zero = TrackerBelief(np.zeros(4), np.zeros((4, 4)))
    q = ekf_forecast(zero, 1e-4, (0.01, 0.02)).covariance
    np.testing.assert_array_equal(q, np.diag([0.0, 0.0, 0.01, 0.02]))


def test_step_motion_moves_with_pre_step_velocity():
    rng = np.random.default_rng(1)
    eta = (5.0, 10.0, 8.0, 7.0)
    dt = 1e-4
    x, y, vx, vy = generate_trajectory(eta, (0.01, 0.01), dt, 2, rng)[1]
    # position must use the old velocity; the perturbation lands on velocity only
    assert x == 5.0 + dt * 8.0
    assert y == 10.0 + dt * 7.0
    check = np.random.default_rng(1)
    draws = check.normal(0.0, 1.0, size=2)
    assert vx == pytest.approx(8.0 + np.sqrt(0.01) * draws[0], rel=1e-15)
    assert vy == pytest.approx(7.0 + np.sqrt(0.01) * draws[1], rel=1e-15)


def test_step_motion_zero_noise_is_forecast():
    rng = np.random.default_rng(2)
    eta = np.array([1.0, 9.0, -3.0, 2.0])
    stepped = generate_trajectory(eta, (0.0, 0.0), 1e-4, 2, rng)[1]
    np.testing.assert_array_equal(stepped, kinematic_forecast(eta, 1e-4))


def test_trajectory_shape_and_start():
    rng = np.random.default_rng(3)
    eta0 = (5.0, 10.0, 8.0, 7.0)
    traj = generate_trajectory(eta0, (0.01, 0.01), 1e-4, 50, rng)
    assert len(traj) == 50
    assert tuple(traj[0]) == eta0


def test_trajectory_deterministic_per_seed():
    eta0 = (5.0, 10.0, 8.0, 7.0)
    noise = (0.01, 0.01)
    a = generate_trajectory(eta0, noise, 1e-4, 30, np.random.default_rng(7))
    b = generate_trajectory(eta0, noise, 1e-4, 30, np.random.default_rng(7))
    c = generate_trajectory(eta0, noise, 1e-4, 30, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noiseless_trajectory_is_uniform_motion():
    eta0 = (2.0, 8.0, -1.5, 3.0)
    dt = 1e-3
    traj = generate_trajectory(eta0, (0.0, 0.0), dt, 200, np.random.default_rng(4))
    for l, (x, y, vx, vy) in enumerate(traj):
        np.testing.assert_allclose(x, 2.0 - 1.5 * l * dt, rtol=1e-12)
        np.testing.assert_allclose(y, 8.0 + 3.0 * l * dt, rtol=1e-12)
        assert vx == -1.5 and vy == 3.0


def test_velocity_increments_uncorrelated():
    eta0 = (0.0, 10.0, 0.0, 0.0)
    traj = generate_trajectory(eta0, (0.01, 0.01), 1e-4, 100_001, np.random.default_rng(5))
    dvx = np.diff(traj[:, 2])
    dvx -= dvx.mean()
    lag1 = float(np.dot(dvx[1:], dvx[:-1]) / np.dot(dvx, dvx))
    assert abs(lag1) < 0.02


def test_rng_draw_count_is_stable():
    # zero-variance steps must consume the same number of draws as noisy
    # ones, so flipping variances never desynchronizes downstream streams
    rng_a = np.random.default_rng(6)
    rng_b = np.random.default_rng(6)
    eta = (1.0, 5.0, 1.0, 1.0)
    generate_trajectory(eta, (0.0, 0.0), 1e-4, 2, rng_a)
    generate_trajectory(eta, (0.01, 0.01), 1e-4, 2, rng_b)
    assert rng_a.normal() == rng_b.normal()


@pytest.mark.parametrize("num_cpis", [1, 2, 2000])
@pytest.mark.parametrize("variances", [(0.0, 0.0), (0.0, 0.02), (0.01, 0.04), (0.01, 0.01)])
def test_trajectory_is_bit_identical_to_the_state_loop(variances, num_cpis):
    noise = variances
    # the default start, and a longer interval with both velocities negative
    for eta0, dt in (((5.0, 10.0, 8.0, 7.0), 1e-4), ((2.0, 8.0, -1.5, -3.0), 1e-3)):
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        got = generate_trajectory(eta0, noise, dt, num_cpis, rng_a)
        want = _reference_trajectory(eta0, noise, dt, num_cpis, rng_b)
        assert got.shape == (num_cpis, 4)
        assert got.tobytes() == want.tobytes()
        # both drew the same number of kicks, in the same order
        assert rng_a.normal() == rng_b.normal()
