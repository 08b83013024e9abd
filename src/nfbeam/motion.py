"""Constant-velocity motion: kinematic_forecast steps a batch of states (..., 4),
and generate_trajectory builds a trajectory as running sums of kicks and steps."""
from __future__ import annotations

import math

import numpy as np


def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition for [x, y, vx, vy]."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def kinematic_forecast(eta, dt) -> np.ndarray:
    """Noise-free propagation of states (..., 4) into a new array: position
    moves with the current velocity over dt, a float or one interval per state
    (shape (...)). eta is not written; each state rounds as it would alone."""
    out = np.array(eta, dtype=float)
    out[..., :2] += np.asarray(dt, dtype=float)[..., None] * out[..., 2:]
    return out


def generate_trajectory(
    eta0,
    motion_var: tuple[float, float],
    dt: float,
    num_cpis: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """[x, y, vx, vy] for CPIs 1..num_cpis, shape (num_cpis, 4); row 0 is eta0,
    the initial [x, y, vx, vy].

    Each interval moves with the pre-step velocity, then perturbs the
    velocity by independent kicks of variances motion_var = (var_vx, var_vy);
    the x kick is drawn before the y kick. Velocities and positions are
    running sums; np.cumsum folds in order, so each row rounds as one step.
    """
    if num_cpis < 1:
        raise ValueError(f"num_cpis must be >= 1, got {num_cpis}")
    # + 0.0 turns a variance of -0.0 into 0.0, whose root the generator accepts
    sd = [math.sqrt(var + 0.0) for var in motion_var]
    traj = np.empty((num_cpis, 4))
    traj[0] = eta0
    traj[1:, 2:] = rng.normal(0.0, sd, size=(num_cpis - 1, 2))
    np.cumsum(traj[:, 2:], axis=0, out=traj[:, 2:])
    traj[1:, :2] = dt * traj[:-1, 2:]
    np.cumsum(traj[:, :2], axis=0, out=traj[:, :2])
    return traj
