"""Constant-velocity motion with per-interval velocity perturbations."""
from __future__ import annotations

import math

import numpy as np


def transition_matrix(dt: float) -> np.ndarray:
    """Constant-velocity transition for [x, y, vx, vy]."""
    f = np.eye(4)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def kinematic_forecast(eta, dt: float) -> np.ndarray:
    """Noise-free propagation of [x, y, vx, vy] into a new array: position
    moves with the current velocity. eta itself is not written."""
    out = np.array(eta, dtype=float)
    out[:2] += dt * out[2:]
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
    the x kick is drawn before the y kick.
    """
    if num_cpis < 1:
        raise ValueError(f"num_cpis must be >= 1, got {num_cpis}")
    sd_x, sd_y = map(math.sqrt, motion_var)
    x, y, vx, vy = map(float, eta0)
    traj = np.empty((num_cpis, 4))
    traj[0] = x, y, vx, vy
    for row in traj[1:]:
        x += dt * vx
        vx += rng.normal(0.0, sd_x)
        y += dt * vy
        vy += rng.normal(0.0, sd_y)
        row[:] = x, y, vx, vy
    return traj
