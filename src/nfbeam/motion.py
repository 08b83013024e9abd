"""Constant-velocity motion with per-interval velocity perturbations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MotionNoise:
    """Variances of the independent per-interval velocity kicks."""

    var_vx: float = 0.01
    var_vy: float = 0.01

    def __post_init__(self) -> None:
        if self.var_vx < 0.0 or self.var_vy < 0.0:
            raise ValueError(
                f"velocity variances must be nonnegative, got ({self.var_vx}, {self.var_vy})"
            )

    def covariance(self) -> np.ndarray:
        """Process-noise covariance for [x, y, vx, vy] over one interval."""
        return np.diag([0.0, 0.0, self.var_vx, self.var_vy])


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
    noise: MotionNoise,
    dt: float,
    num_cpis: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """[x, y, vx, vy] for CPIs 1..num_cpis, shape (num_cpis, 4); row 0 is eta0,
    the initial [x, y, vx, vy].

    Each interval moves with the pre-step velocity, then perturbs the
    velocity; the x kick is drawn before the y kick.
    """
    if num_cpis < 1:
        raise ValueError(f"num_cpis must be >= 1, got {num_cpis}")
    sd_x, sd_y = math.sqrt(noise.var_vx), math.sqrt(noise.var_vy)
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
