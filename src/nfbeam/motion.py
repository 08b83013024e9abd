"""Constant-velocity motion with per-interval velocity perturbations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MotionState:
    """Planar kinematic state eta = [x, y, vx, vy]."""

    x: float
    y: float
    vx: float
    vy: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.vx, self.vy])

    @classmethod
    def from_array(cls, eta) -> "MotionState":
        eta = np.asarray(eta, dtype=float)
        if eta.shape != (4,):
            raise ValueError(f"state must have shape (4,), got {eta.shape}")
        return cls(float(eta[0]), float(eta[1]), float(eta[2]), float(eta[3]))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.vx, self.vy])


@dataclass(frozen=True)
class StateBatch:
    """Motion states stacked on leading axes: position and velocity of shape (..., 2).

    Stands in for a MotionState where only .position and .velocity are read,
    so the beamformers and cpi_throughput handle a whole batch in one call.
    The position may instead be the geometry.NearField snapshot of the
    positions, which indexing slices along with the velocity.
    """

    position: np.ndarray
    velocity: np.ndarray

    @classmethod
    def stack(cls, states: list[MotionState]) -> "StateBatch":
        eta = np.array([s.as_array() for s in states])
        return cls(eta[:, :2], eta[:, 2:])

    def __getitem__(self, index) -> "StateBatch":
        return StateBatch(self.position[index], self.velocity[index])


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


def kinematic_forecast(eta: MotionState, dt: float) -> MotionState:
    """Noise-free propagation: position moves with the current velocity."""
    return MotionState(eta.x + dt * eta.vx, eta.y + dt * eta.vy, eta.vx, eta.vy)


def generate_trajectory(
    eta0: MotionState,
    noise: MotionNoise,
    dt: float,
    num_cpis: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """[x, y, vx, vy] for CPIs 1..num_cpis, shape (num_cpis, 4); row 0 is eta0.

    Each interval moves with the pre-step velocity, then perturbs the
    velocity; the x kick is drawn before the y kick.
    """
    if num_cpis < 1:
        raise ValueError(f"num_cpis must be >= 1, got {num_cpis}")
    sd_x, sd_y = math.sqrt(noise.var_vx), math.sqrt(noise.var_vy)
    x, y, vx, vy = eta0.x, eta0.y, eta0.vx, eta0.vy
    traj = np.empty((num_cpis, 4))
    traj[0] = x, y, vx, vy
    for row in traj[1:]:
        x += dt * vx
        vx += rng.normal(0.0, sd_x)
        y += dt * vy
        vy += rng.normal(0.0, sd_y)
        row[:] = x, y, vx, vy
    return traj
