"""Extended Kalman tracking of position and velocity from echo snapshots.

The complex observation is treated as 2M stacked real measurements with
covariance (sigma_e^2 / 2) I. That update is evaluated exactly through the
low-rank identity: with G = Re(J^H J), u = Re(J^H nu), r = sigma_e^2 / 2,

    delta  = P (G P + r I)^(-1) u
    P_post = P - P (G P + r I)^(-1) G P

which costs one 4x4 solve per CPI instead of factorizing a 2M x 2M innovation
covariance. Tests pin it against the dense textbook form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .beamforming import predictive_beamformers
from .motion import (
    MotionNoise,
    MotionState,
    StateBatch,
    kinematic_forecast,
    transition_matrix,
)
from .signals import check_unit_norm, observation_mean

SYMMETRY_TOL = 1e-10
PSD_TOL_FACTOR = 1e-9
# Absolute slack on the PSD bound; covers pure round-off when Q = R = 0
# collapses P to machine-epsilon scale.
PSD_TOL_FLOOR = 1e-15
RIDGE_FACTOR = 1e-12


class FilterHealthError(RuntimeError):
    """Covariance left its symmetric/PSD envelope."""


@dataclass
class TrackerBelief:
    """Gaussian belief over the kinematic state."""

    mean: MotionState
    covariance: np.ndarray

    def validate(self) -> None:
        m = self.mean
        if not all(map(math.isfinite, (m.x, m.y, m.vx, m.vy))):
            raise FilterHealthError(f"non-finite mean {m}")
        p = np.asarray(self.covariance)
        if p.shape != (4, 4):
            raise ValueError(f"covariance must be 4x4, got {p.shape}")
        # a non-finite entry makes sym_err NaN or inf, which fails here
        sym_err = float(np.max(np.abs(p - p.T)))
        if not sym_err <= SYMMETRY_TOL:
            raise FilterHealthError(f"covariance asymmetry {sym_err:.3e} not within {SYMMETRY_TOL}")
        try:
            eigs = np.linalg.eigvalsh(0.5 * (p + p.T))
        except np.linalg.LinAlgError as exc:
            raise FilterHealthError(f"covariance eigenvalues failed: {exc}") from exc
        bound = -(PSD_TOL_FACTOR * max(float(np.trace(p)), 0.0) + PSD_TOL_FLOOR)
        if float(eigs[0]) < bound:
            raise FilterHealthError(f"covariance eigenvalue {eigs[0]:.3e} below {bound:.3e}")


@dataclass(frozen=True)
class UpdateDiagnostics:
    """Per-update health readouts."""

    innovation_norm: float
    ridged: bool = False


def ekf_forecast(belief: TrackerBelief, dt: float, noise: MotionNoise) -> TrackerBelief:
    """Constant-velocity prediction of mean and covariance over one CPI."""
    f = transition_matrix(dt)
    mean = kinematic_forecast(belief.mean, dt)
    cov = f @ belief.covariance @ f.T + noise.covariance()
    return TrackerBelief(mean=mean, covariance=cov)


def observation_jacobian(
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    eta: MotionState | StateBatch,
    f: np.ndarray,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
) -> np.ndarray:
    """Derivative of the noise-free echo w.r.t. [x, y, vx, vy], shape (M, 4).

    eta.position may be its geo.NearField snapshot; the array response is the
    one observation_mean builds.
    """
    f = np.asarray(f)
    nf = geo.near_field(geom, eta.position)
    p, r, ux, uy, g, q = nf.position, nf.r, nf.ux, nf.uy, nf.g, nf.q
    v = eta.velocity
    kappa = geom.wavenumber
    dtt = num_symbols * symbol_duration

    a = geo.array_response(geom, num_symbols, symbol_duration, v, nf)
    af = a @ f
    core = a * af

    alpha2 = geo.pathloss(model, p, geo.ROUNDTRIP)
    da2_dx, da2_dy = geo.pathloss_gradient(model, p)
    dg_dx, dq_dx, dg_dy, dq_dy = geo.projection_coeff_gradients(geom, nf)

    # da/dx = -j*kappa*a*(dtt * d(v_m)/dx + dr/dx); likewise for y
    da_dx = -1j * kappa * a * (dtt * (v[0] * dg_dx + v[1] * dq_dx) + ux / r)
    da_dy = -1j * kappa * a * (dtt * (v[0] * dg_dy + v[1] * dq_dy) + uy / r)
    col_x = s_amp * (da2_dx * core + alpha2 * (da_dx * af + a * (da_dx @ f)))
    col_y = s_amp * (da2_dy * core + alpha2 * (da_dy * af + a * (da_dy @ f)))

    fac = -1j * kappa * dtt * alpha2 * s_amp
    ga = g * a
    qa = q * a
    col_vx = fac * (ga * af + a * (ga @ f))
    col_vy = fac * (qa * af + a * (qa @ f))
    return np.column_stack([col_x, col_y, col_vx, col_vy])


def kalman_update(
    prior: TrackerBelief,
    y: np.ndarray,
    jacobian: np.ndarray,
    predicted_mean: np.ndarray,
    echo_noise_power: float,
):
    """Assimilate one echo snapshot; returns (posterior, UpdateDiagnostics)."""
    if echo_noise_power < 0.0:
        raise ValueError(f"echo_noise_power must be nonnegative, got {echo_noise_power}")
    nu = np.asarray(y) - np.asarray(predicted_mean)
    jh = np.conj(jacobian).T
    u = np.real(jh @ nu)
    gram = np.real(jh @ jacobian)
    p = np.asarray(prior.covariance, dtype=float)
    r = echo_noise_power / 2.0

    a = gram @ p + r * np.eye(4)
    rhs = np.concatenate([u[:, None], np.eye(4)], axis=1)
    ridged = False
    if not np.any(a):
        # no sensitivity and no noise: nothing to assimilate
        posterior = TrackerBelief(mean=prior.mean, covariance=p.copy())
        posterior.validate()
        return posterior, UpdateDiagnostics(float(np.linalg.norm(nu)), False)
    try:
        x = np.linalg.solve(a, rhs)
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("non-finite solve result")
    except np.linalg.LinAlgError:
        ridged = True
        a = a + RIDGE_FACTOR * float(np.trace(a)) * np.eye(4)
        x = np.linalg.solve(a, rhs)

    delta = p @ x[:, 0]
    c = p @ x[:, 1:]                 # K_r J_r^T-free factor: P (G P + r I)^-1
    gain_jac = c @ gram              # K_r J_r
    mean = MotionState.from_array(prior.mean.as_array() + delta)
    # Joseph form, contracted to 4x4: PSD by construction even when the
    # plain (I - K J) P form cancels catastrophically (r -> 0 collapse).
    imb = np.eye(4) - gain_jac
    cov = imb @ p @ imb.T + r * (c @ gram @ c.T)
    cov = 0.5 * (cov + cov.T)
    posterior = TrackerBelief(mean=mean, covariance=cov)
    posterior.validate()
    return posterior, UpdateDiagnostics(float(np.linalg.norm(nu)), ridged)


def ekf_track_step(
    belief: TrackerBelief,
    observe,
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    process_noise: MotionNoise,
    echo_noise_power: float,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
    cpi_duration: float,
):
    """One closed-loop CPI: forecast, point from the forecast, observe, assimilate.

    observe maps the transmitted beamformers to this CPI's echo snapshot, shape (M,).
    Returns (beamformers, posterior, diagnostics). One near-field snapshot at
    the prior mean serves the beam, the echo mean and the Jacobian.
    """
    prior = ekf_forecast(belief, cpi_duration, process_noise)
    at = StateBatch(geo.NearField(geom, prior.mean.position), prior.mean.velocity)
    bf = predictive_beamformers(geom, at.position, at.velocity, num_symbols, symbol_duration)
    y = observe(bf)
    f_last = bf[-1]
    check_unit_norm(f_last)
    h_bar = observation_mean(geom, model, at, f_last, s_amp, num_symbols, symbol_duration)
    jac = observation_jacobian(geom, model, at, f_last, s_amp, num_symbols, symbol_duration)
    posterior, diag = kalman_update(prior, y, jac, h_bar, echo_noise_power)
    return bf, posterior, diag
