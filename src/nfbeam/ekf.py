"""Extended Kalman tracking of position and velocity from echo snapshots.

The complex observation is treated as 2M stacked real measurements with
covariance (sigma_e^2 / 2) I. That update is evaluated exactly through the
low-rank identity: with G = Re(J^H J), u = Re(J^H nu), r = sigma_e^2 / 2,

    delta  = P (G P + r I)^(-1) u
    P_post = P - P (G P + r I)^(-1) G P = r P (G P + r I)^(-1)

which costs one 4x4 solve per CPI instead of factorizing a 2M x 2M innovation
covariance; load_update holds it for any state size, and AGD-AO's MAP step
iterates it on the velocity. Tests pin it against the dense form. The Jacobian
comes factored, J = a[:, None] * Z.T, with a the array response and Z (4, M);
as |a_m| = 1, G = Zv Zv^T and u = Zv (conj(a) nu).view(float) for the real
view Zv = Z.view(float), (4, 2M): one real product, no (M, 4) complex J.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .beamforming import predictive_beamformers
from .config import SystemConfig
from .motion import kinematic_forecast, transition_matrix
from .signals import observation_mean

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
    """Gaussian belief over the kinematic state: mean [x, y, vx, vy], shape (4,)."""

    mean: np.ndarray
    covariance: np.ndarray

    def validate(self) -> None:
        m = np.asarray(self.mean)
        if m.shape != (4,):
            raise ValueError(f"mean must have shape (4,), got {m.shape}")
        if not np.isfinite(m).all():
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


@functools.lru_cache(maxsize=8)
def _forecast_model(dt: float, motion_var: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """Transition and process-noise matrices (F, Q) of one CPI, read-only."""
    f, q = transition_matrix(dt), np.diag([0.0, 0.0, *motion_var])
    f.flags.writeable = q.flags.writeable = False
    return f, q


def ekf_forecast(
    belief: TrackerBelief, dt: float, motion_var: tuple[float, float]
) -> TrackerBelief:
    """Constant-velocity prediction of mean and covariance over one CPI, with
    velocity kicks of variances motion_var = (var_vx, var_vy)."""
    f, q = _forecast_model(dt, motion_var)
    mean = kinematic_forecast(belief.mean, dt)
    cov = f @ belief.covariance @ f.T + q
    return TrackerBelief(mean=mean, covariance=cov)


@dataclass(frozen=True)
class FactoredJacobian:
    """J = response[:, None] * sensitivity.T: the unit-modulus response a, (M,),
    and a C-contiguous Z, (k, M), one row per state coordinate. np.asarray
    gives the dense (M, k) J."""

    response: np.ndarray
    sensitivity: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.response[:, None] * self.sensitivity.T, dtype=dtype)

    def gram_and_score(self, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G = Re(J^H J) and u = Re(J^H nu): Z's float view times [Z; conj(a) nu]'s."""
        z = self.sensitivity
        k = z.shape[0]
        rows = np.empty((k + 1, z.shape[1]), complex)
        rows[:k] = z
        np.multiply(np.conj(self.response), nu, out=rows[k])
        prod = z.view(float) @ rows.view(float).T
        return prod[:, :k], prod[:, k]


def _jacobian(nf: geo.NearField, v, f: np.ndarray, position: bool) -> FactoredJacobian:
    """observation_jacobian's rows for [x, y, vx, vy], or for [vx, vy] alone.

    The velocity rows leave the position rows of phi zero: the sums phi @ w
    are one 4-row product either way, so both give them bit for bit. The position
    rows refuse a snapshot of several positions (ValueError) and, under the
    magnitude convention, one within KINK_TOL of a kink (ProjectionKinkError).
    """
    system = nf.system
    dtt = system.cpi_duration_s
    s_amp = math.sqrt(system.tx_power_w)
    a = geo.array_response(system.symbols_per_cpi, v, nf)
    af = a @ f

    # da/d(state_k) = -j*kappa*a*phi_k: phi_x = dtt * d(v_m)/dx + dr/dx (likewise
    # y), phi_vx = dtt * g and phi_vy = dtt * q
    phi = np.zeros((4, system.num_antennas))
    if position:
        p, ux, uy, r = nf.position, nf.ux, nf.uy, nf.r
        if p.shape != (2,):
            raise ValueError(f"position must have shape (2,), got {p.shape}")
        # (g, q) = (sx * ux, sy * uy) / r with s = 1 if signed, else sx = sign(ux), sy = sign(y):
        # phi_x = dtt * uy * cross / r^3 + ux / r, phi_y = uy / r - dtt * ux * cross / r^3
        # with cross = sx * vx * uy - sy * vy * ux
        if system.signed_projection:
            cross = v[0] * uy - v[1] * ux
        else:
            if np.min(np.abs(ux)) < geo.KINK_TOL:
                raise geo.ProjectionKinkError(
                    f"x = {p[0]} is within {geo.KINK_TOL} m of an antenna; the magnitude "
                    "projection has no derivative there (set system.signed_projection=true)"
                )
            if abs(p[1]) < geo.KINK_TOL:
                raise geo.ProjectionKinkError(
                    f"y = {p[1]} is within {geo.KINK_TOL} m of the array plane; the "
                    "magnitude projection has no derivative there"
                )
            cross = np.sign(ux) * (v[0] * uy) - (np.sign(p[1]) * v[1]) * ux
        cross *= dtt / (r * r * r)
        phi[0] = ux / r + uy * cross
        phi[1] = uy / r - ux * cross
    np.multiply(dtt, nf.g, out=phi[2])
    np.multiply(dtt, nf.q, out=phi[3])
    # J[:, k] = a * (A_k + B * phi_k); the sums phi_k @ (a f) are one real product
    c = -1j * system.wavenumber * nf.alpha2 * s_amp
    w = (a * f).view(float).reshape(-1, 2)
    big_a = c * (phi @ w).view(complex)
    if position:
        # d(alpha2)/dp = -2 * alpha2 * p / |p|^2
        big_a[:2, 0] += (-2.0 * s_amp * nf.alpha2 / (p @ p) * af) * p
    rows = slice(0 if position else 2, 4)
    z = np.multiply(phi[rows], c * af)
    z += big_a[rows]
    return FactoredJacobian(a, z)


def observation_jacobian(nf: geo.NearField, v, f: np.ndarray) -> FactoredJacobian:
    """Derivative of the noise-free echo w.r.t. [x, y, vx, vy] at the snapshot's
    position and velocity v, factored; np.asarray of the result is the dense
    (M, 4) J. The array response is the one observation_mean builds.
    """
    return _jacobian(nf, v, f, position=True)


def velocity_jacobian(nf: geo.NearField, v, f: np.ndarray) -> FactoredJacobian:
    """observation_jacobian's velocity rows, Z (2, M), bit for bit; it forms no
    position derivative, so no projection kink can stop it."""
    return _jacobian(nf, v, f, position=False)


def load_update(p: np.ndarray, gram: np.ndarray, u: np.ndarray, r: float):
    """The load form's update of a k-state prior P, k from u: (delta, P+, ridge).

    delta = P (G P + load I)^-1 u and P+ = load P (G P + load I)^-1, symmetrized,
    with load = r + ridge; ridge is 0.0 unless G P + r I is singular or its
    solve is not finite, then RIDGE_FACTOR * trace(G P + r I). None when
    G P + r I is zero: no sensitivity and no noise, nothing to assimilate.
    """
    eye = np.eye(len(u))
    a = gram @ p + r * eye
    if not a.any():
        return None
    # columns: u, then I, whose solve gives P+ / load
    rhs = np.empty((len(u), len(u) + 1))
    rhs[:, 0], rhs[:, 1:] = u, eye
    ridge = 0.0
    try:
        x = np.linalg.solve(a, rhs)
        finite = np.isfinite(x).all()
    except np.linalg.LinAlgError:
        finite = False
    if not finite:
        ridge = RIDGE_FACTOR * float(np.trace(a))
        x = np.linalg.solve(a + ridge * eye, rhs)
    # P - c G P = c (G P + load I - G P) = load c with c = P (G P + load I)^-1:
    # no difference to cancel, and exactly 0 at r = 0 without a ridge
    cov = (r + ridge) * (p @ x[:, 1:])
    return p @ x[:, 0], 0.5 * (cov + cov.T), ridge


def kalman_update(
    prior: TrackerBelief,
    y: np.ndarray,
    jacobian: FactoredJacobian,
    predicted_mean: np.ndarray,
    echo_noise_power: float,
):
    """Assimilate one echo snapshot by load_update; returns (posterior, UpdateDiagnostics)."""
    if echo_noise_power < 0.0:
        raise ValueError(f"echo_noise_power must be nonnegative, got {echo_noise_power}")
    # the posterior's mean is prior.mean + delta, which would broadcast any other shape
    if np.shape(prior.mean) != (4,):
        raise ValueError(f"prior mean must have shape (4,), got {np.shape(prior.mean)}")
    nu = np.asarray(y) - np.asarray(predicted_mean)
    gram, u = jacobian.gram_and_score(nu)
    p = np.asarray(prior.covariance, dtype=float)
    update = load_update(p, gram, u, echo_noise_power / 2.0)
    if update is None:
        posterior, ridge = TrackerBelief(mean=prior.mean.copy(), covariance=p.copy()), 0.0
    else:
        delta, cov, ridge = update
        posterior = TrackerBelief(mean=prior.mean + delta, covariance=cov)
    posterior.validate()
    return posterior, UpdateDiagnostics(float(np.linalg.norm(nu)), ridge > 0.0)


def ekf_track_step(
    belief: TrackerBelief,
    observe,
    system: SystemConfig,
    motion_var: tuple[float, float],
):
    """One closed-loop CPI: forecast, point from the forecast, observe, assimilate.

    observe maps the transmitted beamformers to this CPI's echo snapshot, shape (M,).
    Returns (beamformers, posterior, diagnostics). One near-field snapshot at
    the prior mean serves the beam, the echo mean and the Jacobian (one array
    response for both); observe checks the beam's norm, as synthesize_observation does.
    """
    prior = ekf_forecast(belief, system.cpi_duration_s, motion_var)
    nf, v = geo.NearField(system, prior.mean[:2]), prior.mean[2:]
    bf = predictive_beamformers(nf, v)
    y = observe(bf)
    f_last = bf[-1]
    h_bar = observation_mean(nf, v, f_last)
    jac = observation_jacobian(nf, v, f_last)
    posterior, diag = kalman_update(prior, y, jac, h_bar, system.echo_noise_power)
    return bf, posterior, diag
