"""Per-CPI velocity estimation by Adam ascent on the echo log-likelihood.

The position is dead-reckoned between CPIs; only the velocity is re-estimated
from the echo snapshot, by maximizing g(v) = 2 Re{y^H b(v)} - ||b(v)||^2 where
b(v) is the model echo at the trial velocity. The default optimizer alternates
axes (x step, then y step with the fresh x); a joint-update variant and a plain
gradient ascent are included for comparison.

Every entry of the steering vector a~ and of the Doppler vector
d(v) = exp(-j*rot*(g*vx + q*vy)) has unit modulus, so ||b(v)||^2 = s^2 M |w @ d|^2
and g(v) and both gradients are scalar functions of six inner products
W @ d, with W = [w, g o w, q o w, c, g o c, q o c], w = a~ o f and
c = conj(y) o a~ fixed for the CPI. One evaluation costs one exp over M and
one 6 x M product; the ascent reuses the evaluation at each new iterate for
that iteration's objective and the next iteration's gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .beamforming import predictive_beamformers
from .signals import Observation, check_unit_norm

VARIANTS = ("adam-ao", "adam-joint", "plain-gd")

# Relative-change denominators are floored here to survive v near zero.
REL_CHANGE_FLOOR = 1e-6


class DivergenceError(RuntimeError):
    """Optimizer produced a non-finite iterate or objective."""


@dataclass(frozen=True)
class AdamHyper:
    """Per-axis ascent hyperparameters and the shared stop rule."""

    step_x: float = 0.05
    step_y: float = 0.05
    beta1_x: float = 0.9
    beta1_y: float = 0.9
    beta2_x: float = 0.999
    beta2_y: float = 0.999
    epsilon: float = 1e-8
    max_iters: int = 500
    rel_tol_x: float = 1e-5
    rel_tol_y: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("step_x", "step_y"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("beta1_x", "beta1_y", "beta2_x", "beta2_y"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {val}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol_x < 0.0 or self.rel_tol_y < 0.0:
            raise ValueError("relative tolerances must be nonnegative")


@dataclass
class OptimizerTrace:
    """Iterates (k, vx, vy, objective, grad_x, grad_y); row 0 is the init."""

    rows: list[tuple[int, float, float, float, float, float]] = field(
        default_factory=list
    )

    def append(self, k, vx, vy, objective, grad_x, grad_y) -> None:
        self.rows.append(
            (int(k), float(vx), float(vy), float(objective), float(grad_x), float(grad_y))
        )

    def __len__(self) -> int:
        return len(self.rows)

    def final_velocity(self) -> np.ndarray:
        k, vx, vy, *_ = self.rows[-1]
        return np.array([vx, vy])


class _VelocityProblem:
    """Echo likelihood at one CPI with everything but the velocity frozen.

    Holds the six-row W of the module docstring; needs |a~_m| = 1.
    """

    def __init__(self, y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration, signed):
        f = np.asarray(f)
        check_unit_norm(f)
        atil = geo.steering_vector(geom, p_hat)
        g, q = geo.projection_coeffs(geom, p_hat, signed=signed)
        scale = float(s_amp * geo.pathloss(model, p_hat, geo.ROUNDTRIP))
        # phase advance per unit composite speed over the CPI
        rot = geom.wavenumber * num_symbols * symbol_duration
        # exponent of d per unit vx (row 0) and vy (row 1)
        self.exponent = -1j * rot * np.stack([g, q])
        w = atil * f
        c = np.conj(np.asarray(y)) * atil
        self.W = np.stack([w, g * w, q * w, c, g * c, q * c])
        self.scale = scale
        self.scale_m = scale * atil.shape[0]
        self.grad_scale = 2.0 * rot * scale

    def evaluate(self, vx, vy) -> tuple[float, float, float]:
        """(objective, d/dvx, d/dvy) at one trial velocity: one exp, one W @ d.

        objective = 2 Re{y^H b} - ||b||^2 = 2 s Re{af yc} - s^2 M |af|^2 with
        af = w @ d and yc = c @ d. The axis-u gradient is 2 Re{(y - b)^H db/du};
        its ||b||^2 part carries a real s^2 |af|^2 sum(u) term that drops out.
        """
        d = np.exp(np.dot((vx, vy), self.exponent))
        af, afg, afq, yc, ycg, ycq = (self.W @ d).tolist()
        s, sm, k = self.scale, self.scale_m, self.grad_scale
        objective = 2.0 * s * (af * yc).real - s * sm * (af.real**2 + af.imag**2)
        resid = yc - sm * af.conjugate()
        return objective, k * (af * ycg + afg * resid).imag, k * (af * ycq + afq * resid).imag


def _axis_index(axis) -> int:
    if axis in (0, "x"):
        return 0
    if axis in (1, "y"):
        return 1
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


def ml_objective(
    y,
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    p_hat,
    v,
    f,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
    signed: bool = False,
) -> float:
    """Echo log-likelihood (up to constants) at trial velocity v."""
    prob = _VelocityProblem(y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration, signed)
    return prob.evaluate(float(v[0]), float(v[1]))[0]


def grad_velocity(
    y,
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    p_hat,
    v,
    f,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
    axis="x",
    signed: bool = False,
) -> float:
    """Exact derivative of ml_objective along one velocity axis."""
    prob = _VelocityProblem(y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration, signed)
    return prob.evaluate(float(v[0]), float(v[1]))[1 + _axis_index(axis)]


class _AdamAxis:
    """Scalar Adam ascent state for one velocity axis."""

    def __init__(self, step, beta1, beta2, epsilon):
        self.step = step
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.m = 0.0
        self.n = 0.0
        self.t = 0

    def update(self, v, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.n = self.beta2 * self.n + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        n_hat = self.n / (1.0 - self.beta2 ** self.t)
        return v + self.step * m_hat / math.sqrt(n_hat + self.epsilon)


def _rel_change(new, old):
    return abs(new - old) / max(abs(new), REL_CHANGE_FLOOR)


def _check_finite(k, vx, vy, objective):
    if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(objective)):
        raise DivergenceError(
            f"non-finite iterate at iteration {k}: v=({vx}, {vy}), objective={objective}"
        )


def _ascend(prob: _VelocityProblem, v_init, hyper: AdamHyper, variant: str):
    """Run one variant from v_init.

    The evaluation at each new iterate gives that iteration's objective and
    the next iteration's starting gradients.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    vx, vy = float(v_init[0]), float(v_init[1])
    objective, gx, gy = prob.evaluate(vx, vy)
    trace = OptimizerTrace()
    trace.append(0, vx, vy, objective, 0.0, 0.0)
    if variant != "plain-gd":
        ax = _AdamAxis(hyper.step_x, hyper.beta1_x, hyper.beta2_x, hyper.epsilon)
        ay = _AdamAxis(hyper.step_y, hyper.beta1_y, hyper.beta2_y, hyper.epsilon)
    for k in range(1, hyper.max_iters + 1):
        if variant == "adam-ao":
            vx_new = ax.update(vx, gx)
            gy = prob.evaluate(vx_new, vy)[2]
            vy_new = ay.update(vy, gy)
        elif variant == "adam-joint":
            vx_new = ax.update(vx, gx)
            vy_new = ay.update(vy, gy)
        else:
            vx_new = vx + hyper.step_x * gx
            vy_new = vy + hyper.step_y * gy
        objective, gx_new, gy_new = prob.evaluate(vx_new, vy_new)
        _check_finite(k, vx_new, vy_new, objective)
        trace.append(k, vx_new, vy_new, objective, gx, gy)
        done = (
            _rel_change(vx_new, vx) < hyper.rel_tol_x
            and _rel_change(vy_new, vy) < hyper.rel_tol_y
        )
        vx, vy, gx, gy = vx_new, vy_new, gx_new, gy_new
        if done:
            break
    return np.array([vx, vy]), trace


def adam_ao_estimate(
    y,
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    p_hat,
    v_init,
    f,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
    hyper: AdamHyper = AdamHyper(),
    signed: bool = False,
):
    """Alternating Adam ascent: x moves first, y sees the fresh x each iteration.

    Returns (v_hat, trace). Stops at max_iters or once both axes' relative
    changes drop below their tolerances.
    """
    prob = _VelocityProblem(y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration, signed)
    return _ascend(prob, v_init, hyper, "adam-ao")


def gd_estimate(
    y,
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    p_hat,
    v_init,
    f,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
    hyper: AdamHyper = AdamHyper(),
    variant: str = "plain-gd",
    signed: bool = False,
):
    """Comparison optimizers on the same objective: plain-gd or adam-joint."""
    if variant not in ("plain-gd", "adam-joint"):
        raise ValueError(f"variant must be 'plain-gd' or 'adam-joint', got {variant!r}")
    prob = _VelocityProblem(y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration, signed)
    return _ascend(prob, v_init, hyper, variant)


def estimate_velocity(variant: str, *args, **kwargs):
    """Dispatch one of VARIANTS with the adam_ao_estimate signature."""
    if variant == "adam-ao":
        return adam_ao_estimate(*args, **kwargs)
    return gd_estimate(*args, variant=variant, **kwargs)


def agdao_track_step(
    prev_p_hat,
    prev_v_hat,
    observe,
    geom: geo.ArrayGeometry,
    model: geo.PathlossModel,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
    cpi_duration: float,
    hyper: AdamHyper = AdamHyper(),
    signed: bool = False,
):
    """One closed-loop CPI: point from the previous estimate, observe, re-estimate.

    observe maps the transmitted BeamformerSet to this CPI's Observation.
    Returns (beamformers, p_hat, v_hat, trace); p_hat is the dead-reckoned
    position also used to point the beam.
    """
    prev_p_hat = np.asarray(prev_p_hat, dtype=float)
    prev_v_hat = np.asarray(prev_v_hat, dtype=float)
    p_pred = prev_p_hat + cpi_duration * prev_v_hat
    bf = predictive_beamformers(
        geom, p_pred, prev_v_hat, num_symbols, symbol_duration, signed=signed
    )
    obs = observe(bf)
    if not isinstance(obs, Observation):
        raise TypeError(f"observe must return an Observation, got {type(obs)!r}")
    v_hat, trace = adam_ao_estimate(
        obs.y, geom, model, p_pred, prev_v_hat, bf[-1], s_amp,
        num_symbols, symbol_duration, hyper=hyper, signed=signed,
    )
    return bf, p_pred, v_hat, trace
