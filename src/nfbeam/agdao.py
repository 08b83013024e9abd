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
one 6 x M product, both written into buffers the problem owns; the ascent
reuses the evaluation at each new iterate for that iteration's objective and
the next iteration's gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .beamforming import predictive_beamformers
from .config import AdamHyper
from .signals import check_unit_norm

VARIANTS = ("adam-ao", "adam-joint", "plain-gd")

# Relative-change denominators are floored here to survive v near zero.
REL_CHANGE_FLOOR = 1e-6


class DivergenceError(RuntimeError):
    """Optimizer produced a non-finite iterate or objective."""


@dataclass
class OptimizerTrace:
    """Iterates (k, vx, vy, objective, grad_x, grad_y); row 0 is the init.

    len() counts the iterates. With record=False only that count is kept and
    rows stays empty, as in tracking, which reads the final velocity alone.
    """

    rows: list[tuple[int, float, float, float, float, float]] = field(
        default_factory=list
    )
    record: bool = True
    count: int = field(default=0, init=False)

    def __len__(self) -> int:
        return self.count


class VelocityProblem:
    """Echo likelihood at one CPI with everything but the velocity frozen.

    Holds the six-row W of the module docstring; needs |a~_m| = 1. p_hat may
    be its geo.NearField snapshot.
    """

    def __init__(self, y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration):
        f = np.asarray(f)
        check_unit_norm(f)
        nf = geo.near_field(geom, p_hat)
        atil, g, q = nf.steering, nf.g, nf.q
        scale = float(s_amp * geo.pathloss(model, nf.position, geo.ROUNDTRIP))
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
        # evaluation buffers: the trial velocity, d(v) and W @ d(v); the
        # velocity is held complex, the exponent's type, so np.dot casts nothing
        self._v = np.empty(2, dtype=complex)
        self._d = np.empty(atil.shape[0], dtype=complex)
        self._r = np.empty(6, dtype=complex)

    def evaluate(self, vx, vy) -> tuple[float, float, float]:
        """(objective, d/dvx, d/dvy) at one trial velocity: one exp, one W @ d.

        objective = 2 Re{y^H b} - ||b||^2 = 2 s Re{af yc} - s^2 M |af|^2 with
        af = w @ d and yc = c @ d. The axis-u gradient is 2 Re{(y - b)^H db/du};
        its ||b||^2 part carries a real s^2 |af|^2 sum(u) term that drops out.
        """
        v, d = self._v, self._d
        v[0] = vx
        v[1] = vy
        np.dot(v, self.exponent, out=d)
        np.exp(d, out=d)
        af, afg, afq, yc, ycg, ycq = np.matmul(self.W, d, out=self._r).tolist()
        s, sm, k = self.scale, self.scale_m, self.grad_scale
        objective = 2.0 * s * (af * yc).real - s * sm * (af.real**2 + af.imag**2)
        resid = yc - sm * af.conjugate()
        return objective, k * (af * ycg + afg * resid).imag, k * (af * ycq + afq * resid).imag


def _check_finite(k, vx, vy, objective):
    if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(objective)):
        raise DivergenceError(
            f"non-finite iterate at iteration {k}: v=({vx}, {vy}), objective={objective}"
        )


def _ascend(prob: VelocityProblem, v_init, hyper: AdamHyper, variant: str, record: bool = True):
    """Run one variant from v_init; record=False keeps only the iterate count.

    The evaluation at each new iterate gives that iteration's objective and
    the next iteration's starting gradients. Each axis keeps its Adam moments
    (m, n) as plain floats, bias-corrected at iteration k by 1 - beta**k.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    evaluate = prob.evaluate
    adam, alternating = variant != "plain-gd", variant == "adam-ao"
    step_x, beta1_x, beta2_x = hyper.step_x, hyper.beta1_x, hyper.beta2_x
    step_y, beta1_y, beta2_y = hyper.step_y, hyper.beta1_y, hyper.beta2_y
    eps, tol_x, tol_y, floor = hyper.epsilon, hyper.rel_tol_x, hyper.rel_tol_y, REL_CHANGE_FLOOR
    vx, vy = float(v_init[0]), float(v_init[1])
    objective, gx, gy = evaluate(vx, vy)
    trace = OptimizerTrace(record=record)
    rows = trace.rows
    if record:
        rows.append((0, vx, vy, objective, 0.0, 0.0))
    mx = nx = my = ny = 0.0
    for k in range(1, hyper.max_iters + 1):
        if adam:
            mx = beta1_x * mx + (1.0 - beta1_x) * gx
            nx = beta2_x * nx + (1.0 - beta2_x) * gx * gx
            m_hat = mx / (1.0 - beta1_x ** k)
            n_hat = nx / (1.0 - beta2_x ** k)
            vx_new = vx + step_x * m_hat / math.sqrt(n_hat + eps)
            if alternating:
                gy = evaluate(vx_new, vy)[2]
            my = beta1_y * my + (1.0 - beta1_y) * gy
            ny = beta2_y * ny + (1.0 - beta2_y) * gy * gy
            m_hat = my / (1.0 - beta1_y ** k)
            n_hat = ny / (1.0 - beta2_y ** k)
            vy_new = vy + step_y * m_hat / math.sqrt(n_hat + eps)
        else:
            vx_new = vx + step_x * gx
            vy_new = vy + step_y * gy
        objective, gx_new, gy_new = evaluate(vx_new, vy_new)
        _check_finite(k, vx_new, vy_new, objective)
        if record:
            rows.append((k, vx_new, vy_new, objective, gx, gy))
        done = (
            abs(vx_new - vx) / max(abs(vx_new), floor) < tol_x
            and abs(vy_new - vy) / max(abs(vy_new), floor) < tol_y
        )
        vx, vy, gx, gy = vx_new, vy_new, gx_new, gy_new
        if done:
            break
    trace.count = k + 1
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
    record: bool = True,
):
    """Alternating Adam ascent: x moves first, y sees the fresh x each iteration.

    Returns (v_hat, trace). Stops at max_iters or once both axes' relative
    changes drop below their tolerances. record=False leaves the trace's
    rows empty and keeps only its length.
    """
    prob = VelocityProblem(y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration)
    return _ascend(prob, v_init, hyper, "adam-ao", record)


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
):
    """Comparison optimizers on the same objective: plain-gd or adam-joint."""
    if variant not in ("plain-gd", "adam-joint"):
        raise ValueError(f"variant must be 'plain-gd' or 'adam-joint', got {variant!r}")
    prob = VelocityProblem(y, geom, model, p_hat, f, s_amp, num_symbols, symbol_duration)
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
):
    """One closed-loop CPI: point from the previous estimate, observe, re-estimate.

    observe maps the transmitted beamformers to this CPI's echo snapshot, shape (M,).
    Returns (beamformers, p_hat, v_hat, trace); p_hat is the dead-reckoned
    position also used to point the beam, and one near-field snapshot of it
    serves both. The trace keeps its length (iterations + 1) but no rows.
    """
    prev_p_hat = np.asarray(prev_p_hat, dtype=float)
    prev_v_hat = np.asarray(prev_v_hat, dtype=float)
    p_pred = prev_p_hat + cpi_duration * prev_v_hat
    near = geo.NearField(geom, p_pred)
    bf = predictive_beamformers(geom, near, prev_v_hat, num_symbols, symbol_duration)
    v_hat, trace = adam_ao_estimate(
        observe(bf), geom, model, near, prev_v_hat, bf[-1], s_amp,
        num_symbols, symbol_duration, hyper=hyper, record=False,
    )
    return bf, p_pred, v_hat, trace
