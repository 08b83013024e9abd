"""Per-CPI velocity estimation: a MAP step for the closed loop, Adam for converge.

The position is dead-reckoned between CPIs; only the velocity is re-estimated
from the echo snapshot. The closed loop (agdao_track_step) takes its MAP estimate
under the prior N(v_prev, P-) carried from the last CPI: map_velocity relinearizes
the EKF's measurement model (ekf.velocity_jacobian) and iterates ekf.load_update,
the velocity-only iterated EKF update. Beside the estimate, each estimator
returns its iterates as a plain array: the ascent its (k, vx, vy, objective,
grad_x, grad_y) table, the MAP step its Gauss-Newton path and P+.

The convergence study maximizes g(v) = 2 Re{y^H b(v)} - ||b(v)||^2, where
b(v) is the model echo at the trial velocity, by Adam ascent along the line of
sight's transverse and radial axes, t = (-u_y, u_x) and r = u with u = p/|p|,
where the likelihood's ridge lies. The default optimizer alternates axes
(t step, then r step with the fresh t); a joint-update variant and a plain
gradient ascent are included for comparison.

Every entry of the steering vector a~ and of the Doppler vector
d(v) = exp(-j*rot*(g*vx + q*vy)) has unit modulus, so ||b(v)||^2 = s^2 M |w @ d|^2
and g(v) and both gradients are scalar functions of six inner products
W @ d, with W = [w, g o w, q o w, c, g o c, q o c], w = a~ o f and
c = conj(y) o a~ fixed for the CPI. One evaluation costs one cos and one sin
over M and one 6 x M product, all written into buffers the problem owns; the
ascent reuses the evaluation at each new iterate for that iteration's objective
and the next iteration's gradients. The alternating variant's mid-iteration
radial gradient reads four of the six sums and takes one 4 x M product.
"""
from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .beamforming import predictive_beamformers
from .config import AdamHyper, SystemConfig
from .ekf import load_update, velocity_jacobian
from .motion import kinematic_forecast
from .signals import check_unit_norm, observation_mean

VARIANTS = ("adam-ao", "adam-joint", "plain-gd")

# Relative-change denominators are floored here to survive v near zero.
REL_CHANGE_FLOOR = 1e-6

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


class DivergenceError(RuntimeError):
    """Optimizer produced a non-finite iterate or objective."""


class VelocityProblem:
    """Echo likelihood at one CPI with everything but the velocity frozen.

    Holds the six-row W of the module docstring, from the snapshot nf at the
    position estimate; needs |a~_m| = 1. With frame, the rows of a rotation,
    evaluate works in frame coordinates, else in (vx, vy).
    """

    def __init__(self, y, nf, f, frame=None):
        f = np.asarray(f)
        check_unit_norm(f)
        atil, g, q = nf.steering, nf.g, nf.q
        if frame is None:
            frame = IDENTITY
        else:
            (tx, ty), (rx, ry) = frame
            g, q = tx * g + ty * q, rx * g + ry * q
        self.frame = frame
        system = nf.system
        s_amp = math.sqrt(system.tx_power_w)
        scale = float(s_amp * nf.alpha2)
        # phase advance per unit composite speed over the CPI
        rot = system.wavenumber * system.symbols_per_cpi * system.symbol_duration_s
        # exponent of d per unit speed along the frame's first and second axis
        self.exponent = -1j * rot * np.stack([g, q])
        w = atil * f
        c = np.conj(np.asarray(y)) * atil
        self.W = np.stack([w, g * w, q * w, c, g * c, q * c])
        # the rows w, q o w, c, q o c that the second-axis gradient reads alone
        self._W_second = self.W[[0, 2, 3, 5]]
        self.scale = scale
        self.scale_m = scale * atil.shape[0]
        self.grad_scale = 2.0 * rot * scale
        # evaluation buffers: the trial velocity, d(v) and its real and
        # imaginary views, W @ d(v) and its four rows; the velocity is held
        # complex, the exponent's type, so np.dot casts nothing
        self._v = np.empty(2, dtype=complex)
        self._d = np.empty(atil.shape[0], dtype=complex)
        self._d_re, self._d_im = self._d.real, self._d.imag
        self._r = np.empty(6, dtype=complex)
        self._r_second = np.empty(4, dtype=complex)

    def _doppler(self, vx, vy):
        """d(v) at one trial velocity, written into the problem's buffer.

        v @ exponent is purely imaginary (its real part is +-0), so exp of it
        is cos + j sin of its imaginary part; as in geo.unit_phasor, this equals
        the complex exp bit for bit where sin and cos round as glibc's sincos.
        """
        v, d, im = self._v, self._d, self._d_im
        v[0] = vx
        v[1] = vy
        np.dot(v, self.exponent, out=d)
        np.cos(im, out=self._d_re)
        np.sin(im, out=im)
        return d

    def evaluate(self, vx, vy) -> tuple[float, float, float]:
        """(objective, d/dvx, d/dvy) at one trial velocity: one d(v), one W @ d.

        objective = 2 Re{y^H b} - ||b||^2 = 2 s Re{af yc} - s^2 M |af|^2 with
        af = w @ d and yc = c @ d. The axis-u gradient is 2 Re{(y - b)^H db/du};
        its ||b||^2 part carries a real s^2 |af|^2 sum(u) term that drops out.
        """
        d = self._doppler(vx, vy)
        af, afg, afq, yc, ycg, ycq = np.matmul(self.W, d, out=self._r).tolist()
        s, sm, k = self.scale, self.scale_m, self.grad_scale
        objective = 2.0 * s * (af * yc).real - s * sm * (af.real**2 + af.imag**2)
        resid = yc - sm * af.conjugate()
        return objective, k * (af * ycg + afg * resid).imag, k * (af * ycq + afq * resid).imag

    def second_gradient(self, vx, vy) -> float:
        """evaluate(vx, vy)[2] from the four products it reads: one 4 x M product."""
        d = self._doppler(vx, vy)
        af, afq, yc, ycq = np.matmul(self._W_second, d, out=self._r_second).tolist()
        resid = yc - self.scale_m * af.conjugate()
        return self.grad_scale * (af * ycq + afq * resid).imag


def _check_finite(k, t, r, objective, to_xy):
    """Raise on a non-finite frame iterate (t, r) or objective, naming (vx, vy)."""
    if not (math.isfinite(t) and math.isfinite(r) and math.isfinite(objective)):
        vx, vy = to_xy(t, r)
        raise DivergenceError(
            f"non-finite iterate at iteration {k}: v=({vx}, {vy}), objective={objective}"
        )


def line_of_sight_frame(position):
    """Rows (t, r) of the rotation onto the transverse and radial axes at position."""
    px, py = np.asarray(position, dtype=float).tolist()
    norm = math.hypot(px, py)
    ux, uy = px / norm, py / norm
    return (-uy, ux), (ux, uy)


def _settled(tol, dx, dy, x, y):
    """The stop rule: |(dx, dy)| < tol * |(x, y)|, |(x, y)| floored; never at tol = 0."""
    return tol and math.hypot(dx, dy) < tol * max(math.hypot(x, y), REL_CHANGE_FLOOR)


def _ascend(prob: VelocityProblem, v_init, hyper: AdamHyper, variant: str):
    """Run one variant from v_init; returns (v_hat, trace), trace the float
    table of iterates (k, vx, vy, objective, grad_x, grad_y), row 0 the init.

    The ascent moves in prob's frame from R v_init, keeping each axis's Adam
    moments as floats, and stops once |v_k - v_{k-1}| < rel_tol * |v_k|
    (Euclidean, |v_k| floored). An iterate maps back as
    v_init + R^T (v' - R v_init): a zero step returns v_init bit for bit.
    Each new iterate's evaluation also gives the next step's gradients.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    evaluate, second_gradient = prob.evaluate, prob.second_gradient
    adam, alternating = variant != "plain-gd", variant == "adam-ao"
    step, beta1, beta2, eps = hyper.step, hyper.beta1, hyper.beta2, hyper.epsilon
    (tx, ty), (rx, ry) = prob.frame
    x0, y0 = float(v_init[0]), float(v_init[1])
    t0, r0 = tx * x0 + ty * y0, rx * x0 + ry * y0

    def to_xy(t, r):
        # a zero entry of R adds nothing, even times an infinite coordinate
        dt, dr = t - t0, r - r0
        return (
            x0 + ((tx * dt if tx else 0.0) + (rx * dr if rx else 0.0)),
            y0 + ((ty * dt if ty else 0.0) + (ry * dr if ry else 0.0)),
        )

    t, r = t0, r0
    objective, gt, gr = evaluate(t, r)
    rows = [(0, x0, y0, objective, 0.0, 0.0)]
    mt = nt = mr = nr = 0.0
    for k in range(1, hyper.max_iters + 1):
        if adam:
            c1, c2 = 1.0 - beta1 ** k, 1.0 - beta2 ** k
            mt = beta1 * mt + (1.0 - beta1) * gt
            nt = beta2 * nt + (1.0 - beta2) * gt * gt
            t_new = t + step * (mt / c1) / math.sqrt(nt / c2 + eps)
            if alternating:
                gr = second_gradient(t_new, r)
            mr = beta1 * mr + (1.0 - beta1) * gr
            nr = beta2 * nr + (1.0 - beta2) * gr * gr
            r_new = r + step * (mr / c1) / math.sqrt(nr / c2 + eps)
        else:
            t_new = t + step * gt
            r_new = r + step * gr
        objective, gt_new, gr_new = evaluate(t_new, r_new)
        _check_finite(k, t_new, r_new, objective, to_xy)
        rows.append((k, *to_xy(t_new, r_new), objective, tx * gt + rx * gr, ty * gt + ry * gr))
        done = _settled(hyper.rel_tol, t_new - t, r_new - r, t_new, r_new)
        t, r, gt, gr = t_new, r_new, gt_new, gr_new
        if done:
            break
    return np.array(to_xy(t, r)), np.array(rows, dtype=float)


def _los_problem(y, nf, f):
    return VelocityProblem(y, nf, f, line_of_sight_frame(nf.position))


# adam_ao_estimate, gd_estimate and estimate_velocity are thin entry points over
# _ascend that perfbench/spans.py binds by name; the benchmark's rework
# (ROADMAP.md item 2) rebinds those spans and removes them.
def adam_ao_estimate(
    y,
    nf_hat: geo.NearField,
    v_init,
    f,
    hyper: AdamHyper = AdamHyper(),
):
    """Alternating Adam ascent: t moves first, r sees the fresh t each iteration.

    nf_hat is the snapshot at the position estimate. Returns (v_hat, trace).
    Stops at max_iters or by the module's stop rule.
    """
    return _ascend(_los_problem(y, nf_hat, f), v_init, hyper, "adam-ao")


def gd_estimate(
    y,
    nf_hat: geo.NearField,
    v_init,
    f,
    hyper: AdamHyper = AdamHyper(),
    variant: str = "plain-gd",
):
    """Comparison optimizers on the same objective: plain-gd or adam-joint."""
    if variant not in ("plain-gd", "adam-joint"):
        raise ValueError(f"variant must be 'plain-gd' or 'adam-joint', got {variant!r}")
    return _ascend(_los_problem(y, nf_hat, f), v_init, hyper, variant)


def estimate_velocity(variant: str, *args, **kwargs):
    """Dispatch one of VARIANTS with the adam_ao_estimate signature."""
    if variant == "adam-ao":
        return adam_ao_estimate(*args, **kwargs)
    return gd_estimate(*args, variant=variant, **kwargs)


def map_velocity(y, nf_hat: geo.NearField, v_prev, f, prior_cov, echo_noise_power: float,
                 hyper: AdamHyper = AdamHyper()):
    """The velocity's MAP estimate under the prior N(v_prev, prior_cov), by Gauss-Newton.

    From v = v_prev, each step takes G and u, the velocity Gram and score of
    y - h(v) at the snapshot nf_hat, and sets v = v_prev + delta with delta
    ekf.load_update's for the score u + G (v - v_prev), r = echo_noise_power / 2:
    the iterated EKF update in Bell-Cathey form, plain Gauss-Newton at r = 0.
    It stops by the ascent's rule, _settled, or after hyper.max_iters steps, or
    once load_update has nothing to assimilate. Returns (v_hat, path, cov): the
    (steps + 1, 2) iterates from v_prev to v_hat, and load_update's P+ at the
    last step's G (a copy of prior_cov if no step was taken).
    """
    v_prev = np.array(v_prev, dtype=float)
    p = np.asarray(prior_cov, dtype=float)
    r = echo_noise_power / 2.0
    v, path, cov = v_prev, [v_prev], p.copy()
    for k in range(1, hyper.max_iters + 1):
        gram, u = velocity_jacobian(nf_hat, v, f).gram_and_score(y - observation_mean(nf_hat, v, f))
        update = load_update(p, gram, u + gram @ (v - v_prev), r)
        if update is None:
            break
        delta, cov, _ = update
        v_new = v_prev + delta
        (vx, vy), (dx, dy) = v_new.tolist(), (v_new - v).tolist()
        v = v_new
        path.append(v)
        if not (math.isfinite(vx) and math.isfinite(vy)):
            raise DivergenceError(f"non-finite iterate at Gauss-Newton step {k}: v=({vx}, {vy})")
        if _settled(hyper.rel_tol, dx, dy, vx, vy):
            break
    return v, np.array(path), cov


def agdao_track_step(
    prev_state,
    prev_cov,
    observe,
    system: SystemConfig,
    motion_var: tuple[float, float],
    hyper: AdamHyper = AdamHyper(),
):
    """One closed-loop CPI: point from the previous estimate, observe, re-estimate.

    prev_state is the last estimate [x, y, vx, vy] and prev_cov its velocity
    covariance, (2, 2); observe maps the beams to this CPI's echo snapshot,
    shape (M,). The position is dead-reckoned, and the velocity is
    map_velocity's under the prior N(v_prev, prev_cov + diag(motion_var)).
    Returns (beamformers, p_hat, v_hat, path, cov), the last three
    map_velocity's; p_hat, the forecast position, points the beam, and one
    snapshot of it serves both.
    """
    prev_v_hat = np.asarray(prev_state, dtype=float)[2:]
    p_pred = kinematic_forecast(prev_state, system.cpi_duration_s)[:2]
    near = geo.NearField(system, p_pred)
    bf = predictive_beamformers(near, prev_v_hat)
    prior_cov = np.asarray(prev_cov, dtype=float) + np.diag(motion_var)
    return bf, p_pred, *map_velocity(
        observe(bf), near, prev_v_hat, bf[-1], prior_cov, system.echo_noise_power, hyper
    )
