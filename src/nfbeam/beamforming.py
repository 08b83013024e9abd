"""Transmit beamformers: predictive matched filter and the baseline pointers. The
feedback table is one batched kinematic_forecast; latch indices take an int or an array."""
from __future__ import annotations

import math

import numpy as np

from . import geometry as geo
from .config import SystemConfig
from .motion import kinematic_forecast


def _scale_by_rsqrt(z: np.ndarray, num_antennas: int) -> np.ndarray:
    """z / sqrt(M) in place: the division's bits without numpy's complex-division loop."""
    # numpy divides a complex a + bj by a real c as ((a + b*0) * s, (b - a*0) * s)
    # with s = 1/c: that is (a*s, b*s), the float view times s, unless a part is
    # a negative zero. A zero imaginary part beside a positive real part, as in
    # a phasor at phase 0, keeps its sign here; a complex `z *= s` would turn its
    # -0 into +0.
    parts = z.view(np.float64)
    parts *= 1.0 / math.sqrt(num_antennas)
    return z


def predictive_beamformers(nf_pred: geo.NearField, v_pred) -> np.ndarray:
    """Matched filter to the channel implied by an already-predicted state.

    Row n-1 is f(n) = conj(a_tilde(p_pred) * d(n; v_pred)) / sqrt(M), with
    nf_pred the snapshot at p_pred; each row has unit norm. Shape (N, M), or
    (..., N, M) for a snapshot of positions (..., 2). Scaling by the real
    1/sqrt(M) keeps the bits of dividing by sqrt(M).
    """
    system = nf_pred.system
    f = geo.symbol_dopplers(v_pred, nf_pred)
    # f = conj(atil * d) / sqrt(M), built in place
    np.multiply(nf_pred.steering[..., None, :], f, out=f)
    np.conjugate(f, out=f)
    return _scale_by_rsqrt(f, system.num_antennas)


# The loop builds only CPI 1's genie beam here, once a run; perfbench/spans.py binds
# this name to time the baselines, so it stays until the rework of ROADMAP.md item 2.
def opt_beamformers(nf_true: geo.NearField, v_true) -> np.ndarray:
    """Genie matched filter: the predictive beamformer fed the true state."""
    return predictive_beamformers(nf_true, v_true)


def _dot2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of 2-vectors along the last axis, shape (...).

    A stack of (1, 2) @ (2, 1) products: numpy's matmul gives each the same
    BLAS dot that a @ b takes for one pair, so a batch rounds as its rows do.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def ff_beamformers(system: SystemConfig, p_true, v_true) -> np.ndarray:
    """Far-field codebook at the true state: planar phases along u = p/||p||
    plus a common radial-Doppler rotation per symbol.

    The phase is a symbol term plus an element term, so the beam is the outer
    product of N and M phasors, within about eps * max|phase| of exact.

    Shape (N, M), or (..., N, M) for states of shape (..., 2).
    """
    p = geo.as_points(p_true, "position")
    rnorm = np.sqrt(_dot2(p, p))
    geo.reject_degenerate(p, rnorm, geo.MIN_RANGE, "the array center")
    u = p / rnorm[..., None]
    v_radial = _dot2(geo.as_points(v_true, "velocity"), u)
    n = np.arange(1, system.symbols_per_cpi + 1)
    k = system.wavenumber
    symbol = geo.unit_phasor((-k * system.symbol_duration_s) * (n * v_radial[..., None]))
    # antennas sit on the x-axis, so u^T k_m reduces to u_x * k_m1
    element = geo.unit_phasor((-k * geo.element_offsets(system)) * u[..., 0, None])
    _scale_by_rsqrt(element, system.num_antennas)
    return symbol[..., :, None] * element[..., None, :]


def feedback_latch_index(cpi_index, period_cpis: int):
    """CPI whose state was most recently reported before cpi_index began.

    Reports arrive at CPIs 1, 1+T, 1+2T, ...; CPI 1 itself uses the initial
    report. cpi_index is an int or an array of CPI indices; the result has
    its shape.
    """
    if period_cpis < 1:
        raise ValueError(f"feedback period must be >= 1 CPI, got {period_cpis}")
    if np.any(np.less(cpi_index, 1)):
        raise ValueError(f"cpi_index must be >= 1, got {np.min(cpi_index)}")
    return 1 + (np.maximum(cpi_index, 2) - 2) // period_cpis * period_cpis


def fd_predicted_state(truth: np.ndarray, period_cpis: int, cpi_duration: float) -> np.ndarray:
    """Dead-reckoned [x, y, vx, vy] pointing each CPI between reports.

    truth is the (num_cpis, 4) trajectory table; so is the result, one
    batched forecast: row cpi - 1 is the state reported at CPI latch, moved
    by (cpi - latch) * cpi_duration.
    """
    cpi = np.arange(1, len(truth) + 1)
    # a period past the last CPI reports only at CPI 1; the clamp fits int64
    latch = feedback_latch_index(cpi, min(period_cpis, len(truth)))
    return kinematic_forecast(truth[latch - 1], (cpi - latch) * cpi_duration)
