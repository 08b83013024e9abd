"""Uniform linear array geometry, near-field response, and channel gains.

The array and the link are a config.SystemConfig: M antennas along the
x-axis, centered on the origin, antenna m (0-based) at ((m - (M-1)/2) *
spacing, 0), with ref_gain at 1 m one-way and rcs scaling the reflection.
A NearField snapshot holds everything per position, gains included, and
refuses a position on an antenna or at the array center when it is built.
"""
from __future__ import annotations

import functools

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Positions closer than this to an antenna (or the array center) are rejected.
MIN_RANGE = 1e-9
# Below this |x - k_m1| the magnitude-projection derivative sits on its kink.
KINK_TOL = 1e-9


class DegeneratePositionError(ValueError):
    """Position coincides with an antenna or the array center."""


class ProjectionKinkError(ValueError):
    """Magnitude-projection derivative requested at a non-differentiable point."""


def element_offsets(system) -> np.ndarray:
    """x-coordinates of the antennas, shape (M,): one read-only array per (M, spacing)."""
    return _element_offsets(system.num_antennas, system.spacing)


@functools.lru_cache(maxsize=16)
def _element_offsets(num_antennas: int, spacing: float) -> np.ndarray:
    x = (np.arange(num_antennas, dtype=float) - (num_antennas - 1) / 2.0) * spacing
    x.flags.writeable = False
    return x


def _as_position(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError(f"position must have shape (2,), got {p.shape}")
    return p


def as_points(x, what: str) -> np.ndarray:
    """One 2-vector, shape (2,), or a batch of them, shape (..., 2)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 2:
        raise ValueError(f"{what} must have shape (..., 2), got {x.shape}")
    return x


def reject_degenerate(p: np.ndarray, dist, limit: float, where: str) -> None:
    """Raise DegeneratePositionError if any dist is below limit, naming the first.

    dist holds one value per position of p: the shape of p without its last axis.
    """
    bad = dist < limit
    if np.count_nonzero(bad):
        first = p.reshape(-1, 2)[np.flatnonzero(bad)[0]]
        raise DegeneratePositionError(
            f"position {first.tolist()} is within {MIN_RANGE} m of {where}"
        )


def element_distances(system, p) -> np.ndarray:
    """Exact per-antenna distances to position(s) p of shape (..., 2): (..., M)."""
    p = as_points(p, "position")
    r = np.hypot(p[..., 0, None] - element_offsets(system), p[..., 1, None])
    reject_degenerate(p, r.min(axis=-1), MIN_RANGE, "an antenna")
    return r


def unit_phasor(theta) -> np.ndarray:
    """exp(j * theta) for real theta, from one cos and one sin.

    Skips forming 1j * theta and the complex exp. Where numpy's sin and cos
    round as the sincos behind its complex exp does (glibc), the result
    equals np.exp(1j * theta) bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


class NearField:
    """Near-field model of the array at position(s) p of shape (..., 2), built once.

    Holds the per-antenna ranges r, the offsets ux = x - k_m1 and uy = y, the
    steering phasor a_tilde = exp(-j * 2pi/lambda * r), the projections
    (g, q) = (ux, uy) / r, numerators folded to |.| unless system.signed_projection
    (g^2 + q^2 = 1 either way), and the downlink and round-trip gains
    alpha1 = ref_gain / |p|^2 and alpha2 = rcs * ref_gain / (4 |p|^2); every
    array is (..., M) except uy, (..., 1), and the gains, (...). A position on
    an antenna or at the array center raises DegeneratePositionError here.
    Every function that reads more than the ranges or the steering phasor
    takes a snapshot, never a position, and reads the array, the gains,
    the frame timing and the powers from it, so the beamformer, the
    echo model, its Jacobian and the throughput of one CPI share one build.
    Indexing the leading axes gives the snapshot of a subset.
    """

    __slots__ = (
        "system", "position", "r", "ux", "uy", "steering", "g", "q", "alpha1", "alpha2",
        "response",
    )

    def __init__(self, system, p):
        p = as_points(p, "position")
        r = element_distances(system, p)
        x, y = p[..., 0], p[..., 1]
        rr = x * x + y * y
        reject_degenerate(p, rr, MIN_RANGE * MIN_RANGE, "the array center")
        ux = x[..., None] - element_offsets(system)
        uy = y[..., None]
        if system.signed_projection:
            g, q = ux / r, uy / r
        else:
            g, q = np.abs(ux) / r, np.abs(uy) / r
        alpha1 = system.ref_gain / rr
        alpha2 = system.rcs * system.ref_gain / (4.0 * rr)
        self._set(system, p, r, ux, uy, unit_phasor(-system.wavenumber * r), g, q, alpha1, alpha2)

    def _set(self, system, *arrays) -> None:
        self.system = system
        (self.position, self.r, self.ux, self.uy, self.steering, self.g, self.q,
         self.alpha1, self.alpha2) = arrays
        self.response = (None, None)  # (key, a) of the last array_response

    def __getitem__(self, index) -> "NearField":
        part = object.__new__(NearField)
        part._set(self.system, *(getattr(self, name)[index] for name in self.__slots__[1:-1]))
        return part


# A read of NearField that perfbench/spans.py binds by name; it goes when the
# benchmark's rework (ROADMAP.md item 2) drops that span.
def steering_vector(system, p) -> np.ndarray:
    """Near-field phase profile exp(-j * 2pi/lambda * r_m), shape (..., M)."""
    return NearField(system, p).steering


def _radial_speeds(v, nf: NearField) -> np.ndarray:
    """Composite per-antenna speed g_m * vx + q_m * vy, shape (..., M)."""
    v = as_points(v, "velocity")
    return nf.g * v[..., 0, None] + nf.q * v[..., 1, None]


def doppler_vector(n: int, v, nf: NearField) -> np.ndarray:
    """Doppler rotation accumulated after n symbol periods, shape (..., M)."""
    vm = _radial_speeds(v, nf)
    return unit_phasor((-nf.system.wavenumber * n * nf.system.symbol_duration_s) * vm)


def symbol_dopplers(v, nf: NearField) -> np.ndarray:
    """Doppler rotations of the CPI's symbols n = 1..N, shape (..., N, M).

    Built by the recurrence d(n) = d(n-1) * d(1): row 1 is doppler_vector(1,
    ...) bit for bit, and row n is within about 0.5 * n * eps of exact.
    """
    vm = _radial_speeds(v, nf)
    d1 = unit_phasor((-nf.system.wavenumber * nf.system.symbol_duration_s) * vm)
    out = np.empty(vm.shape[:-1] + (nf.system.symbols_per_cpi, vm.shape[-1]), dtype=complex)
    out[..., 0, :] = d1
    for n in range(1, nf.system.symbols_per_cpi):
        np.multiply(out[..., n - 1, :], d1, out=out[..., n, :])
    return out


def array_response(n: int, v, nf: NearField) -> np.ndarray:
    """Steering vector times Doppler at symbol n: a = a_tilde * d(n), read-only.

    The snapshot keeps the last response and returns it for the same n and v.
    """
    v = as_points(v, "velocity")
    key = (n, v.shape, v.tobytes())
    if nf.response[0] == key:
        return nf.response[1]
    a = nf.steering * doppler_vector(n, v, nf)
    a.flags.writeable = False
    nf.response = (key, a)
    return a


def pathloss_gradient(nf: NearField):
    """Spatial gradient (d/dx, d/dy) of the round-trip gain alpha2."""
    p = _as_position(nf.position)
    rr = p[0] * p[0] + p[1] * p[1]
    c = -nf.system.rcs * nf.system.ref_gain / (2.0 * rr * rr)
    return c * p[0], c * p[1]


def downlink_channel(n: int, v, nf: NearField) -> np.ndarray:
    """One-way channel h(n) = alpha1 * a(n), shape (M,)."""
    return nf.alpha1 * array_response(n, v, nf)


def roundtrip_channel(n: int, v, nf: NearField) -> np.ndarray:
    """Echo channel H(n) = alpha2 * a(n) a(n)^T, shape (M, M), symmetric rank 1."""
    a = array_response(n, v, nf)
    h = nf.alpha2 * np.outer(a, a)
    # complex multiply can contract to FMA, leaving H_ij and H_ji a ulp
    # apart; mirror the upper triangle so symmetry holds bit-exactly
    low = np.tril_indices(nf.system.num_antennas, -1)
    h[low] = h.T[low]
    return h


def projection_coeff_gradients(nf: NearField):
    """Spatial derivatives of (g, q): returns (dg_dx, dq_dx, dg_dy, dq_dy).

    Under the default magnitude convention the derivative is undefined where
    x crosses an antenna (or y crosses the array plane); those points raise
    ProjectionKinkError.
    """
    p = _as_position(nf.position)
    r, ux, uy = nf.r, nf.ux, p[1]
    r3 = r ** 3
    if nf.system.signed_projection:
        dg_dx = uy * uy / r3
        dq_dx = -ux * uy / r3
        dg_dy = -ux * uy / r3
        dq_dy = ux * ux / r3
        return dg_dx, dq_dx, dg_dy, dq_dy
    if np.min(np.abs(ux)) < KINK_TOL:
        raise ProjectionKinkError(
            f"x = {p[0]} is within {KINK_TOL} m of an antenna; the magnitude "
            "projection has no derivative there (set system.signed_projection=true)"
        )
    if abs(uy) < KINK_TOL:
        raise ProjectionKinkError(
            f"y = {p[1]} is within {KINK_TOL} m of the array plane; the "
            "magnitude projection has no derivative there"
        )
    dg_dx = np.sign(ux) / r - ux * np.abs(ux) / r3
    dq_dx = -abs(uy) * ux / r3
    dg_dy = -np.abs(ux) * uy / r3
    dq_dy = np.sign(uy) / r - uy * abs(uy) / r3
    return dg_dx, dq_dx, dg_dy, dq_dy
