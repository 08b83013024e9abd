"""Uniform linear array geometry, near-field response, and pathloss."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# Positions closer than this to an antenna (or the array center) are rejected.
MIN_RANGE = 1e-9
# Below this |x - k_m1| the magnitude-projection derivative sits on its kink.
KINK_TOL = 1e-9

DOWNLINK = "downlink"
ROUNDTRIP = "roundtrip"


class DegeneratePositionError(ValueError):
    """Position coincides with an antenna or the array center."""


class ProjectionKinkError(ValueError):
    """Magnitude-projection derivative requested at a non-differentiable point."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array along the x-axis, centered on the origin.

    Antenna m (0-based) sits at ((m - (M-1)/2) * spacing, 0). signed_projection
    picks the convention of the projections (g, q): magnitude numerators
    |x - k_m1| and |y| by default, signed numerators when True.
    """

    num_antennas: int
    spacing: float
    wavelength: float
    signed_projection: bool = False

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError(f"num_antennas must be >= 1, got {self.num_antennas}")
        if self.spacing <= 0.0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if self.wavelength <= 0.0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

    @classmethod
    def half_wavelength(cls, num_antennas: int, carrier_freq_hz: float) -> "ArrayGeometry":
        """Array with half-wavelength spacing at the given carrier."""
        if carrier_freq_hz <= 0.0:
            raise ValueError(f"carrier frequency must be positive, got {carrier_freq_hz}")
        lam = SPEED_OF_LIGHT / carrier_freq_hz
        return cls(num_antennas=num_antennas, spacing=lam / 2.0, wavelength=lam)

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber 2*pi/lambda."""
        return 2.0 * np.pi / self.wavelength

    @property
    def aperture(self) -> float:
        return (self.num_antennas - 1) * self.spacing


def element_offsets(geom: ArrayGeometry) -> np.ndarray:
    """x-coordinates of the antennas, shape (M,)."""
    m = np.arange(geom.num_antennas, dtype=float)
    return (m - (geom.num_antennas - 1) / 2.0) * geom.spacing


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


def element_distances(geom: ArrayGeometry, p) -> np.ndarray:
    """Exact per-antenna distances to position(s) p of shape (..., 2): (..., M)."""
    p = as_points(p, "position")
    r = np.hypot(p[..., 0, None] - element_offsets(geom), p[..., 1, None])
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
    steering phasor a_tilde = exp(-j * 2pi/lambda * r) and the projections
    (g, q) = (ux, uy) / r, numerators folded to |.| unless geom.signed_projection
    (g^2 + q^2 = 1 either way); every array is (..., M) except uy, (..., 1).
    Every function that reads more than the ranges or the steering phasor
    takes a snapshot, never a position, and reads the array from its geom, so
    the beamformer, the echo model, its Jacobian and the throughput of one CPI
    share one build. Indexing the leading axes gives the snapshot of a subset.
    """

    __slots__ = ("geom", "position", "r", "ux", "uy", "steering", "g", "q", "response")

    def __init__(self, geom: ArrayGeometry, p):
        p = as_points(p, "position")
        r = element_distances(geom, p)
        ux = p[..., 0, None] - element_offsets(geom)
        uy = p[..., 1, None]
        if geom.signed_projection:
            g, q = ux / r, uy / r
        else:
            g, q = np.abs(ux) / r, np.abs(uy) / r
        self._set(geom, p, r, ux, uy, unit_phasor(-geom.wavenumber * r), g, q)

    def _set(self, geom, *arrays) -> None:
        self.geom = geom
        self.position, self.r, self.ux, self.uy, self.steering, self.g, self.q = arrays
        self.response = (None, None)  # (key, a) of the last array_response

    def __getitem__(self, index) -> "NearField":
        part = object.__new__(NearField)
        part._set(self.geom, *(getattr(self, name)[index] for name in self.__slots__[1:-1]))
        return part


# A read of NearField that perfbench/spans.py binds by name; it goes when the
# benchmark's rework (ROADMAP.md item 2) drops that span.
def steering_vector(geom: ArrayGeometry, p) -> np.ndarray:
    """Near-field phase profile exp(-j * 2pi/lambda * r_m), shape (..., M)."""
    return NearField(geom, p).steering


def _radial_speeds(v, nf: NearField) -> np.ndarray:
    """Composite per-antenna speed g_m * vx + q_m * vy, shape (..., M)."""
    v = as_points(v, "velocity")
    return nf.g * v[..., 0, None] + nf.q * v[..., 1, None]


def doppler_vector(n: int, symbol_duration: float, v, nf: NearField) -> np.ndarray:
    """Doppler rotation accumulated after n symbol periods, shape (..., M)."""
    vm = _radial_speeds(v, nf)
    return unit_phasor((-nf.geom.wavenumber * n * symbol_duration) * vm)


def symbol_dopplers(num_symbols: int, symbol_duration: float, v, nf: NearField) -> np.ndarray:
    """Doppler rotations of symbols n = 1..num_symbols, shape (..., num_symbols, M).

    Built by the recurrence d(n) = d(n-1) * d(1): row 1 is doppler_vector(1,
    ...) bit for bit, and row n is within about 0.5 * n * eps of exact.
    """
    vm = _radial_speeds(v, nf)
    d1 = unit_phasor((-nf.geom.wavenumber * symbol_duration) * vm)
    out = np.empty(vm.shape[:-1] + (num_symbols, vm.shape[-1]), dtype=complex)
    out[..., 0, :] = d1
    for n in range(1, num_symbols):
        np.multiply(out[..., n - 1, :], d1, out=out[..., n, :])
    return out


def array_response(n: int, symbol_duration: float, v, nf: NearField) -> np.ndarray:
    """Steering vector times Doppler at symbol n: a = a_tilde * d(n), read-only.

    The snapshot keeps the last response and returns it for the same n,
    symbol_duration and v.
    """
    v = as_points(v, "velocity")
    key = (n, symbol_duration, v.shape, v.tobytes())
    if nf.response[0] == key:
        return nf.response[1]
    a = nf.steering * doppler_vector(n, symbol_duration, v, nf)
    a.flags.writeable = False
    nf.response = (key, a)
    return a


@dataclass(frozen=True)
class PathlossModel:
    """Free-space gains: ref_gain at 1 m one-way, rcs scales the reflection."""

    ref_gain: float = 1.0
    rcs: float = 1.0

    def __post_init__(self) -> None:
        if self.ref_gain <= 0.0:
            raise ValueError(f"ref_gain must be positive, got {self.ref_gain}")
        if self.rcs <= 0.0:
            raise ValueError(f"rcs must be positive, got {self.rcs}")


def pathloss(model: PathlossModel, p, kind: str):
    """Amplitude gain to position(s) p: downlink (one-way) or roundtrip (echo).

    A float for one position; shape (...) for positions of shape (..., 2).
    """
    p = as_points(p, "position")
    x, y = p[..., 0], p[..., 1]
    rr = x * x + y * y
    reject_degenerate(p, rr, MIN_RANGE * MIN_RANGE, "the array center")
    if kind == DOWNLINK:
        return model.ref_gain / rr
    if kind == ROUNDTRIP:
        return model.rcs * model.ref_gain / (4.0 * rr)
    raise ValueError(f"unknown pathloss kind {kind!r}")


def pathloss_gradient(model: PathlossModel, p):
    """Spatial gradient (d/dx, d/dy) of the roundtrip gain."""
    p = _as_position(p)
    rr = p[0] * p[0] + p[1] * p[1]
    reject_degenerate(p, rr, MIN_RANGE * MIN_RANGE, "the array center")
    c = -model.rcs * model.ref_gain / (2.0 * rr * rr)
    return c * p[0], c * p[1]


def downlink_channel(
    model: PathlossModel, n: int, symbol_duration: float, v, nf: NearField
) -> np.ndarray:
    """One-way channel h(n) = alpha1 * a(n), shape (M,)."""
    return pathloss(model, nf.position, DOWNLINK) * array_response(n, symbol_duration, v, nf)


def roundtrip_channel(
    model: PathlossModel, n: int, symbol_duration: float, v, nf: NearField
) -> np.ndarray:
    """Echo channel H(n) = alpha2 * a(n) a(n)^T, shape (M, M), symmetric rank 1."""
    a = array_response(n, symbol_duration, v, nf)
    h = pathloss(model, nf.position, ROUNDTRIP) * np.outer(a, a)
    # complex multiply can contract to FMA, leaving H_ij and H_ji a ulp
    # apart; mirror the upper triangle so symmetry holds bit-exactly
    low = np.tril_indices(nf.geom.num_antennas, -1)
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
    if nf.geom.signed_projection:
        dg_dx = uy * uy / r3
        dq_dx = -ux * uy / r3
        dg_dy = -ux * uy / r3
        dq_dy = ux * ux / r3
        return dg_dx, dq_dx, dg_dy, dq_dy
    if np.min(np.abs(ux)) < KINK_TOL:
        raise ProjectionKinkError(
            f"x = {p[0]} is within {KINK_TOL} m of an antenna; the magnitude "
            "projection has no derivative there (set system.signed_projection=true, "
            "ArrayGeometry.signed_projection)"
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
