"""Echo synthesis, received SNR, and per-CPI throughput."""
from __future__ import annotations

import math

import numpy as np

from . import geometry as geo

BEAM_NORM_TOL = 1e-9


class BeamNormError(ValueError):
    """Transmit beamformer is not unit norm."""


class NonFiniteRateError(ArithmeticError):
    """A throughput came out inf or NaN."""


def check_unit_norm(f: np.ndarray) -> None:
    """Raise BeamNormError unless every beamformer row has unit 2-norm."""
    f = np.asarray(f)
    norms = np.linalg.norm(f, axis=-1)
    err = np.abs(norms - 1.0).max()
    if not err <= BEAM_NORM_TOL:  # a non-finite row makes err NaN, which fails here
        raise BeamNormError(f"beamformer norm deviates from 1 by {err:.3e} (tol {BEAM_NORM_TOL})")


def complex_gaussian(rng: np.random.Generator, size: int, power: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, total variance `power` per entry."""
    if power < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {power}")
    s = math.sqrt(power / 2.0)
    z = np.empty(size, dtype=complex)
    z.real = rng.normal(0.0, s, size)
    z.imag = rng.normal(0.0, s, size)
    return z


def observation_mean(nf: geo.NearField, v, f: np.ndarray) -> np.ndarray:
    """Noise-free echo s * H(N) f at the CPI's last symbol, shape (M,), for the
    state at the snapshot's position and velocity v, shape (2,); s = sqrt(P)."""
    system = nf.system
    a = geo.array_response(system.symbols_per_cpi, v, nf)
    return math.sqrt(system.tx_power_w) * nf.alpha2 * a * (a @ f)


def synthesize_observation(
    nf: geo.NearField, v, beamformers: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Echo snapshot, shape (M,), at the last symbol, sent with beamformers[N-1]."""
    system = nf.system
    shape = (system.symbols_per_cpi, system.num_antennas)
    beamformers = np.asarray(beamformers)
    if beamformers.shape != shape:
        raise ValueError(f"beamformers must have shape {shape}, got {beamformers.shape}")
    check_unit_norm(beamformers)
    mean = observation_mean(nf, v, beamformers[-1])
    return mean + complex_gaussian(rng, system.num_antennas, system.echo_noise_power)


def received_snr(nf: geo.NearField, v, f: np.ndarray, n: int) -> float:
    """Downlink SNR at symbol n: P |h(n)^T f|^2 / sigma_c^2."""
    h = geo.downlink_channel(n, v, nf)
    return nf.system.tx_power_w * abs(h @ f) ** 2 / nf.system.comm_noise_power


def cpi_throughput(nf: geo.NearField, v, beamformers: np.ndarray):
    """Average rate over the CPI's symbols, bits/s/Hz.

    A float for one state: a snapshot of one position, v of shape (2,), and
    beamformers (N, M), N symbols_per_cpi. K states, positions and v (K, 2),
    take beamformers whose leading axes broadcast against (K,): (K, N, M) gives
    K rates, (B, K, N, M) B rates per state from one build of each state's
    channel. A rate that is not finite raises NonFiniteRateError.
    """
    system = nf.system
    beamformers = np.asarray(beamformers)
    h = geo.symbol_dopplers(v, nf)
    np.multiply(h, nf.steering[..., None, :], out=h)  # the channel up to alpha1
    dots = np.matmul(beamformers[..., None, :], h[..., :, None])[..., 0, 0]  # a BLAS dot each
    snr = system.tx_power_w * np.abs(nf.alpha1[..., None] * dots) ** 2 / system.comm_noise_power
    return _finite(np.mean(np.log2(1.0 + snr), axis=-1))


def genie_rate(nf: geo.NearField):
    """The matched beam's rate at the true state, bits/s/Hz: its gain is alpha1 * sqrt(M)
    at every symbol, so log2(1 + P M alpha1^2 / sigma_c^2). One per position of nf."""
    system = nf.system
    snr = system.tx_power_w * system.num_antennas * nf.alpha1**2 / system.comm_noise_power
    return _finite(np.log2(1.0 + snr))


def _finite(rate):
    """rate, a float if 0-d; raise NonFiniteRateError if any rate is inf or NaN."""
    if not np.isfinite(rate).all():
        raise NonFiniteRateError("non-finite rate: the downlink SNR overflows a float")
    return float(rate) if rate.ndim == 0 else rate
