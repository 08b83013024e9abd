"""Echo synthesis, received SNR, and per-CPI throughput."""
from __future__ import annotations

import math

import numpy as np

from . import geometry as geo

BEAM_NORM_TOL = 1e-9


class BeamNormError(ValueError):
    """Transmit beamformer is not unit norm."""


def check_unit_norm(f: np.ndarray, tol: float = BEAM_NORM_TOL) -> None:
    """Raise BeamNormError unless every beamformer row has unit 2-norm."""
    f = np.asarray(f)
    norms = np.linalg.norm(f, axis=-1)
    err = np.abs(norms - 1.0).max()
    if not err <= tol:  # a non-finite row makes err NaN, which fails here
        raise BeamNormError(f"beamformer norm deviates from 1 by {err:.3e} (tol {tol})")


def echo_amplitude(tx_power_w: float) -> float:
    """Deterministic symbol amplitude at the echo snapshot: sqrt(P)."""
    if tx_power_w < 0.0:
        raise ValueError(f"transmit power must be nonnegative, got {tx_power_w}")
    return math.sqrt(tx_power_w)


def complex_gaussian(rng: np.random.Generator, size: int, power: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian, total variance `power` per entry."""
    if power < 0.0:
        raise ValueError(f"noise power must be nonnegative, got {power}")
    s = math.sqrt(power / 2.0)
    z = np.empty(size, dtype=complex)
    z.real = rng.normal(0.0, s, size)
    z.imag = rng.normal(0.0, s, size)
    return z


def observation_mean(
    model: geo.PathlossModel,
    nf: geo.NearField,
    v,
    f: np.ndarray,
    s_amp: float,
    num_symbols: int,
    symbol_duration: float,
) -> np.ndarray:
    """Noise-free echo s * H(N) f at the CPI's last symbol, shape (M,), for the
    state at the snapshot's position and velocity v, shape (2,)."""
    a = geo.array_response(num_symbols, symbol_duration, v, nf)
    alpha2 = geo.pathloss(model, nf.position, geo.ROUNDTRIP)
    return s_amp * alpha2 * a * (a @ f)


def synthesize_observation(
    model: geo.PathlossModel,
    nf: geo.NearField,
    v,
    beamformers: np.ndarray,
    echo_noise_power: float,
    s_amp: float,
    symbol_duration: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Echo snapshot, shape (M,), at the last symbol, sent with beamformers[N-1]."""
    num_antennas = nf.geom.num_antennas
    beamformers = np.asarray(beamformers)
    if beamformers.ndim != 2 or beamformers.shape[1] != num_antennas:
        raise ValueError(
            f"beamformers must have shape (N, {num_antennas}), got {beamformers.shape}"
        )
    check_unit_norm(beamformers)
    num_symbols = beamformers.shape[0]
    mean = observation_mean(model, nf, v, beamformers[-1], s_amp, num_symbols, symbol_duration)
    z = complex_gaussian(rng, num_antennas, echo_noise_power)
    return mean + z


def received_snr(
    model: geo.PathlossModel,
    nf: geo.NearField,
    v,
    f: np.ndarray,
    n: int,
    symbol_duration: float,
    tx_power_w: float,
    comm_noise_power: float,
) -> float:
    """Downlink SNR at symbol n: P |h(n)^T f|^2 / sigma_c^2."""
    h = geo.downlink_channel(model, n, symbol_duration, v, nf)
    return tx_power_w * abs(h @ f) ** 2 / comm_noise_power


def cpi_throughput(
    model: geo.PathlossModel,
    nf: geo.NearField,
    v,
    beamformers: np.ndarray,
    symbol_duration: float,
    tx_power_w: float,
    comm_noise_power: float,
):
    """Average rate over the CPI's symbols, bits/s/Hz.

    A float for one state: a snapshot of one position, v of shape (2,), and
    beamformers of shape (N, M). K states, a snapshot of positions (K, 2) and
    v of shape (K, 2), take beamformers whose leading axes broadcast against
    (K,): (K, N, M) gives K rates, (B, K, N, M) gives B rates per state from
    one build of each state's channel.
    """
    beamformers = np.asarray(beamformers)
    h = geo.symbol_dopplers(beamformers.shape[-2], symbol_duration, v, nf)
    np.multiply(h, nf.steering[..., None, :], out=h)  # the channel up to alpha1
    alpha1 = geo.pathloss(model, nf.position, geo.DOWNLINK)
    gains = alpha1[..., None] * np.einsum("...nm,...nm->...n", h, beamformers)
    snr = tx_power_w * np.abs(gains) ** 2 / comm_noise_power
    rate = np.mean(np.log2(1.0 + snr), axis=-1)
    return float(rate) if rate.ndim == 0 else rate
