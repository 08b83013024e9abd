"""Echo synthesis, SNR, and throughput."""

import math

import numpy as np
import pytest

from nfbeam.geometry import NearField, array_response, pathloss
from nfbeam.signals import (
    BeamNormError,
    check_unit_norm,
    complex_gaussian,
    cpi_throughput,
    echo_amplitude,
    observation_mean,
    received_snr,
    synthesize_observation,
)
from nfbeam.beamforming import predictive_beamformers

from helpers import N_SYM, TS, default_model, geom_for, sample_state


def test_check_unit_norm_accepts_and_rejects():
    f = np.ones(8, dtype=complex) / math.sqrt(8)
    check_unit_norm(f)
    with pytest.raises(BeamNormError):
        check_unit_norm(2.0 * f)
    rows = np.stack([f, f])
    check_unit_norm(rows)
    rows[1] *= 1.001
    with pytest.raises(BeamNormError):
        check_unit_norm(rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_unit_norm_refuses_non_finite_rows(bad):
    f = np.ones(8, dtype=complex) / math.sqrt(8)
    rows = np.stack([f, f, f])
    check_unit_norm(rows)
    rows[1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(BeamNormError):
        check_unit_norm(rows)
    batch = np.stack([np.stack([f, f, f])] * 4)
    check_unit_norm(batch)
    batch[2, 0, 3] = complex(0.0, bad)
    with np.errstate(invalid="ignore"), pytest.raises(BeamNormError):
        check_unit_norm(batch)
    with pytest.raises(BeamNormError):
        check_unit_norm(np.full(8, complex(math.nan, math.nan)))


def test_synthesize_observation_checks_echo_noise_power():
    geom = geom_for(8)
    model = default_model()
    nf, v = NearField(geom, (2.0, 9.0)), (4.0, -1.0)
    bf = predictive_beamformers(nf, v, N_SYM, TS)
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="nonnegative"):
        synthesize_observation(model, nf, v, bf, -1e-9, 1.0, TS, rng)
    y = synthesize_observation(model, nf, v, bf, 0.0, 1.0, TS, rng)
    assert y.shape == (8,)


def test_echo_amplitude_is_sqrt_power():
    assert echo_amplitude(4.0) == 2.0
    with pytest.raises(ValueError, match="nonnegative"):
        echo_amplitude(-1.0)


def test_complex_gaussian_statistics():
    rng = np.random.default_rng(0)
    n = 200_000
    power = 2.5
    z = complex_gaussian(rng, n, power)
    # each part N(0, power/2); allow 4 sigma on the variance estimates
    half = power / 2.0
    bound = 4.0 * half * math.sqrt(2.0 / n)
    assert abs(np.var(z.real) - half) < bound
    assert abs(np.var(z.imag) - half) < bound
    assert abs(np.mean(z.real * z.imag)) < 4.0 * half / math.sqrt(n)
    assert np.array_equal(complex_gaussian(np.random.default_rng(0), n, power), z)


@pytest.mark.parametrize("seed", [0, 5, 1001])
@pytest.mark.parametrize("size", [1, 7, 512])
@pytest.mark.parametrize("power", [0.0, 1e-3, 2.5])
def test_complex_gaussian_is_bit_identical_to_the_sum_of_draws(seed, size, power):
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    s = math.sqrt(power / 2.0)
    ref = ref_rng.normal(0.0, s, size) + 1j * ref_rng.normal(0.0, s, size)
    z = complex_gaussian(rng, size, power)
    assert z.shape == (size,) and z.dtype == np.complex128
    assert z.tobytes() == ref.tobytes()
    assert rng.normal() == ref_rng.normal()


def test_complex_gaussian_zero_power():
    z = complex_gaussian(np.random.default_rng(1), 16, 0.0)
    np.testing.assert_array_equal(z, 0.0)


def test_observation_mean_matches_hand_assembly():
    rng = np.random.default_rng(2)
    model = default_model()
    for signed in (False, True):
        geom = geom_for(6, signed)
        eta = sample_state(rng, geom)
        f = predictive_beamformers(NearField(geom_for(6), eta[:2]), eta[2:], N_SYM, TS)[-1]
        nf = NearField(geom, eta[:2])
        got = observation_mean(model, nf, eta[2:], f, 1.7, N_SYM, TS)
        a = array_response(N_SYM, TS, eta[2:], nf)
        alpha2 = pathloss(model, eta[:2], "roundtrip")
        inner = sum(a[k] * f[k] for k in range(6))
        expect = [1.7 * alpha2 * a[m] * inner for m in range(6)]
        np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_synthesize_observation_noiseless_equals_mean():
    rng = np.random.default_rng(3)
    geom = geom_for(16)
    model = default_model()
    eta = sample_state(rng, geom)
    nf = NearField(geom, eta[:2])
    bf = predictive_beamformers(nf, eta[2:], N_SYM, TS)
    noise = 0.0
    y = synthesize_observation(model, nf, eta[2:], bf, noise, 1.0, TS, rng)
    mean = observation_mean(model, nf, eta[2:], bf[-1], 1.0, N_SYM, TS)
    np.testing.assert_array_equal(y, mean)


def test_synthesize_observation_validates_input():
    rng = np.random.default_rng(4)
    geom = geom_for(8)
    model = default_model()
    eta = sample_state(rng, geom)
    noise = 1e-8
    nf = NearField(geom, eta[:2])
    bf = predictive_beamformers(nf, eta[2:], N_SYM, TS)
    with pytest.raises(ValueError):
        synthesize_observation(model, nf, eta[2:], bf[:, :4], noise, 1.0, TS, rng)
    with pytest.raises(BeamNormError):
        synthesize_observation(model, nf, eta[2:], 1.5 * bf, noise, 1.0, TS, rng)


def test_synthesize_observation_deterministic():
    geom = geom_for(8)
    model = default_model()
    nf, v = NearField(geom, (2.0, 9.0)), (4.0, -1.0)
    bf = predictive_beamformers(nf, v, N_SYM, TS)
    noise = 1e-8
    a = synthesize_observation(model, nf, v, bf, noise, 1.0, TS, np.random.default_rng(9))
    b = synthesize_observation(model, nf, v, bf, noise, 1.0, TS, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_matched_beamformer_hits_closed_form_snr():
    rng = np.random.default_rng(5)
    geom = geom_for(64)
    model = default_model()
    p_w, sigma_c2 = 1.0, 1e-8
    for _ in range(25):
        eta = sample_state(rng, geom)
        nf = NearField(geom, eta[:2])
        bf = predictive_beamformers(nf, eta[2:], N_SYM, TS)
        alpha1 = pathloss(model, eta[:2], "downlink")
        expect = p_w * 64 * alpha1**2 / sigma_c2
        for n in (1, N_SYM):
            got = received_snr(model, nf, eta[2:], bf[n - 1], n, TS, p_w, sigma_c2)
            assert got == pytest.approx(expect, rel=1e-9)


def test_cpi_throughput_matches_per_symbol_snr():
    rng = np.random.default_rng(6)
    geom = geom_for(16)
    model = default_model()
    p, v = np.split(sample_state(rng, geom), 2)
    # mismatched beam so the per-symbol SNRs actually vary
    bf = predictive_beamformers(NearField(geom, p + 0.05), v + 1.0, N_SYM, TS)
    p_w, sigma_c2 = 0.5, 1e-8
    nf = NearField(geom, p)
    rate = cpi_throughput(model, nf, v, bf, TS, p_w, sigma_c2)
    per_symbol = [
        math.log2(1.0 + received_snr(model, nf, v, bf[n - 1], n, TS, p_w, sigma_c2))
        for n in range(1, N_SYM + 1)
    ]
    assert rate == pytest.approx(float(np.mean(per_symbol)), rel=1e-12)


def test_throughput_invariant_to_global_beam_phase():
    rng = np.random.default_rng(7)
    geom = geom_for(16)
    model = default_model()
    eta = sample_state(rng, geom)
    bf = predictive_beamformers(NearField(geom, eta[:2] + 0.02), eta[2:], N_SYM, TS)
    nf = NearField(geom, eta[:2])
    base = cpi_throughput(model, nf, eta[2:], bf, TS, 1.0, 1e-8)
    rotated = cpi_throughput(model, nf, eta[2:], bf * np.exp(1j * 0.7), TS, 1.0, 1e-8)
    assert rotated == pytest.approx(base, rel=1e-12)
