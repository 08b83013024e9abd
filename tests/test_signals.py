"""Echo synthesis, SNR, and throughput."""

import math

import numpy as np
import pytest

from nfbeam.geometry import NearField, array_response
from nfbeam.signals import (
    BeamNormError,
    check_unit_norm,
    complex_gaussian,
    cpi_throughput,
    observation_mean,
    received_snr,
    synthesize_observation,
)
from nfbeam.beamforming import predictive_beamformers

from helpers import N_SYM, sample_state, system_for


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
    with pytest.raises(ValueError, match="nonnegative"):
        system_for(8, echo_noise_power=-1e-9)
    nf, v = NearField(system_for(8, echo_noise_power=0.0), (2.0, 9.0)), (4.0, -1.0)
    bf = predictive_beamformers(nf, v)
    y = synthesize_observation(nf, v, bf, np.random.default_rng(3))
    assert y.shape == (8,)


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
    for signed in (False, True):
        system = system_for(6, signed, tx_power_dbm=35.0)
        eta = sample_state(rng, system)
        f = predictive_beamformers(NearField(system_for(6), eta[:2]), eta[2:])[-1]
        nf = NearField(system, eta[:2])
        got = observation_mean(nf, eta[2:], f)
        a = array_response(N_SYM, eta[2:], nf)
        alpha2 = nf.alpha2
        inner = sum(a[k] * f[k] for k in range(6))
        s_amp = math.sqrt(10.0 ** 0.5)  # 35 dBm in watts, square-rooted
        expect = [s_amp * alpha2 * a[m] * inner for m in range(6)]
        np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_synthesize_observation_noiseless_equals_mean():
    rng = np.random.default_rng(3)
    system = system_for(16, echo_noise_power=0.0)
    eta = sample_state(rng, system)
    nf = NearField(system, eta[:2])
    bf = predictive_beamformers(nf, eta[2:])
    y = synthesize_observation(nf, eta[2:], bf, rng)
    mean = observation_mean(nf, eta[2:], bf[-1])
    np.testing.assert_array_equal(y, mean)


def test_synthesize_observation_validates_input():
    rng = np.random.default_rng(4)
    system = system_for(8)
    eta = sample_state(rng, system)
    nf = NearField(system, eta[:2])
    bf = predictive_beamformers(nf, eta[2:])
    with pytest.raises(ValueError):
        synthesize_observation(nf, eta[2:], bf[:, :4], rng)
    with pytest.raises(BeamNormError):
        synthesize_observation(nf, eta[2:], 1.5 * bf, rng)


def test_synthesize_observation_deterministic():
    nf, v = NearField(system_for(8), (2.0, 9.0)), (4.0, -1.0)
    bf = predictive_beamformers(nf, v)
    a = synthesize_observation(nf, v, bf, np.random.default_rng(9))
    b = synthesize_observation(nf, v, bf, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def test_matched_beamformer_hits_closed_form_snr():
    rng = np.random.default_rng(5)
    system = system_for(64)
    p_w, sigma_c2 = 1.0, 1e-8  # the default link's power and noise
    for _ in range(25):
        eta = sample_state(rng, system)
        nf = NearField(system, eta[:2])
        bf = predictive_beamformers(nf, eta[2:])
        alpha1 = nf.alpha1
        expect = p_w * 64 * alpha1**2 / sigma_c2
        for n in (1, N_SYM):
            got = received_snr(nf, eta[2:], bf[n - 1], n)
            assert got == pytest.approx(expect, rel=1e-9)


def test_cpi_throughput_matches_per_symbol_snr():
    rng = np.random.default_rng(6)
    system = system_for(16, tx_power_dbm=27.0)
    p, v = np.split(sample_state(rng, system), 2)
    # mismatched beam so the per-symbol SNRs actually vary
    bf = predictive_beamformers(NearField(system, p + 0.05), v + 1.0)
    nf = NearField(system, p)
    rate = cpi_throughput(nf, v, bf)
    per_symbol = [
        math.log2(1.0 + received_snr(nf, v, bf[n - 1], n)) for n in range(1, N_SYM + 1)
    ]
    assert rate == pytest.approx(float(np.mean(per_symbol)), rel=1e-12)


def test_throughput_invariant_to_global_beam_phase():
    rng = np.random.default_rng(7)
    system = system_for(16)
    eta = sample_state(rng, system)
    bf = predictive_beamformers(NearField(system, eta[:2] + 0.02), eta[2:])
    nf = NearField(system, eta[:2])
    base = cpi_throughput(nf, eta[2:], bf)
    rotated = cpi_throughput(nf, eta[2:], bf * np.exp(1j * 0.7))
    assert rotated == pytest.approx(base, rel=1e-12)
