"""Array geometry, projections, Doppler, and channel construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfbeam.geometry import (
    SPEED_OF_LIGHT,
    DegeneratePositionError,
    NearField,
    ProjectionKinkError,
    array_response,
    doppler_vector,
    downlink_channel,
    element_distances,
    element_offsets,
    pathloss_gradient,
    projection_coeff_gradients,
    roundtrip_channel,
    steering_vector,
)

from nfbeam.config import SystemConfig

from helpers import TS, fd_central, sample_state, system_for


def test_half_wavelength_constructor():
    # spacing_m None means half a wavelength at the carrier
    system = SystemConfig(num_antennas=64, carrier_freq_hz=30e9)
    lam = SPEED_OF_LIGHT / 30e9
    assert system.wavelength_m == pytest.approx(lam, rel=1e-15)
    assert system.spacing == pytest.approx(lam / 2.0, rel=1e-15)
    assert system.num_antennas == 64
    assert system.wavenumber == pytest.approx(2.0 * math.pi / lam, rel=1e-15)


def test_element_offsets_centered():
    system = system_for(8)
    off = element_offsets(system)
    assert off.shape == (8,)
    np.testing.assert_allclose(off + off[::-1], 0.0, atol=1e-18)
    np.testing.assert_allclose(np.diff(off), system.spacing, rtol=1e-15)
    # odd M puts the middle antenna at the origin exactly
    mid = element_offsets(system_for(3))
    assert mid[1] == 0.0


def test_element_distances_against_hypot():
    rng = np.random.default_rng(3)
    system = system_for(16)
    off = element_offsets(system)
    for _ in range(20):
        p = rng.uniform([-3.0, 1.0], [3.0, 20.0])
        r = element_distances(system, p)
        expect = [math.hypot(p[0] - o, p[1]) for o in off]
        np.testing.assert_allclose(r, expect, rtol=1e-15)


def test_element_distances_rejects_contact():
    system = system_for(4)
    p = (element_offsets(system)[2], 0.0)
    with pytest.raises(DegeneratePositionError):
        element_distances(system, p)


def test_steering_vector_phase_and_modulus():
    rng = np.random.default_rng(4)
    system = system_for(32)
    for _ in range(50):
        p = rng.uniform([-2.0, 2.0], [2.0, 30.0])
        a = steering_vector(system, p)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        r = element_distances(system, p)
        np.testing.assert_allclose(np.angle(a * np.exp(1j * system.wavenumber * r)), 0.0, atol=1e-7)


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-50.0, 50.0),
    y=st.floats(0.5, 100.0),
    signed=st.booleans(),
)
def test_projection_identity(x, y, signed):
    system = system_for(16, signed)
    nf = NearField(system, (x, y))
    np.testing.assert_allclose(nf.g * nf.g + nf.q * nf.q, 1.0, atol=1e-12)


def test_conventions_agree_off_to_the_side():
    # with the target beyond the array edge every u_x is positive, so the
    # |.| convention and the signed one coincide
    rng = np.random.default_rng(5)
    system = system_for(64)
    system_signed = system_for(64, signed=True)
    for _ in range(20):
        eta = sample_state(rng, system)
        a = NearField(system, eta[:2])
        s = NearField(system_signed, eta[:2])
        np.testing.assert_array_equal(a.g, s.g)
        np.testing.assert_array_equal(a.q, s.q)


def test_signed_projection_is_physical_cosine():
    rng = np.random.default_rng(6)
    system = system_for(16, signed=True)
    off = element_offsets(system)
    for _ in range(10):
        p = rng.uniform([-2.0, 2.0], [2.0, 20.0])
        v = rng.uniform(-10.0, 10.0, size=2)
        nf = NearField(system, p)
        vm = nf.g * v[0] + nf.q * v[1]
        for m in range(system.num_antennas):
            d = p - (off[m], 0.0)
            u = d / np.linalg.norm(d)
            assert vm[m] == pytest.approx(float(u @ v), rel=1e-12, abs=1e-12)


def test_radial_speeds_compose_projections():
    rng = np.random.default_rng(7)
    for signed in (False, True):
        system = system_for(16, signed)
        p = rng.uniform([-1.0, 3.0], [1.0, 20.0])
        v = rng.uniform(-10.0, 10.0, size=2)
        nf = NearField(system, p)
        want = nf.g * v[0] + nf.q * v[1]
        np.testing.assert_allclose(
            doppler_vector(1, v, nf), np.exp(-1j * system.wavenumber * TS * want), rtol=1e-15
        )


def test_doppler_vector_basics():
    system = system_for(16)
    nf = NearField(system, (0.3, 9.0))
    v = (4.0, -2.0)
    assert np.array_equal(doppler_vector(0, v, nf), np.ones(16))
    d1 = doppler_vector(3, v, nf)
    np.testing.assert_allclose(np.abs(d1), 1.0, atol=1e-12)
    np.testing.assert_allclose(doppler_vector(0, (0.0, 0.0), nf), 1.0, atol=0)


def test_doppler_phase_linear_in_symbol_index():
    rng = np.random.default_rng(8)
    system = system_for(16)
    for n in (1, 2, 5):
        nf = NearField(system, rng.uniform([-1.0, 3.0], [1.0, 20.0]))
        v = rng.uniform(-10.0, 10.0, size=2)
        d_n = doppler_vector(n, v, nf)
        d_2n = doppler_vector(2 * n, v, nf)
        np.testing.assert_allclose(d_n * d_n, d_2n, atol=1e-12)


def test_array_response_is_steering_times_doppler():
    system = system_for(16)
    p, v = (0.5, 8.0), (3.0, 1.0)
    nf = NearField(system, p)
    a = array_response(7, v, nf)
    np.testing.assert_array_equal(a, steering_vector(system, p) * doppler_vector(7, v, nf))


def test_pathloss_values_and_gradient():
    system = SystemConfig(ref_gain=2.0, rcs=3.0)
    p = (3.0, 4.0)  # x^2 + y^2 = 25
    nf = NearField(system, p)
    assert nf.alpha1 == pytest.approx(2.0 / 25.0, rel=1e-15)
    assert nf.alpha2 == pytest.approx(3.0 * 2.0 / 100.0, rel=1e-15)
    ddx, ddy = pathloss_gradient(nf)
    step = 1e-6
    fdx = fd_central(lambda x: NearField(system, (x, 4.0)).alpha2, 3.0, step)
    fdy = fd_central(lambda y: NearField(system, (3.0, y)).alpha2, 4.0, step)
    assert ddx == pytest.approx(fdx, rel=1e-8)
    assert ddy == pytest.approx(fdy, rel=1e-8)


def test_downlink_channel_at_zero_velocity():
    system = system_for(32)
    p = (1.2, 11.0)
    nf = NearField(system, p)
    h = downlink_channel(5, (0.0, 0.0), nf)
    np.testing.assert_array_equal(h, nf.alpha1 * steering_vector(system, p))


def test_roundtrip_channel_symmetric_rank_one():
    rng = np.random.default_rng(9)
    system = system_for(24)
    for _ in range(10):
        eta = sample_state(rng, system)
        nf = NearField(system, eta[:2])
        h2 = roundtrip_channel(10, eta[2:], nf)
        np.testing.assert_array_equal(h2, h2.T)
        s = np.linalg.svd(h2, compute_uv=False)
        assert s[1] / s[0] < 1e-12
        # H = alpha2 * a a^T elementwise
        a = array_response(10, eta[2:], nf)
        np.testing.assert_allclose(h2, nf.alpha2 * np.outer(a, a), rtol=1e-12)


def test_projection_gradients_match_fd():
    rng = np.random.default_rng(10)
    step = 1e-7
    for signed in (False, True):
        system = system_for(16, signed)
        for _ in range(25):
            p = rng.uniform([-2.0, 3.0], [2.0, 25.0])
            dg_dx, dq_dx, dg_dy, dq_dy = projection_coeff_gradients(NearField(system, p))
            for axis, got_g, got_q in ((0, dg_dx, dq_dx), (1, dg_dy, dq_dy)):
                def g_of(t, axis=axis):
                    q = np.array(p, dtype=float)
                    q[axis] = t
                    return NearField(system, q).g

                def q_of(t, axis=axis):
                    q = np.array(p, dtype=float)
                    q[axis] = t
                    return NearField(system, q).q

                fd_g = (g_of(p[axis] + step) - g_of(p[axis] - step)) / (2 * step)
                fd_q = (q_of(p[axis] + step) - q_of(p[axis] - step)) / (2 * step)
                np.testing.assert_allclose(got_g, fd_g, rtol=1e-6, atol=1e-6)
                np.testing.assert_allclose(got_q, fd_q, rtol=1e-6, atol=1e-6)


def test_projection_gradient_identity():
    # g^2 + q^2 = 1 differentiates to g dg + q dq = 0
    rng = np.random.default_rng(11)
    for signed in (False, True):
        system = system_for(32, signed)
        p = rng.uniform([-2.0, 3.0], [2.0, 25.0])
        nf = NearField(system, p)
        g, q = nf.g, nf.q
        dg_dx, dq_dx, dg_dy, dq_dy = projection_coeff_gradients(nf)
        np.testing.assert_allclose(g * dg_dx + q * dq_dx, 0.0, atol=1e-15)
        np.testing.assert_allclose(g * dg_dy + q * dq_dy, 0.0, atol=1e-15)


def test_projection_gradient_kink_guard():
    system = system_for(8)
    x_kink = float(element_offsets(system)[3])
    with pytest.raises(ProjectionKinkError, match=r"system\.signed_projection=true"):
        projection_coeff_gradients(NearField(system, (x_kink, 10.0)))
    # signed convention has no kink there
    projection_coeff_gradients(NearField(system_for(8, signed=True), (x_kink, 10.0)))
    # y = 0 is a kink for the |.| convention too, but already degenerate
    # geometry for distances; x-aligned antennas are the practical case


def test_geometry_is_frozen():
    system = system_for(4)
    with pytest.raises(AttributeError):
        system.num_antennas = 8
