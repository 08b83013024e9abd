"""Predictive, genie, far-field, and feedback beamformer construction."""

import math

import numpy as np
import pytest

from nfbeam.beamforming import (
    fd_predicted_state,
    feedback_latch_index,
    ff_beamformers,
    opt_beamformers,
    predictive_beamformers,
)
from nfbeam import geometry as geo
from nfbeam.geometry import DegeneratePositionError, NearField, array_response, element_offsets
from nfbeam.motion import generate_trajectory
from nfbeam.signals import check_unit_norm, cpi_throughput

from helpers import N_SYM, TS, sample_broadside_state, sample_state, system_for


def test_predictive_rows_match_conjugate_response():
    rng = np.random.default_rng(0)
    system = system_for(32)
    eta = sample_state(rng, system)
    nf = NearField(system, eta[:2])
    bf = predictive_beamformers(nf, eta[2:])
    assert bf.shape == (N_SYM, 32)
    check_unit_norm(bf)
    for n in range(1, N_SYM + 1):
        a = array_response(n, eta[2:], nf)
        np.testing.assert_allclose(bf[n - 1], np.conj(a) / math.sqrt(32), rtol=1e-12)


def test_predictive_rejects_empty_cpi():
    # the beams have one row per symbol of the system's CPI, which has at least one
    with pytest.raises(ValueError, match="symbols_per_cpi"):
        system_for(4, symbols_per_cpi=0)


def test_opt_equals_predictive_at_truth():
    rng = np.random.default_rng(1)
    system = system_for(16)
    eta = sample_state(rng, system)
    nf = NearField(system, eta[:2])
    np.testing.assert_array_equal(
        opt_beamformers(nf, eta[2:]),
        predictive_beamformers(nf, eta[2:]),
    )


def test_matched_gain_is_full_and_translation_stable():
    # perfectly matched beam collects gain sqrt(M) whatever the position
    system = system_for(64)
    v = (8.0, 7.0)
    for p in ((0.0, 10.0), (5.0, 10.0), (2.0, 6.0)):
        nf = NearField(system, p)
        bf = predictive_beamformers(nf, v)
        a = array_response(N_SYM, v, nf)
        assert abs(a @ bf[-1]) == pytest.approx(math.sqrt(64), rel=1e-12)


def test_ff_phases_are_planar():
    system = system_for(32)
    bf = ff_beamformers(system, (3.0, 4.0), (2.0, -1.0))
    check_unit_norm(bf)
    u = np.array([3.0, 4.0]) / 5.0
    v_rad = float(np.array([2.0, -1.0]) @ u)
    kappa = system.wavenumber
    for n in (1, N_SYM):
        expect = np.exp(
            -1j * kappa * (n * TS * v_rad + element_offsets(system) * u[0])
        ) / math.sqrt(32)
        np.testing.assert_allclose(bf[n - 1], expect, rtol=1e-12)


def test_ff_rejects_origin():
    system = system_for(8)
    with pytest.raises(DegeneratePositionError):
        ff_beamformers(system, (0.0, 0.0), (1.0, 1.0))


def test_opt_dominates_ff_in_near_field():
    rng = np.random.default_rng(2)
    system = system_for(128)
    for _ in range(10):
        p, v = np.split(sample_state(rng, system), 2)
        nf = NearField(system, p)
        r_opt = cpi_throughput(nf, v, opt_beamformers(nf, v))
        r_ff = cpi_throughput(nf, v, ff_beamformers(system, p, v))
        assert r_opt >= r_ff - 1e-12


def test_feedback_latch_schedule():
    # latches at CPIs 1, 1+T, 1+2T, ...; the beamformer for CPI l may only
    # use a latch strictly before l
    assert feedback_latch_index(1, 3) == 1
    assert feedback_latch_index(2, 3) == 1
    assert feedback_latch_index(4, 3) == 1
    assert feedback_latch_index(5, 3) == 4
    assert feedback_latch_index(7, 3) == 4
    assert feedback_latch_index(8, 3) == 7
    for cpi in range(2, 40):
        latch = feedback_latch_index(cpi, 5)
        assert 1 <= latch <= cpi - 1
        assert (latch - 1) % 5 == 0
    cpis = np.arange(1, 41)
    for period in (1, 3, 5):
        want = [feedback_latch_index(int(cpi), period) for cpi in cpis]
        assert feedback_latch_index(cpis, period).tolist() == want
    with pytest.raises(ValueError):
        feedback_latch_index(np.array([3, 0, 5]), 3)


def test_fd_predicted_state_dead_reckons():
    eta0 = np.array([5.0, 10.0, 8.0, 7.0])
    traj = generate_trajectory(eta0, (0.01, 0.01), 1e-4, 12, np.random.default_rng(3))
    fd = fd_predicted_state(traj, 4, 1e-4)
    p, v = fd[8, :2], fd[8, 2:]
    latch = traj[4]  # latch index 5 (1-based) for cpi 9, period 4
    np.testing.assert_array_equal(v, latch[2:])
    np.testing.assert_allclose(p, latch[:2] + 4 * 1e-4 * latch[2:], rtol=1e-15)
    # within the first period everything reckons from CPI 1
    p1, v1 = fd[2, :2], fd[2, 2:]
    np.testing.assert_array_equal(v1, eta0[2:])
    np.testing.assert_allclose(p1, eta0[:2] + 2 * 1e-4 * eta0[2:], rtol=1e-15)


@pytest.mark.parametrize(
    "period,num_cpis",
    # the last pair is the default track schedule: 2000 CPIs, a report every 1000
    [*((t, n) for t in (1, 4, 20) for n in (1, 2, 13)), (1000, 2000)],
)
def test_fd_table_is_bit_identical_to_per_cpi_reckoning(period, num_cpis):
    traj = generate_trajectory(
        (5.0, 10.0, 8.0, 7.0), (0.01, 0.01), 1e-4, num_cpis,
        np.random.default_rng(5),
    )
    want = []
    for cpi in range(1, num_cpis + 1):
        latch = feedback_latch_index(cpi, period)
        st = traj[latch - 1]
        want.append(np.concatenate([st[:2] + (cpi - latch) * 1e-4 * st[2:], st[2:]]))
    got = fd_predicted_state(traj, period, 1e-4)
    assert got.shape == (num_cpis, 4)
    assert got.tobytes() == np.array(want).tobytes()


def test_fd_table_past_the_run_reckons_from_cpi_1():
    # a period of more CPIs than int64 holds (feedback_period_s=1e20 at the
    # default CPI) reports only at CPI 1, as any period past the last CPI does
    traj = generate_trajectory(
        (5.0, 10.0, 8.0, 7.0), (0.01, 0.01), 1e-4, 13, np.random.default_rng(5),
    )
    st = traj[0]
    want = [np.concatenate([st[:2] + (cpi - 1) * 1e-4 * st[2:], st[2:]]) for cpi in range(1, 14)]
    for period in (13, 10**24):
        assert fd_predicted_state(traj, period, 1e-4).tobytes() == np.array(want).tobytes()


def _divided_predictive(system, p, v):
    """conj(a_tilde * d(n)) built as predictive_beamformers does, then / sqrt(M)."""
    nf = NearField(system, p)
    d = geo.symbol_dopplers(v, nf)
    return np.conj(nf.steering[..., None, :] * d) / math.sqrt(system.num_antennas)


def _divided_ff(system, p, v):
    """The far-field beam built as ff_beamformers does, its element phasor / sqrt(M)."""
    def dot2(a, b):
        return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]

    p = geo.as_points(p, "position")
    u = p / np.sqrt(dot2(p, p))[..., None]
    v_radial = dot2(geo.as_points(v, "velocity"), u)
    n = np.arange(1, N_SYM + 1)
    symbol = geo.unit_phasor((-system.wavenumber * TS) * (n * v_radial[..., None]))
    element = geo.unit_phasor((-system.wavenumber * element_offsets(system)) * u[..., 0, None])
    element = element / math.sqrt(system.num_antennas)
    return symbol[..., :, None] * element[..., None, :]


@pytest.mark.parametrize("m", [1, 2, 3, 16, 128, 512, 1000])
def test_beams_are_bit_identical_to_dividing_by_sqrt_m(m):
    """Scaling by 1/sqrt(M) must give the bits of numpy's complex / sqrt(M).

    The broadside states at rest put phase exactly 0 on the far-field
    element phasors (u_x = 0) and the symbol phasors (v_radial = 0): a zero
    imaginary part whose sign a complex multiply by 1/sqrt(M) would flip.
    """
    system = system_for(m)
    rng = np.random.default_rng(m)
    states = [
        sample_state(rng, system),
        sample_broadside_state(rng),
        np.array([0.0, 10.0, 0.0, 0.0]),
        np.array([0.0, 10.0, 0.0, -3.0]),
        np.array([-3.0, 10.0, 0.0, 0.0]),
    ]
    for eta in [*states, np.stack(states)]:
        p, v = eta[..., :2], eta[..., 2:]
        want = _divided_predictive(system, p, v).tobytes()
        nf = NearField(system, p)
        got = predictive_beamformers(nf, v)
        assert got.tobytes() == want
        assert opt_beamformers(nf, v).tobytes() == want
        assert ff_beamformers(system, p, v).tobytes() == _divided_ff(system, p, v).tobytes()
