"""The leading batch axis of the per-position functions.

A batch of K states must give, bit for bit, what K single-state calls give,
and must fail as a single call would on any one bad position.
"""
import re

import numpy as np
import pytest

from nfbeam.beamforming import ff_beamformers, opt_beamformers, predictive_beamformers
from nfbeam.geometry import (
    DegeneratePositionError,
    NearField,
    doppler_vector,
    element_distances,
    element_offsets,
    steering_vector,
)
from nfbeam.signals import cpi_throughput

from helpers import N_SYM, sample_broadside_state, sample_state, system_for

# a link off the defaults: pathloss gains and a transmit power other than 1
LINK = dict(ref_gain=1.5, rcs=2.0, tx_power_dbm=33.0)
SYSTEM = system_for(32, **LINK)
K = 7


def _states(seed):
    """K states [x, y, vx, vy], shape (K, 4)."""
    rng = np.random.default_rng(seed)
    # broadside states put antennas on both sides, where the conventions differ
    return np.array(
        [sample_state(rng, SYSTEM) if k % 2 else sample_broadside_state(rng) for k in range(K)]
    )


def _pv(eta):
    return eta[..., :2], eta[..., 2:]


def _calls(signed):
    """name -> one call (p, v) for one state, shape (2,), or a batch, shape (..., 2)."""
    system = system_for(32, signed, **LINK)

    def projection_coeffs(p, v):
        nf = NearField(system, p)
        return np.stack([nf.g, nf.q], axis=-2)

    return {
        "element_distances": lambda p, v: element_distances(SYSTEM, p),
        "steering_vector": lambda p, v: steering_vector(SYSTEM, p),
        "projection_coeffs": projection_coeffs,
        # the radial speeds, read through the Doppler phasor they drive
        "radial_speeds": lambda p, v: doppler_vector(1, v, NearField(system, p)),
        "pathloss_downlink": lambda p, v: NearField(SYSTEM, p).alpha1,
        "pathloss_roundtrip": lambda p, v: NearField(SYSTEM, p).alpha2,
        "predictive_beamformers": lambda p, v: predictive_beamformers(NearField(system, p), v),
        "opt_beamformers": lambda p, v: opt_beamformers(NearField(system, p), v),
        "ff_beamformers": lambda p, v: ff_beamformers(SYSTEM, p, v),
        # the far-field beam: partial gains, and no check on antenna contact
        "cpi_throughput": lambda p, v: cpi_throughput(
            NearField(system, p), v, ff_beamformers(SYSTEM, p, v)
        ),
    }


NAMES = sorted(_calls(False))
POSITION_ONLY = {
    "element_distances", "steering_vector", "projection_coeffs",
    "pathloss_downlink", "pathloss_roundtrip",
}


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_batch_equals_stacked_single_calls(name, signed):
    states = _states(11)
    call = _calls(signed)[name]
    batched = call(*_pv(states))
    stacked = np.stack([call(*_pv(s)) for s in states])
    assert batched.shape == stacked.shape
    np.testing.assert_array_equal(batched, stacked)
    # and with two batch axes
    grid = states[:6].reshape(2, 3, 4)
    np.testing.assert_array_equal(call(*_pv(grid)).reshape(stacked[:6].shape), stacked[:6])


@pytest.mark.parametrize("signed", [False, True])
def test_throughput_scores_stacked_beams_on_each_state(signed):
    # the harness scores the opt, ff and fd beams of a chunk in one call
    system = system_for(32, signed, **LINK)
    states = _states(16)
    p, v = _pv(states)
    nf = NearField(system, p)
    beams = np.stack([opt_beamformers(nf, v), ff_beamformers(SYSTEM, p, v)])
    rates = cpi_throughput(nf, v, beams)
    want = [
        [cpi_throughput(NearField(system, s[:2]), s[2:], bf) for s, bf in zip(states, beams[b])]
        for b in range(2)
    ]
    np.testing.assert_array_equal(rates, want)


def test_single_state_keeps_its_types():
    p, v = _pv(_states(12)[0])
    nf = NearField(SYSTEM, p)
    assert type(nf.alpha1) is np.float64 and type(nf.alpha2) is np.float64
    bf = opt_beamformers(nf, v)
    assert type(cpi_throughput(nf, v, bf)) is float
    assert bf.shape == (N_SYM, SYSTEM.num_antennas)


def _batch_with(*bad):
    """A batch of K states with the given (index, position) pairs swapped in."""
    batch = _states(14)
    for k, p in bad:
        batch[k, :2] = p
    return _pv(batch)


@pytest.mark.parametrize(
    "name", [n for n in NAMES if not n.startswith("pathloss") and n != "ff_beamformers"]
)
def test_batch_with_a_position_on_an_antenna_is_rejected(name):
    first, second = np.stack([element_offsets(SYSTEM)[[5, 9]], [0.0, 0.0]], axis=-1)
    batch = _batch_with((4, first), (6, second))
    # the message names the first degenerate position of the batch
    with pytest.raises(DegeneratePositionError, match=re.escape(str(first.tolist()))):
        _calls(False)[name](*batch)


@pytest.mark.parametrize("name", ["pathloss_downlink", "pathloss_roundtrip", "ff_beamformers"])
def test_batch_with_a_position_at_the_origin_is_rejected(name):
    batch = _batch_with((3, (0.0, 0.0)))
    with pytest.raises(DegeneratePositionError, match=re.escape("[0.0, 0.0]")):
        _calls(False)[name](*batch)


@pytest.mark.parametrize("shape", [(3,), (K, 3), ()])
@pytest.mark.parametrize("name", NAMES)
def test_wrong_trailing_axis_is_rejected(name, shape):
    p, v = _pv(_states(15)[0])
    call = _calls(False)[name]
    with pytest.raises(ValueError, match=r"must have shape \(\.\.\., 2\)"):
        call(np.ones(shape), v)
    if name not in POSITION_ONLY:
        with pytest.raises(ValueError, match=r"velocity must have shape \(\.\.\., 2\)"):
            call(p, np.ones(shape))
