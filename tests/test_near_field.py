"""The per-position near-field snapshot, the cos/sin phasor, and the N×M phasor builds."""
import math
import re

import numpy as np
import pytest

from nfbeam import geometry as geo
from nfbeam.agdao import VelocityProblem
from nfbeam.beamforming import ff_beamformers, predictive_beamformers
from nfbeam.config import SystemConfig
from nfbeam.geometry import (
    DegeneratePositionError,
    NearField,
    array_response,
    doppler_vector,
    element_distances,
    element_offsets,
    steering_vector,
    symbol_dopplers,
    unit_phasor,
)
from nfbeam.ekf import observation_jacobian
from nfbeam.signals import cpi_throughput, observation_mean

from helpers import N_SYM, TS, sample_broadside_state, sample_state, system_for

SYSTEM = system_for(32)


def _state(signed):
    # broadside puts antennas on both sides, where the conventions differ;
    # the magnitude convention needs a state clear of its kinks
    rng = np.random.default_rng(41 + int(signed))
    eta = sample_broadside_state(rng) if signed else sample_state(rng, SYSTEM)
    return eta[:2], eta[2:]


def test_config_convention_reaches_the_snapshot():
    # in front of the aperture antennas sit on both sides of the target, so
    # only the signed convention gives g both signs
    front = (0.05, 3.0)
    signed = NearField(SystemConfig(signed_projection=True, num_antennas=64), front)
    default = NearField(SystemConfig(num_antennas=64), front)
    assert signed.g.min() < 0.0 < signed.g.max()
    assert default.g.min() >= 0.0
    np.testing.assert_array_equal(np.abs(signed.g), default.g)


@pytest.mark.parametrize(
    "consumer", ["observation_mean", "observation_jacobian", "VelocityProblem", "cpi_throughput"]
)
def test_consumers_read_the_snapshots_own_system(consumer):
    # two links that differ in power and pathloss at one position, with one
    # beam: the echo and its derivatives go as sqrt(P) rcs ref_gain, and the
    # downlink SNR as P ref_gain^2; a CPI of one symbol has rate log2(1 + SNR)
    p, v = (3.0, 9.0), np.array([4.0, -1.0])
    links = (
        system_for(16, symbols_per_cpi=1),
        system_for(16, symbols_per_cpi=1, tx_power_dbm=36.0, ref_gain=2.5, rcs=0.6),
    )
    near = [NearField(system, p) for system in links]
    f = predictive_beamformers(near[0], v)[-1]
    y = observation_mean(near[0], v + 0.5, f)
    read = {
        "observation_mean": lambda nf: observation_mean(nf, v, f),
        "observation_jacobian": lambda nf: np.asarray(observation_jacobian(nf, v, f)),
        "VelocityProblem": lambda nf: VelocityProblem(y, nf, f).scale,
        "cpi_throughput": lambda nf: 2.0 ** cpi_throughput(nf, v, f[None]) - 1.0,
    }[consumer]
    if consumer == "cpi_throughput":
        gain = [s.tx_power_w * s.ref_gain**2 for s in links]
    else:
        gain = [math.sqrt(s.tx_power_w) * s.rcs * s.ref_gain for s in links]
    np.testing.assert_allclose(read(near[1]), gain[1] / gain[0] * read(near[0]), rtol=1e-12)


@pytest.mark.parametrize("signed", [False, True])
def test_snapshot_fields_match_the_geometry_functions(signed):
    rng = np.random.default_rng(3)
    points = np.array([sample_broadside_state(rng)[:2] for _ in range(5)])
    near = NearField(system_for(32, signed), points)
    np.testing.assert_array_equal(near.r, element_distances(SYSTEM, points))
    np.testing.assert_array_equal(near.steering, steering_vector(SYSTEM, points))
    np.testing.assert_array_equal(
        near.steering, np.exp(-1j * SYSTEM.wavenumber * element_distances(SYSTEM, points))
    )
    r = element_distances(SYSTEM, points)
    ux, uy = points[:, :1] - element_offsets(SYSTEM), points[:, 1:]
    fold = np.positive if signed else np.abs
    np.testing.assert_array_equal(near.g, fold(ux) / r)
    np.testing.assert_array_equal(near.q, fold(uy) / r)
    assert near.position.shape == (5, 2) and near.uy.shape == (5, 1)


@pytest.mark.parametrize("signed", [False, True])
def test_indexed_snapshot_equals_a_single_build(signed):
    rng = np.random.default_rng(4)
    points = np.array([sample_broadside_state(rng)[:2] for _ in range(6)])
    system = system_for(32, signed)
    near = NearField(system, points.reshape(2, 3, 2))
    part = near[1, 2]
    single = NearField(system, points[5])
    assert part.system is system
    for name in ("position", "r", "ux", "uy", "steering", "g", "q"):
        np.testing.assert_array_equal(getattr(part, name), getattr(single, name))
    # indexing fewer axes leaves a batch snapshot
    assert near[1].r.shape == (3, SYSTEM.num_antennas)


@pytest.mark.parametrize("where", ["single", "batch"])
def test_degenerate_position_in_a_snapshot_is_rejected(where):
    on_antenna = np.array([element_offsets(SYSTEM)[4], 0.0])
    later = np.array([element_offsets(SYSTEM)[9], 0.0])
    p = on_antenna if where == "single" else np.array([[3.0, 9.0], on_antenna, later])
    first = re.escape(f"position {on_antenna.tolist()}")
    with pytest.raises(DegeneratePositionError, match=first):
        NearField(SYSTEM, p)


def test_snapshot_carries_its_gains_and_refuses_the_array_center():
    system = system_for(32, ref_gain=1.5, rcs=2.0)
    rng = np.random.default_rng(5)
    points = np.array([sample_broadside_state(rng)[:2] for _ in range(6)]).reshape(2, 3, 2)
    for p in (points[0, 1], points):
        nf = NearField(system, p)
        rr = p[..., 0] ** 2 + p[..., 1] ** 2
        np.testing.assert_array_equal(nf.alpha1, 1.5 / rr)
        np.testing.assert_array_equal(nf.alpha2, 2.0 * 1.5 / (4.0 * rr))
        assert np.shape(nf.alpha1) == np.shape(nf.alpha2) == p.shape[:-1]
    assert type(NearField(system, points[0, 1]).alpha1) is np.float64
    # an indexed part carries the batch's gains, bit for bit
    near = NearField(system, points)
    part = near[1, 2]
    assert part.alpha1 == near.alpha1[1, 2] and part.alpha2 == near.alpha2[1, 2]
    assert type(part.alpha1) is np.float64
    # with M even no antenna sits at the center, so the snapshot itself refuses it
    with pytest.raises(DegeneratePositionError, match="the array center"):
        NearField(system, (0.0, 0.0))
    # a batch names its first antenna contact before any center
    on_antenna = [element_offsets(system)[4], 0.0]
    with pytest.raises(DegeneratePositionError, match="an antenna"):
        NearField(system, [[0.0, 0.0], on_antenna])


@pytest.mark.parametrize("shape", [(), (SYSTEM.num_antennas,), (4, N_SYM, SYSTEM.num_antennas)])
@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_unit_phasor_matches_complex_exp(shape, scale):
    rng = np.random.default_rng(int(scale) % 1000 + len(shape))
    theta = rng.uniform(-scale, scale, shape)
    got = unit_phasor(theta)
    want = np.exp(1j * theta)
    assert got.shape == np.shape(want) and got.dtype == np.complex128
    np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
    np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)


def test_unit_phasor_exact_points():
    got = unit_phasor([0.0, -0.0, np.pi / 2])
    assert got[0] == 1.0 and got[1] == 1.0
    assert np.signbit(got[1].imag) and not np.signbit(got[0].imag)
    assert abs(got[2] - 1j) < 1e-15


EPS = np.finfo(float).eps
BATCHES = [(), (3,), (2, 3)]


def _states_both_sides(rng, system, batch):
    # x beyond either array edge, speeds up to 50 m/s on each axis
    edge = (system.num_antennas - 1) * system.spacing / 2.0
    x = rng.choice([-1.0, 1.0], batch) * rng.uniform(edge + 0.5, edge + 8.0, batch)
    p = np.stack([x, rng.uniform(3.0, 30.0, batch)], axis=-1)
    return p, rng.uniform(-50.0, 50.0, batch + (2,))


def _ld_phasor(theta):
    theta = np.asarray(theta, dtype=np.longdouble)
    return np.cos(theta), np.sin(theta)


def _ld_error(z, re, im):
    """|z - (re + j im)| with the difference taken in long double."""
    dre = z.real.astype(np.longdouble) - re
    dim = z.imag.astype(np.longdouble) - im
    return float(np.max(np.sqrt(dre * dre + dim * dim)))


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("num_symbols", [1, 2, 10, 64, 256])
def test_symbol_doppler_recurrence_against_long_double(num_symbols, signed, batch):
    rng = np.random.default_rng(num_symbols + 7 * len(batch) + 100 * signed)
    system = system_for(32, signed, symbols_per_cpi=num_symbols)
    p, v = _states_both_sides(rng, system, batch)
    nf = NearField(system, p)
    d = symbol_dopplers(v, nf)
    assert d.shape == batch + (num_symbols, SYSTEM.num_antennas)
    assert np.array_equal(d[..., 0, :], doppler_vector(1, v, nf))
    vm = (nf.g * v[..., 0, None] + nf.q * v[..., 1, None]).astype(np.longdouble)
    n = np.arange(1, num_symbols + 1, dtype=np.longdouble)
    k_ts = np.longdouble(SYSTEM.wavenumber) * np.longdouble(TS)
    re, im = _ld_phasor(-k_ts * n[:, None] * vm[..., None, :])
    bound = 2.0 * num_symbols * EPS
    assert _ld_error(d, re, im) <= bound
    assert np.max(np.abs(np.abs(d) - 1.0)) <= bound


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("num_symbols", [1, 10, 64])
def test_ff_outer_product_against_long_double(num_symbols, batch):
    system = system_for(512, symbols_per_cpi=num_symbols)
    rng = np.random.default_rng(num_symbols + 7 * len(batch))
    p, v = _states_both_sides(rng, system, batch)
    f = ff_beamformers(system, p, v)
    assert f.shape == batch + (num_symbols, system.num_antennas)
    p, v = p.astype(np.longdouble), v.astype(np.longdouble)
    u = p / np.sqrt(np.sum(p * p, axis=-1))[..., None]
    v_r = np.sum(v * u, axis=-1)
    n = np.arange(1, num_symbols + 1, dtype=np.longdouble)
    x = element_offsets(system).astype(np.longdouble)
    phase = np.longdouble(system.wavenumber) * (
        n[:, None] * np.longdouble(TS) * v_r[..., None, None] + x * u[..., 0, None, None]
    )
    re, im = _ld_phasor(-phase)
    scale = math.sqrt(system.num_antennas)
    assert scale * _ld_error(f, re / scale, im / scale) <= 8.0 * EPS * float(np.max(np.abs(phase)))


def _counting_doppler(monkeypatch):
    calls = []
    build = doppler_vector

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(geo, "doppler_vector", counted)
    return calls


def test_snapshot_returns_its_array_response_read_only(monkeypatch):
    calls = _counting_doppler(monkeypatch)
    p, v = _state(True)
    nf = NearField(SYSTEM, p)
    first = array_response(N_SYM, v, nf)
    again = array_response(N_SYM, tuple(v), nf)
    assert again is first and len(calls) == 1
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    fresh = NearField(SYSTEM, p)
    expected = fresh.steering * doppler_vector(N_SYM, v, fresh)
    np.testing.assert_array_equal(first, expected)


@pytest.mark.parametrize("change", ["n", "vx", "vy"])
def test_snapshot_rebuilds_the_response_when_an_input_changes(monkeypatch, change):
    p, v = _state(False)
    nf = NearField(SYSTEM, p)
    n, v = N_SYM, v.copy()
    first = array_response(n, v, nf)
    if change == "n":
        n += 1
    else:
        v[0 if change == "vx" else 1] += 0.25
    calls = _counting_doppler(monkeypatch)
    fresh = array_response(n, v, nf)
    assert fresh is not first and len(calls) == 1
    np.testing.assert_array_equal(fresh, array_response(n, v, NearField(SYSTEM, p)))
    assert not np.array_equal(fresh, first)
    # the snapshot now holds the new response
    assert array_response(n, v, nf) is fresh


def test_snapshot_parts_start_without_a_response():
    rng = np.random.default_rng(8)
    states = np.array([sample_state(rng, SYSTEM) for _ in range(3)])
    p, v = states[:, :2], states[:, 2:]
    nf = NearField(SYSTEM, p)
    whole = array_response(N_SYM, v, nf)
    assert nf.response[1] is whole
    part = nf[1]
    assert part.response == (None, None)
    row = array_response(N_SYM, v[1], part)
    assert row is not whole[1] and row.shape == (SYSTEM.num_antennas,)
    np.testing.assert_array_equal(row, whole[1])

