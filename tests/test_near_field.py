"""The per-position near-field snapshot, the cos/sin phasor, and the N×M phasor builds."""
import math
import re

import numpy as np
import pytest

from nfbeam import geometry as geo
from nfbeam.beamforming import ff_beamformers
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

from helpers import N_SYM, TS, geom_for, sample_broadside_state, sample_state

GEOM = geom_for(32)


def _state(signed):
    # broadside puts antennas on both sides, where the conventions differ;
    # the magnitude convention needs a state clear of its kinks
    rng = np.random.default_rng(41 + int(signed))
    eta = sample_broadside_state(rng) if signed else sample_state(rng, GEOM)
    return eta[:2], eta[2:]


def test_config_convention_reaches_the_snapshot():
    # in front of the aperture antennas sit on both sides of the target, so
    # only the signed convention gives g both signs
    front = (0.05, 3.0)
    signed = NearField(SystemConfig(signed_projection=True, num_antennas=64).geometry(), front)
    default = NearField(SystemConfig(num_antennas=64).geometry(), front)
    assert signed.g.min() < 0.0 < signed.g.max()
    assert default.g.min() >= 0.0
    np.testing.assert_array_equal(np.abs(signed.g), default.g)


@pytest.mark.parametrize("signed", [False, True])
def test_snapshot_fields_match_the_geometry_functions(signed):
    rng = np.random.default_rng(3)
    points = np.array([sample_broadside_state(rng)[:2] for _ in range(5)])
    near = NearField(geom_for(32, signed), points)
    np.testing.assert_array_equal(near.r, element_distances(GEOM, points))
    np.testing.assert_array_equal(near.steering, steering_vector(GEOM, points))
    np.testing.assert_array_equal(
        near.steering, np.exp(-1j * GEOM.wavenumber * element_distances(GEOM, points))
    )
    r = element_distances(GEOM, points)
    ux, uy = points[:, :1] - element_offsets(GEOM), points[:, 1:]
    fold = np.positive if signed else np.abs
    np.testing.assert_array_equal(near.g, fold(ux) / r)
    np.testing.assert_array_equal(near.q, fold(uy) / r)
    assert near.position.shape == (5, 2) and near.uy.shape == (5, 1)


@pytest.mark.parametrize("signed", [False, True])
def test_indexed_snapshot_equals_a_single_build(signed):
    rng = np.random.default_rng(4)
    points = np.array([sample_broadside_state(rng)[:2] for _ in range(6)])
    geom = geom_for(32, signed)
    near = NearField(geom, points.reshape(2, 3, 2))
    part = near[1, 2]
    single = NearField(geom, points[5])
    assert part.geom == geom
    for name in ("position", "r", "ux", "uy", "steering", "g", "q"):
        np.testing.assert_array_equal(getattr(part, name), getattr(single, name))
    # indexing fewer axes leaves a batch snapshot
    assert near[1].r.shape == (3, GEOM.num_antennas)


@pytest.mark.parametrize("where", ["single", "batch"])
def test_degenerate_position_in_a_snapshot_is_rejected(where):
    on_antenna = np.array([element_offsets(GEOM)[4], 0.0])
    later = np.array([element_offsets(GEOM)[9], 0.0])
    p = on_antenna if where == "single" else np.array([[3.0, 9.0], on_antenna, later])
    first = re.escape(f"position {on_antenna.tolist()}")
    with pytest.raises(DegeneratePositionError, match=first):
        NearField(GEOM, p)


@pytest.mark.parametrize(
    "shape", [(), (GEOM.num_antennas,), (4, N_SYM, GEOM.num_antennas)]
)
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


def _states_both_sides(rng, geom, batch):
    # x beyond either array edge, speeds up to 50 m/s on each axis
    edge = geom.aperture / 2.0
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
    geom = geom_for(32, signed)
    p, v = _states_both_sides(rng, geom, batch)
    nf = NearField(geom, p)
    d = symbol_dopplers(num_symbols, TS, v, nf)
    assert d.shape == batch + (num_symbols, GEOM.num_antennas)
    assert np.array_equal(d[..., 0, :], doppler_vector(1, TS, v, nf))
    vm = (nf.g * v[..., 0, None] + nf.q * v[..., 1, None]).astype(np.longdouble)
    n = np.arange(1, num_symbols + 1, dtype=np.longdouble)
    k_ts = np.longdouble(GEOM.wavenumber) * np.longdouble(TS)
    re, im = _ld_phasor(-k_ts * n[:, None] * vm[..., None, :])
    bound = 2.0 * num_symbols * EPS
    assert _ld_error(d, re, im) <= bound
    assert np.max(np.abs(np.abs(d) - 1.0)) <= bound


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("num_symbols", [1, 10, 64])
def test_ff_outer_product_against_long_double(num_symbols, batch):
    geom = geom_for(512)
    rng = np.random.default_rng(num_symbols + 7 * len(batch))
    p, v = _states_both_sides(rng, geom, batch)
    f = ff_beamformers(geom, p, v, num_symbols, TS)
    assert f.shape == batch + (num_symbols, geom.num_antennas)
    p, v = p.astype(np.longdouble), v.astype(np.longdouble)
    u = p / np.sqrt(np.sum(p * p, axis=-1))[..., None]
    v_r = np.sum(v * u, axis=-1)
    n = np.arange(1, num_symbols + 1, dtype=np.longdouble)
    x = element_offsets(geom).astype(np.longdouble)
    phase = np.longdouble(geom.wavenumber) * (
        n[:, None] * np.longdouble(TS) * v_r[..., None, None] + x * u[..., 0, None, None]
    )
    re, im = _ld_phasor(-phase)
    scale = math.sqrt(geom.num_antennas)
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
    nf = NearField(GEOM, p)
    first = array_response(N_SYM, TS, v, nf)
    again = array_response(N_SYM, TS, tuple(v), nf)
    assert again is first and len(calls) == 1
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    fresh = NearField(GEOM, p)
    expected = fresh.steering * doppler_vector(N_SYM, TS, v, fresh)
    np.testing.assert_array_equal(first, expected)


@pytest.mark.parametrize("change", ["n", "symbol_duration", "vx", "vy"])
def test_snapshot_rebuilds_the_response_when_an_input_changes(monkeypatch, change):
    p, v = _state(False)
    nf = NearField(GEOM, p)
    args = {"n": N_SYM, "symbol_duration": TS, "v": v.copy()}
    first = array_response(args["n"], args["symbol_duration"], args["v"], nf)
    if change == "n":
        args["n"] += 1
    elif change == "symbol_duration":
        args["symbol_duration"] *= 1.5
    else:
        args["v"][0 if change == "vx" else 1] += 0.25
    calls = _counting_doppler(monkeypatch)
    fresh = array_response(args["n"], args["symbol_duration"], args["v"], nf)
    assert fresh is not first and len(calls) == 1
    np.testing.assert_array_equal(
        fresh,
        array_response(args["n"], args["symbol_duration"], args["v"], NearField(GEOM, p)),
    )
    assert not np.array_equal(fresh, first)
    # the snapshot now holds the new response
    assert array_response(args["n"], args["symbol_duration"], args["v"], nf) is fresh


def test_snapshot_parts_start_without_a_response():
    rng = np.random.default_rng(8)
    states = np.array([sample_state(rng, GEOM) for _ in range(3)])
    p, v = states[:, :2], states[:, 2:]
    nf = NearField(GEOM, p)
    whole = array_response(N_SYM, TS, v, nf)
    assert nf.response[1] is whole
    part = nf[1]
    assert part.response == (None, None)
    row = array_response(N_SYM, TS, v[1], part)
    assert row is not whole[1] and row.shape == (GEOM.num_antennas,)
    np.testing.assert_array_equal(row, whole[1])

