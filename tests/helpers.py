"""Shared samplers and independent finite-difference oracles for the tests."""

import csv
import dataclasses

import numpy as np

from nfbeam.geometry import ArrayGeometry, PathlossModel
from nfbeam.harness import MetricRow

CARRIER = 30e9
TS = 1e-5
N_SYM = 10


def geom_for(m: int, signed: bool = False) -> ArrayGeometry:
    """Half-wavelength array of m antennas; signed picks the signed projection."""
    geom = ArrayGeometry.half_wavelength(m, CARRIER)
    return dataclasses.replace(geom, signed_projection=signed)


def sample_state(rng: np.random.Generator, geom: ArrayGeometry) -> np.ndarray:
    """Random [x, y, vx, vy] clear of the aperture and of |.|-convention kinks.

    x starts beyond the array edge so both projection conventions see the
    same geometry-sign structure and no antenna aligns with the target.
    """
    edge = geom.aperture / 2.0
    x = rng.uniform(edge + 0.5, edge + 8.0)
    y = rng.uniform(5.0, 30.0)
    return np.array([x, y, *rng.uniform(-15.0, 15.0, size=2)])


def sample_broadside_state(rng: np.random.Generator) -> np.ndarray:
    """Random [x, y, vx, vy] with x near 0, for signed-convention coverage."""
    x = rng.uniform(-2.0, 2.0)
    y = rng.uniform(5.0, 30.0)
    return np.array([x, y, *rng.uniform(-15.0, 15.0, size=2)])


def fd_central(fun, x0: float, step: float) -> float:
    return (fun(x0 + step) - fun(x0 - step)) / (2.0 * step)


def fd_central4(fun, x0: float, step: float) -> float:
    # 4th-order stencil; needed where the phase curvature at 30 GHz makes
    # the 2nd-order truncation term larger than the comparison tolerance
    return (
        8.0 * (fun(x0 + step) - fun(x0 - step))
        - (fun(x0 + 2.0 * step) - fun(x0 - 2.0 * step))
    ) / (12.0 * step)


def fd_central_vec(fun, x0: float, step: float) -> np.ndarray:
    return (fun(x0 + step) - fun(x0 - step)) / (2.0 * step)


def fd_central4_vec(fun, x0: float, step: float) -> np.ndarray:
    return (
        8.0 * (fun(x0 + step) - fun(x0 - step))
        - (fun(x0 + 2.0 * step) - fun(x0 - 2.0 * step))
    ) / (12.0 * step)


def default_model() -> PathlossModel:
    return PathlossModel()


def read_metric_rows(path) -> list[MetricRow]:
    """metrics.csv parsed with csv and float: exact where cells are round-trip reprs."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        assert next(reader) == [field.name for field in dataclasses.fields(MetricRow)]
        return [MetricRow(int(row[0]), *map(float, row[1:])) for row in reader]
