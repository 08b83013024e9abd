"""Shared samplers and independent finite-difference oracles for the tests."""

import csv

import numpy as np

from nfbeam.config import SystemConfig
from nfbeam.harness import BELIEF_COLUMNS, METRIC_COLUMNS

# SystemConfig's defaults, for oracles written out by hand
TS = SystemConfig.symbol_duration_s
N_SYM = SystemConfig.symbols_per_cpi


def system_for(m: int, signed: bool = False, **link) -> SystemConfig:
    """The default link (30 GHz, half-wavelength spacing, P = 1 W) with m
    antennas; signed picks the signed projection; link overrides other fields."""
    return SystemConfig(num_antennas=m, signed_projection=signed, **link)


def sample_state(rng: np.random.Generator, system: SystemConfig) -> np.ndarray:
    """Random [x, y, vx, vy] clear of the aperture and of |.|-convention kinks.

    x starts beyond the array edge so both projection conventions see the
    same geometry-sign structure and no antenna aligns with the target.
    """
    edge = (system.num_antennas - 1) * system.spacing / 2.0
    x = rng.uniform(edge + 0.5, edge + 8.0)
    y = rng.uniform(5.0, 30.0)
    return np.array([x, y, *rng.uniform(-15.0, 15.0, size=2)])


def sample_broadside_state(rng: np.random.Generator) -> np.ndarray:
    """Random [x, y, vx, vy] with x near 0, for signed-convention coverage."""
    x = rng.uniform(-2.0, 2.0)
    y = rng.uniform(5.0, 30.0)
    return np.array([x, y, *rng.uniform(-15.0, 15.0, size=2)])


def fd_central(fun, x0: float, step: float):
    return (fun(x0 + step) - fun(x0 - step)) / (2.0 * step)


def fd_central4(fun, x0: float, step: float):
    # 4th-order stencil; needed where the phase curvature at 30 GHz makes
    # the 2nd-order truncation term larger than the comparison tolerance
    return (
        8.0 * (fun(x0 + step) - fun(x0 - step))
        - (fun(x0 + 2.0 * step) - fun(x0 - 2.0 * step))
    ) / (12.0 * step)


def _pick(table, columns, names) -> list[tuple]:
    idx = [columns.index(name) for name in names]
    return [tuple(row) for row in table[:, idx].tolist()]


def metric_rows(result, *names) -> list[tuple]:
    """Per CPI, the named columns of a run's metrics table as a tuple of floats."""
    return _pick(result.metrics, METRIC_COLUMNS, names)


def belief_rows(result, *names) -> list[tuple]:
    """Per CPI, the named columns of an EKF run's belief table as a tuple of floats."""
    return _pick(result.belief, BELIEF_COLUMNS, names)


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """A CSV of numbers parsed with csv and float: its header and a float table,
    exact where cells are round-trip reprs."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, np.array([[float(cell) for cell in row] for row in reader])
