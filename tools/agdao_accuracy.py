#!/usr/bin/env python3
"""Print AGD-AO's iterations and velocity error per (antennas, power) cell.

    PYTHONPATH=src python3 tools/agdao_accuracy.py [--antennas 128 512]
        [--powers 10 20 30 40] [--seeds N] [--cpis C]

Each cell runs the closed loop (``run_experiment``, method agdao, every
other setting at its default) for seeds 0..N-1, C CPIs each. It prints the
AGD-AO iterations per CPI, the share of CPIs that end at ``max_iters``, the
mean |verr| per axis in m/s over all the runs' CPIs, and the mean 2-dof NEES
e^T P+^-1 e of the tracked CPIs, with e = v_hat - v from the metrics table and
P+ the velocity covariance that ``agdao_track_step`` returned for that CPI. A
consistent covariance gives a mean NEES near 2, chi-square(2)'s mean. It imports
the ``nfbeam`` on PYTHONPATH, so one copy of this script measures any checkout.
"""
from __future__ import annotations

import argparse
import os

if __name__ == "__main__":  # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np  # noqa: E402

from nfbeam import harness  # noqa: E402
from nfbeam.config import ExperimentConfig, SystemConfig  # noqa: E402

HEADER = (
    "| M | dBm | seeds x CPIs | iters/CPI | share at max_iters | mean \\|verr\\| x, y (m/s) "
    "| mean NEES |\n"
    "| --- | --- | --- | --- | --- | --- | --- |"
)


def cell(num_antennas: int, dbm: float, seeds: int, cpis: int):
    """(iterations per CPI, share at max_iters, mean |verr| x, mean |verr| y, mean NEES)."""
    iters, covs, verr, nees = [], [], [], []
    step = harness.agdao_track_step

    def counted(*args, **kwargs):
        out = step(*args, **kwargs)
        iters.append(len(out[3]) - 1)
        covs.append(out[4])
        return out

    harness.agdao_track_step = counted
    try:
        for seed in range(seeds):
            system = SystemConfig(num_antennas=num_antennas, tx_power_dbm=float(dbm))
            config = ExperimentConfig(method="agdao", num_cpis=cpis, seed=seed, system=system)
            result = harness.run_experiment(config)
            summary = result.summary()
            verr.append((summary["mean_verr_x"], summary["mean_verr_y"]))
            # step i fills row i of the table: CPI 1 is not tracked
            column = dict(zip(harness.METRIC_COLUMNS, result.metrics[1:].T))
            e = np.column_stack([column["vx_hat"] - column["vx"], column["vy_hat"] - column["vy"]])
            p_inv_e = np.linalg.solve(np.array(covs), e[..., None])[..., 0]
            nees.extend(np.einsum("ki,ki->k", e, p_inv_e))
            covs.clear()
    finally:
        harness.agdao_track_step = step
    iters = np.array(iters)
    return (iters.mean(), float(np.mean(iters >= config.adam.max_iters)),
            *np.mean(verr, axis=0), float(np.mean(nees)))


def table(antennas=(128, 512), powers=(10, 20, 30, 40), seeds: int = 6, cpis: int = 200):
    """Yield the markdown header, then one row per cell."""
    yield HEADER
    for m in antennas:
        for dbm in powers:
            n, share, vx, vy, nees = cell(m, dbm, seeds, cpis)
            yield (f"| {m} | {dbm:g} | {seeds} x {cpis} | {n:.1f} | {share:.3f} "
                   f"| {vx:.4g}, {vy:.4g} | {nees:.3g} |")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--antennas", type=int, nargs="+", default=[128, 512])
    parser.add_argument("--powers", type=float, nargs="+", default=[10.0, 20.0, 30.0, 40.0])
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--cpis", type=int, default=200)
    args = parser.parse_args()
    for line in table(args.antennas, args.powers, args.seeds, args.cpis):
        print(line, flush=True)
