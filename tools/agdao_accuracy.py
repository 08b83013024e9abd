#!/usr/bin/env python3
"""Print AGD-AO's iterations and velocity error per (antennas, power) cell.

    PYTHONPATH=src python3 tools/agdao_accuracy.py [--antennas 128 512]
        [--powers 10 20 30 40] [--seeds N] [--cpis C]

Each cell runs the closed loop (``run_experiment``, method agdao, every
other setting at its default) for seeds 0..N-1, C CPIs each. It prints the
AGD-AO iterations per CPI, the share of CPIs that end at ``max_iters`` and
the mean |verr| per axis in m/s over all the runs' CPIs. It imports the
``nfbeam`` on PYTHONPATH, so one copy of this script measures any checkout.
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
    "| M | dBm | seeds x CPIs | iters/CPI | share at max_iters | mean \\|verr\\| x, y (m/s) |\n"
    "| --- | --- | --- | --- | --- | --- |"
)


def cell(num_antennas: int, dbm: float, seeds: int, cpis: int):
    """(iterations per CPI, share at max_iters, mean |verr| x, mean |verr| y)."""
    iters, verr = [], []
    step = harness.agdao_track_step

    def counted(*args, **kwargs):
        out = step(*args, **kwargs)
        iters.append(len(out[3]) - 1)
        return out

    harness.agdao_track_step = counted
    try:
        for seed in range(seeds):
            system = SystemConfig(num_antennas=num_antennas, tx_power_dbm=float(dbm))
            config = ExperimentConfig(method="agdao", num_cpis=cpis, seed=seed, system=system)
            summary = harness.run_experiment(config).summary()
            verr.append((summary["mean_verr_x"], summary["mean_verr_y"]))
    finally:
        harness.agdao_track_step = step
    iters = np.array(iters)
    return (iters.mean(), float(np.mean(iters >= config.adam.max_iters)), *np.mean(verr, axis=0))


def table(antennas=(128, 512), powers=(10, 20, 30, 40), seeds: int = 6, cpis: int = 200):
    """Yield the markdown header, then one row per cell."""
    yield HEADER
    for m in antennas:
        for dbm in powers:
            n, share, vx, vy = cell(m, dbm, seeds, cpis)
            yield (f"| {m} | {dbm:g} | {seeds} x {cpis} | {n:.1f} | {share:.3f} "
                   f"| {vx:.4g}, {vy:.4g} |")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--antennas", type=int, nargs="+", default=[128, 512])
    parser.add_argument("--powers", type=float, nargs="+", default=[10.0, 20.0, 30.0, 40.0])
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--cpis", type=int, default=200)
    args = parser.parse_args()
    for line in table(args.antennas, args.powers, args.seeds, args.cpis):
        print(line, flush=True)
