#!/usr/bin/env python3
"""Print the ms/CPI table of nfbeam's closed loop, one row per method.

    python3 tools/cpi_ms.py

Each cell times ``run_experiment`` with every default but the method and
the number of antennas, over 400 CPIs. Every cell gets the same time
budget, 10 s, spent in 3 rounds over all cells: in each round a cell repeats
calls until its third of the budget is spent, at least once. It reports
the median call and how many calls it made. Each call is rescaled, as
perfbench's child.py rescales a run, to the speed at which its reference
loop takes REFERENCE_FAST_S. The methods are opt, ff, fd (the baselines
and logging only), ekf and agdao, at M = 128 and M = 512. Beside each
figure the table gives the run's mean |verr| (x, y) in m/s. It runs this
checkout's ``src/`` with one BLAS thread and prints the CPU model and the
numpy and Python versions above the table.
"""
from __future__ import annotations

import importlib.util
import os
import platform
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # before numpy loads its BLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from nfbeam.config import ExperimentConfig, SystemConfig  # noqa: E402
from nfbeam.harness import METRIC_COLUMNS, run_experiment  # noqa: E402


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# perfbench's reference loop and its fast-state time, and the CPU model as
# tools/bench_record.py reads it, loaded by path so that their module names
# stay off sys.path
child = _load("perfbench_child", ROOT / "perfbench" / "child.py")
cpu_model = _load("bench_record", ROOT / "tools" / "bench_record.py").cpu_model

METHODS = ("opt", "ff", "fd", "ekf", "agdao")
ANTENNAS = (128, 512)


def timed_run(method: str, num_antennas: int, num_cpis: int) -> tuple[float, np.ndarray]:
    """(seconds at the reference's fast speed, mean |verr| (x, y)) of one call.

    As in perfbench's child.py, the call is cut at CPI ends at least
    SAMPLE_EVERY_S apart, the reference loop is timed at each cut, and each
    segment is rescaled by the mean of the references around it.
    """
    config = ExperimentConfig(
        method=method, num_cpis=num_cpis,
        system=SystemConfig(num_antennas=num_antennas),
    )
    segments, refs = [], [child.reference_s()]
    cut = time.perf_counter()

    def sample(cpi=None, _num_cpis=None):
        # run_experiment calls this after each CPI; None marks the call's end
        nonlocal cut
        now = time.perf_counter()
        if cpi is None or now - cut >= child.SAMPLE_EVERY_S:
            segments.append(now - cut)
            refs.append(child.reference_s())
            cut = time.perf_counter()

    metrics = run_experiment(config, sample).metrics
    sample()
    seconds = sum(seg * 2.0 * child.REFERENCE_FAST_S / (refs[i] + refs[i + 1])
                  for i, seg in enumerate(segments))
    verr = [METRIC_COLUMNS.index("verr_x"), METRIC_COLUMNS.index("verr_y")]
    return seconds, metrics[:, verr].mean(axis=0)


def table(num_cpis: int = 400, antennas=ANTENNAS, budget_s: float = 10.0, rounds: int = 3):
    """Yield the header lines, then one markdown row per method.

    Each cell repeats calls for budget_s of wall time, so a short cell makes
    many calls where a long one makes few. The budget is spent in rounds over
    all cells, so a cell's calls are spread over the whole run, not taken in
    one spell of the host's CPU speed. The median, not the fastest call:
    over hundreds of short calls the fastest one is an outlier of the
    rescaling.
    """
    yield from [
        f"CPU: {cpu_model()}; numpy {np.__version__}; Python {platform.python_version()}",
        f"ms/CPI: median of the run_experiment calls of {num_cpis} CPIs that fit in "
        f"{budget_s:g} s per cell, in {rounds} interleaved rounds, at a reference loop "
        f"time of {1e3 * child.REFERENCE_FAST_S:.2f} ms",
        "",
        "| method | "
        + " | ".join(
            f"M={m} ms/CPI | M={m} calls | M={m} mean \\|verr\\| x, y (m/s)" for m in antennas
        )
        + " |",
        "| --- |" + " --- | --- | --- |" * len(antennas),
    ]
    cells = [(method, m) for method in METHODS for m in antennas]
    times = {cell: [] for cell in cells}
    verr = {}
    for _ in range(rounds):
        for cell in cells:
            end = time.perf_counter() + budget_s / rounds
            while True:
                seconds, verr[cell] = timed_run(*cell, num_cpis)
                times[cell].append(seconds)
                if time.perf_counter() >= end:
                    break
    for method in METHODS:
        row = []
        for m in antennas:
            vx, vy = verr[method, m]
            cell = times[method, m]
            row += [f"{1e3 * statistics.median(cell) / num_cpis:.3f}", str(len(cell)),
                    f"{vx:.3g}, {vy:.3g}"]
        yield f"| {method} | " + " | ".join(row) + " |"


if __name__ == "__main__":
    for line in table():
        print(line, flush=True)
