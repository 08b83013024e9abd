#!/usr/bin/env python3
"""Print the ms/CPI table of nfbeam's closed loop, one row per method.

    python3 tools/cpi_ms.py

Each cell times ``run_experiment`` with every default but the method and
the number of antennas, over 400 CPIs, and keeps the fastest of 3 calls,
taken in 3 rounds over all cells. Each call is rescaled, as perfbench's
child.py rescales a run, to the speed at which its reference loop takes
REFERENCE_FAST_S. The methods are opt, ff, fd (the baselines and logging
only), ekf and agdao, at M = 128 and M = 512. Beside each figure the table
gives the run's mean |verr| (x, y) in m/s. It runs this checkout's ``src/``
with one BLAS thread and prints the CPU model and the numpy and Python
versions above the table.
"""
from __future__ import annotations

import importlib.util
import os
import platform
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
from nfbeam.harness import run_experiment  # noqa: E402

# perfbench's reference loop and its fast-state time, loaded by path so that
# perfbench's module names stay off sys.path
_spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
child = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(child)

METHODS = ("opt", "ff", "fd", "ekf", "agdao")
ANTENNAS = (128, 512)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


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

    rows = run_experiment(config, sample).rows
    sample()
    seconds = sum(seg * 2.0 * child.REFERENCE_FAST_S / (refs[i] + refs[i + 1])
                  for i, seg in enumerate(segments))
    return seconds, np.array([(row.verr_x, row.verr_y) for row in rows]).mean(axis=0)


def table(num_cpis: int = 400, antennas=ANTENNAS, repeats: int = 3):
    """Yield the header lines, then one markdown row per method.

    The repeats are interleaved: each round times every cell once, so the
    fastest call of a cell is taken from calls spread over the whole run,
    not from one spell of the host's CPU speed.
    """
    yield from [
        f"CPU: {cpu_model()}; numpy {np.__version__}; Python {platform.python_version()}",
        f"ms/CPI: fastest of {repeats} interleaved run_experiment calls of {num_cpis} CPIs, "
        f"at a reference loop time of {1e3 * child.REFERENCE_FAST_S:.2f} ms",
        "",
        "| method | "
        + " | ".join(f"M={m} ms/CPI | M={m} mean \\|verr\\| x, y (m/s)" for m in antennas)
        + " |",
        "| --- |" + " --- | --- |" * len(antennas),
    ]
    cells = [(method, m) for method in METHODS for m in antennas]
    best = dict.fromkeys(cells, float("inf"))
    verr = {}
    for _ in range(repeats):
        for method, m in cells:
            seconds, verr[method, m] = timed_run(method, m, num_cpis)
            best[method, m] = min(best[method, m], seconds)
    for method in METHODS:
        row = []
        for m in antennas:
            vx, vy = verr[method, m]
            row += [f"{1e3 * best[method, m] / num_cpis:.3f}", f"{vx:.3g}, {vy:.3g}"]
        yield f"| {method} | " + " | ".join(row) + " |"


if __name__ == "__main__":
    for line in table():
        print(line, flush=True)
