#!/usr/bin/env python3
"""Print the median peak RSS of the benchmark's three nfbeam commands.

    python3 tools/peak_rss.py [--runs N]

Each command runs N times (default 3), every run in a fresh ``python -c``
process on this checkout's ``src/`` with one BLAS thread and a temporary
``--out`` directory. The process imports ``nfbeam.cli``, runs the command
in-process with its stdout sent to /dev/null, and reports its own
``ru_maxrss``, as perfbench's child.py does. One line per command:
``<median MB>  <name>  (<each run's MB>)``, with MB = KiB / 1024. The
commands are ``track`` (every default), ``sweep-power --cpis 10 --set
system.num_antennas=128`` and ``converge --set system.signed_projection=true``.
A memory change can be checked this way in about 15 s. Stdlib only.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (name, nfbeam arguments without --out)
COMMANDS = (
    ("track", ("track",)),
    ("sweep-power", ("sweep-power", "--cpis", "10", "--set", "system.num_antennas=128")),
    ("converge", ("converge", "--set", "system.signed_projection=true")),
)

_CHILD = """\
import contextlib, os, resource, sys
import nfbeam.cli as cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    code = cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def measure(args, runs: int) -> list[float]:
    """Peak RSS in MB of each of `runs` fresh processes running nfbeam with args."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    peaks = []
    with tempfile.TemporaryDirectory() as out:
        for _ in range(runs):
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, *args, "--out", out],
                env=env, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(args)} exited with {proc.returncode}: {proc.stderr}")
            peaks.append(int(proc.stdout.split()[-1]) / 1024.0)
    return peaks


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per command")
    opts = parser.parse_args(argv)
    if opts.runs < 1:
        parser.error(f"--runs must be >= 1, got {opts.runs}")
    for name, args in COMMANDS:
        peaks = measure(args, opts.runs)
        each = ", ".join(f"{mb:.2f}" for mb in peaks)
        print(f"{statistics.median(peaks):.2f}  {name}  ({each})", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
