#!/usr/bin/env python3
"""Run nfbeam's acceptance command list and print a sha256 per output.

    python3 tools/output_digest.py OUT_DIR
    python3 tools/output_digest.py --compare DIR_A DIR_B

Each command runs as ``python -m nfbeam.cli`` on this checkout's ``src/``,
with one BLAS thread, inside OUT_DIR and with a relative ``--out``, so the
paths the commands print, and with them the digests, do not depend on
OUT_DIR. ``check`` writes no files and takes no ``--out``; its stdout is the
oracle report. One line per stdout and per CSV: ``<sha256>  <command>/<file>``.

To check that a change leaves every output byte-identical, copy this script
into the other checkout, run it in both, and diff the two listings.

Where a change is meant to move outputs only by round-off, ``--compare``
reads each ``<command>/<file>.csv`` that two such runs left behind and
prints one line per file and numeric column: the largest relative deviation
|a - b| / max(|a|, |b|) over its cells. It exits with 1 if a file is missing
from either directory, or if headers, row counts or non-numeric cells differ.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_M64 = ("--cpis", "200", "--set", "system.num_antennas=64")
_SIGNED = ("--set", "system.signed_projection=true")
# a start in front of the M=64 aperture: antennas on both sides of the target,
# where the two projection conventions differ (beyond its edge they agree)
_FRONT = ("--set", "initial_state=[0.05,3.0,8.0,7.0]")

# (name, nfbeam arguments without --out; every command but check gets one)
COMMANDS = (
    ("track", ("track",)),
    *(
        (f"track-{method}-m64{suffix}", ("track", "--method", method, *_M64, *extra))
        for method in ("ekf", "agdao", "opt", "ff", "fd")
        for suffix, extra in (("", ()), ("-signed", (*_SIGNED, *_FRONT)))
    ),
    ("sweep-power-m128", ("sweep-power", "--cpis", "10", "--set", "system.num_antennas=128")),
    ("converge-signed", ("converge", *_SIGNED)),
    ("check", ("check",)),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out_dir, commands=COMMANDS) -> list[str]:
    """Run each command into out_dir/<name>; return the digest lines in order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    lines = []
    for name, args in commands:
        out = () if args[0] == "check" else ("--out", name)
        proc = subprocess.run(
            [sys.executable, "-m", "nfbeam.cli", *args, *out],
            cwd=out_dir, env=env, capture_output=True, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{name} exited with {proc.returncode}: {proc.stderr.decode(errors='replace')}"
            )
        lines.append(f"{_sha256(proc.stdout)}  {name}/stdout")
        for csv in sorted((out_dir / name).glob("*.csv")):
            lines.append(f"{_sha256(csv.read_bytes())}  {name}/{csv.name}")
    return lines


def _deviation(a: str, b: str):
    """Relative deviation of two numeric cells; None if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    dev = abs(x - y) / max(abs(x), abs(y))
    return math.inf if math.isnan(dev) else dev


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare(dir_a, dir_b) -> tuple[list[str], list[str]]:
    """Largest relative deviation per numeric column of each CSV in both runs.

    Returns the report lines, ``<deviation>  <command>/<file>:<column>``, and
    the problems that make the two runs incomparable.
    """
    dirs = (Path(dir_a), Path(dir_b))
    names = sorted({p.relative_to(d).as_posix() for d in dirs for p in d.glob("*/*.csv")})
    lines: list[str] = []
    problems = [] if names else [f"no <command>/<file>.csv under {dir_a} or {dir_b}"]
    for name in names:
        missing = [str(d / name) for d in dirs if not (d / name).is_file()]
        if missing:
            problems.append(f"{name}: missing {', '.join(missing)}")
            continue
        rows_a, rows_b = (_rows(d / name) for d in dirs)
        if rows_a[:1] != rows_b[:1]:
            problems.append(f"{name}: headers differ")
            continue
        if len(rows_a) != len(rows_b):
            problems.append(f"{name}: {len(rows_a) - 1} rows against {len(rows_b) - 1}")
            continue
        header = rows_a[0] if rows_a else []
        worst: dict[str, float] = {}
        mismatched = []
        for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
            if len(row_a) != len(row_b):
                mismatched.append(f"line {line} has {len(row_a)} cells against {len(row_b)}")
                continue
            for column, a, b in zip(header, row_a, row_b):
                dev = _deviation(a, b)
                if dev is not None:
                    worst[column] = max(worst.get(column, 0.0), dev)
                elif a != b:
                    mismatched.append(f"line {line} {column}: {a!r} against {b!r}")
        if mismatched:
            problems.append(f"{name}: {len(mismatched)} cells differ, first {mismatched[0]}")
        lines += [f"{worst[column]:.2e}  {name}:{column}" for column in header if column in worst]
    return lines, problems


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        lines, problems = compare(argv[1], argv[2])
        for line in lines:
            print(line)
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1 if problems else 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for line in digests(argv[0]):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
