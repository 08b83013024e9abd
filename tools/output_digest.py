#!/usr/bin/env python3
"""Run nfbeam's acceptance command list and print a sha256 per output.

    python3 tools/output_digest.py OUT_DIR

Each command runs as ``python -m nfbeam.cli`` on this checkout's ``src/``,
with one BLAS thread, inside OUT_DIR and with a relative ``--out``, so the
paths the commands print, and with them the digests, do not depend on
OUT_DIR. One line per stdout and per CSV: ``<sha256>  <command>/<file>``.

To check that a change leaves every output byte-identical, copy this script
into the other checkout, run it in both, and diff the two listings.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_M64 = ("--cpis", "200", "--set", "system.num_antennas=64")
_SIGNED = ("--set", "system.signed_projection=true")

# (name, nfbeam arguments without --out)
COMMANDS = (
    ("track", ("track",)),
    *(
        (f"track-{method}-m64{suffix}", ("track", "--method", method, *_M64, *extra))
        for method in ("ekf", "agdao", "opt", "ff", "fd")
        for suffix, extra in (("", ()), ("-signed", _SIGNED))
    ),
    ("sweep-power-m128", ("sweep-power", "--cpis", "10", "--set", "system.num_antennas=128")),
    ("converge-signed", ("converge", *_SIGNED)),
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
        proc = subprocess.run(
            [sys.executable, "-m", "nfbeam.cli", *args, "--out", name],
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for line in digests(argv[0]):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
