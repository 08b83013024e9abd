"""nfbeam benchmark: run one workload for a set time, check its outputs, print its metrics.

    python3 perfbench/run.py --workload track-ekf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout; it imports nfbeam from ``src/`` there and
writes only under ``.perfbench-out/``. Each round runs the workload's nfbeam
subcommand once per input seed, each in a fresh process, and rounds repeat
for about ``--seconds``. The last line of stdout is one JSON object:
the end-to-end metrics with ``--trace 0``; with ``--trace 1`` the per-layer
metrics, from traced rounds that alternate with untraced ones.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ".perfbench-out"
CHILD_TIMEOUT_S = 150
# One BLAS thread: 4x4 solves and M-length products gain nothing from more,
# and a second thread would make timings depend on what else the machine runs.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "verr_mps": "m/s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_process(root: Path, work, nfbeam_seed: int, traced: bool, tag: str) -> dict:
    out_dir = root / OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    report = out_dir / "report.json"
    log = out_dir / "nfbeam.log"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    env.update({var: "1" for var in BLAS_THREADS})
    spawned = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", work.name,
        "--report", str(report), "--spawned", repr(spawned),
        *(["--trace"] if traced else []),
        "--", *work.argv(nfbeam_seed, out_dir),
    ]
    with open(log, "w") as sink:
        try:
            proc = subprocess.run(
                cmd, cwd=root, env=env, stdout=sink, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: no result within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not report.is_file():
        raise BenchError(f"{tag}: exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    result = json.loads(report.read_text())
    shutil.rmtree(out_dir)
    return result


def tally(work, procs: list[tuple[int, dict]]):
    """(attempted, failed, correct, problems) over processes keyed by input-seed slot."""
    attempted = failed = 0
    correct = True
    problems = []
    digests = {}
    for slot, rep in procs:
        ops = work.ops_per_process
        attempted += ops
        if rep["error"] is not None:
            failed += ops
            problems.append(f"seed slot {slot}: {rep['error'].strip().splitlines()[-1]}")
            continue
        rejected: set[int] = set()
        for check, idx, detail in rep["findings"]:
            correct = False
            problems.append(f"seed slot {slot}: {check}: {detail}")
            rejected.update(range(ops) if idx is None else idx)
        # rounds rerun the same input seeds, so outputs must repeat byte for byte
        if digests.setdefault(slot, rep.get("digest")) != rep.get("digest"):
            correct = False
            problems.append(f"seed slot {slot}: outputs differ between rounds")
            rejected.update(range(ops))
        failed += len(rejected)
    return attempted, failed, correct, problems


def mean_run_s(rounds: list[list[dict]], key: str = "run_s") -> float:
    """Mean over complete rounds of a run time summed over a round's processes.

    ``steady_run_s`` is the run time rescaled to the host's fast state (see
    child.py); ``run_s`` is plain wall time, which traced processes report.
    """
    totals = [sum(rep[key] for rep in rnd) for rnd in rounds
              if all(key in rep for rep in rnd)]
    if not totals:
        raise BenchError("no complete round to measure")
    return statistics.fmean(totals)


def end_to_end(work, rounds: list[list[dict]]) -> dict:
    procs = [rep for rnd in rounds for rep in rnd if "run_s" in rep]
    first = [rep for rep in rounds[0] if rep["error"] is None]
    samples = [s for rep in first for s in rep.get("verr_samples", [])]
    if len(first) != work.seeds_per_round or not samples:
        raise BenchError("the first round produced no outcome to report")
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in procs),
        "run_s": mean_run_s(rounds, "steady_run_s"),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in procs),
        "verr_mps": statistics.fmean(samples),
    }


def bench(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORKLOADS[name]
    modes = (False, True) if trace else (False,)
    rounds = {mode: [] for mode in modes}
    procs = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in modes:
            rnd = []
            for slot, s in enumerate(work.input_seeds(seed)):
                rep = run_process(root, work, s, traced, f"{name}-{slot}")
                rnd.append(rep)
                procs.append((slot, rep))
            rounds[traced].append(rnd)
        # stop where another round would end further past --seconds than this one ends short
        now = time.monotonic()
        if now - start + 0.5 * (now - round_start) >= seconds:
            break
    attempted, failed, correct, problems = tally(work, procs)
    for line in problems:
        print(f"[{name}] {line}", file=sys.stderr)

    if trace:
        traced = [rep["trace"] for rnd in rounds[True] for rep in rnd if "trace" in rep]
        if not traced:
            raise BenchError("no traced process finished")
        values = spans.layer_metrics(traced, mean_run_s(rounds[True]), mean_run_s(rounds[False]))
        units = spans.LAYER_UNITS
    else:
        values = end_to_end(work, rounds[False])
        units = E2E_UNITS
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "nfbeam" / "cli.py").is_file():
        print(f"no nfbeam sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = bench(root, name, args.seed, args.seconds, bool(args.trace))
            print(f"{name}: {result['attempted']} operations attempted, {result['failed']} failed, "
                  f"outputs {'correct' if result['correct'] else 'WRONG'}")
            for key, m in result["metrics"].items():
                print(f"  {key:<50} {m['value']:>14.6g} {m['unit']}")
            print(json.dumps(result))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root / OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
