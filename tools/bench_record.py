#!/usr/bin/env python3
"""Record the benchmark's metrics for one change as BENCH_<N>.json.

    python3 tools/bench_record.py --pr N [--repeats R] [--seconds S] [--seed K]
        [--out PATH]

Run it from the root of a checkout, as perfbench/run.py is run. It runs
``perfbench/run.py --workload all --trace 0`` R times (default 5) and keeps,
per workload and end-to-end metric, the median, min and max over the runs,
with the operations attempted and failed and whether every run's outputs were
correct. One ``--trace 1`` run gives the per-layer metrics. The file also
holds the CPU model, the numpy and Python versions, the BLAS library numpy was
built against, the BLAS thread variables that run.py sets to 1 in its children
(its ``BLAS_THREADS``), the run settings, and
``git rev-parse HEAD`` with a flag for uncommitted changes under ``src/`` or
``perfbench/``. Last, it runs tools/cpi_ms.py's ms/CPI table of the
checkout in this process, with run.py's BLAS thread variables set to 1, and
keeps its lines under "cpi_ms". It writes BENCH_<N>.json in the checkout
unless --out names another path.
"""
from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

# numpy loads in the functions that read it, so that __main__ sets the BLAS
# thread variables before it does

# run.py's line before a workload's metrics, e.g. "converge: 30 operations attempted, ..."
_WORKLOAD_LINE = re.compile(r"^(\S+): \d+ operations attempted, \d+ failed, outputs \w+$")


def parse_run(stdout: str) -> dict[str, dict]:
    """{workload: result} from run.py's stdout; each workload's JSON line
    follows the line that names it."""
    results, name = {}, None
    for line in stdout.splitlines():
        match = _WORKLOAD_LINE.match(line)
        if match:
            name = match.group(1)
        elif line.startswith("{"):
            if name is None:
                raise ValueError(f"a result line before any workload line: {line[:80]}")
            results[name], name = json.loads(line), None
    return results


def summarize(runs: list[dict[str, dict]]) -> dict[str, dict]:
    """Per workload: each metric's median, min and max over the runs, its unit,
    the operations attempted and failed in all, and whether every run was correct."""
    out = {}
    for name in runs[0]:
        results = [run[name] for run in runs]
        metrics = {}
        for key, first in results[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in results]
            metrics[key] = {
                "median": statistics.median(values), "min": min(values), "max": max(values),
                "unit": first["unit"],
            }
        out[name] = {
            "runs": len(results),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def blas_library() -> dict[str, str]:
    """Name and version of the BLAS numpy was built against, from np.show_config."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def blas_threads(root: Path) -> list[str]:
    """The thread variables that root's perfbench/run.py sets in its children,
    from its BLAS_THREADS assignment, read without importing run.py."""
    for node in ast.parse((root / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "BLAS_THREADS"
        ]:
            return list(ast.literal_eval(node.value))
    raise ValueError(f"no BLAS_THREADS assignment in {root / 'perfbench' / 'run.py'}")


def machine(root: Path) -> dict:
    import numpy as np

    return {
        "cpu": cpu_model(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas_library(),
        "blas_threads": blas_threads(root),
    }


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=False)


def run_bench(root: Path, seed: int, seconds: float, trace: int) -> dict[str, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def cpi_ms_table(root: Path, **kw) -> list[str]:
    """The lines of root's tools/cpi_ms.py table, run in this process; kw go
    to its table(). The tool is loaded by path, as its tests load it."""
    spec = importlib.util.spec_from_file_location("cpi_ms", root / "tools" / "cpi_ms.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.table(**kw))


def record(root: Path, pr: int, repeats: int, seconds: float, seed: int) -> dict:
    runs = []
    for k in range(repeats):
        runs.append(run_bench(root, seed, seconds, 0))
        print(f"run {k + 1}/{repeats} done", file=sys.stderr)
    traced = run_bench(root, seed, seconds, 1)
    return {
        "pr": pr,
        "settings": {"repeats": repeats, "seconds": seconds, "seed": seed},
        "machine": machine(root),
        "git_head": _git(root, "rev-parse", "HEAD").stdout.strip(),
        "uncommitted_changes": _git(root, "diff", "--quiet", "HEAD", "--", "src", "perfbench")
        .returncode != 0,
        "end_to_end": summarize(runs),
        "layers": {
            name: {key: m["value"] for key, m in result["metrics"].items()}
            for name, result in traced.items()
        },
        "cpi_ms": cpi_ms_table(root),
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1001)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {root}; run from the repository root")
    os.environ.update(dict.fromkeys(blas_threads(root), "1"))
    result = record(root, args.pr, args.repeats, args.seconds, args.seed)
    out = args.out or root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
