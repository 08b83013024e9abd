"""tools/bench_record.py: its parser and summary on captured run.py output;
the benchmark itself is not run."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_record.py"

# perfbench/run.py --workload all --seconds 1 --seed 1001 --trace 0, its last two workloads
CAPTURED = """\
sweep-power: 1280 operations attempted, 0 failed, outputs correct
  setup_s                                                  0.156512 s
  run_s                                                    0.511797 s
  peak_rss_mb                                               39.6094 MB
  verr_mps                                                 0.108169 m/s
{"correct": true, "attempted": 1280, "failed": 0, "metrics": {"setup_s": {"value": 0.15651232749951305, "unit": "s"}, "run_s": {"value": 0.5117973056368972, "unit": "s"}, "peak_rss_mb": {"value": 39.609375, "unit": "MB"}, "verr_mps": {"value": 0.10816926206288542, "unit": "m/s"}}}
converge: 30 operations attempted, 0 failed, outputs correct
  setup_s                                                  0.186132 s
  run_s                                                     0.32227 s
  peak_rss_mb                                               39.2383 MB
  verr_mps                                                  4.32693 m/s
{"correct": true, "attempted": 30, "failed": 0, "metrics": {"setup_s": {"value": 0.18613192599968897, "unit": "s"}, "run_s": {"value": 0.32226988317684463, "unit": "s"}, "peak_rss_mb": {"value": 39.23828125, "unit": "MB"}, "verr_mps": {"value": 4.3269258587095365, "unit": "m/s"}}}
"""


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parser_keys_each_result_line_by_its_workload(tool):
    results = tool.parse_run(CAPTURED)
    assert list(results) == ["sweep-power", "converge"]
    assert results["converge"] == json.loads(CAPTURED.splitlines()[-1])
    assert results["sweep-power"]["metrics"]["run_s"] == {
        "value": 0.5117973056368972, "unit": "s"
    }


def test_parser_refuses_a_result_line_without_its_workload(tool):
    with pytest.raises(ValueError, match="before any workload line"):
        tool.parse_run(CAPTURED.splitlines()[-1])


def test_summary_takes_median_min_and_max_over_runs(tool):
    runs = [tool.parse_run(CAPTURED) for _ in range(3)]
    values = (0.4, 0.6, 0.5)
    for run, value in zip(runs, values):
        run["sweep-power"]["metrics"]["run_s"]["value"] = value
    runs[1]["converge"]["failed"] = 2
    summary = tool.summarize(runs)
    assert summary["sweep-power"]["metrics"]["run_s"] == {
        "median": 0.5, "min": 0.4, "max": 0.6, "unit": "s"
    }
    assert summary["sweep-power"]["correct"] and summary["sweep-power"]["failed"] == 0
    assert summary["converge"]["runs"] == 3
    assert summary["converge"]["attempted"] == 90 and summary["converge"]["failed"] == 2
    assert summary["converge"]["metrics"]["verr_mps"]["median"] == 4.3269258587095365
    # the summary is what the record writes: plain JSON types throughout
    assert json.loads(json.dumps(summary)) == summary


def test_machine_block_names_the_blas_and_run_py_thread_variables(tool):
    machine = tool.machine(ROOT)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert machine["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert all(isinstance(v, str) and v for v in machine["blas"].values())
    # run.py's own BLAS_THREADS, imported in a child so that its sibling
    # modules stay out of this process
    imported = subprocess.run(
        [sys.executable, "-c", "import run; print(*run.BLAS_THREADS)"],
        cwd=ROOT / "perfbench", capture_output=True, text=True, check=True,
    ).stdout.split()
    assert machine["blas_threads"] == imported and imported
    assert json.loads(json.dumps(machine)) == machine


def test_blas_threads_refuses_a_run_py_without_them(tool, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("THREADS = ('OMP_NUM_THREADS',)\n")
    with pytest.raises(ValueError, match="no BLAS_THREADS"):
        tool.blas_threads(tmp_path)


def test_cpi_ms_table_is_the_tools_own_table(tool):
    # the tool's table, run small in this process: its header, then a row per method
    lines = tool.cpi_ms_table(ROOT, num_cpis=5, antennas=(16,), budget_s=0.0, rounds=1)
    assert lines[0].startswith("CPU: ") and "ms/CPI" in lines[1]
    rows = lines[-5:]
    assert [row.split(" | ")[0] for row in rows] == [
        f"| {m}" for m in ("opt", "ff", "fd", "ekf", "agdao")
    ]
    assert all(float(row.split(" | ")[1]) > 0.0 for row in rows)


def test_record_keeps_the_cpi_ms_table_beside_the_runs(tool, monkeypatch):
    seen = []

    def run_bench(root, seed, seconds, trace):
        seen.append(trace)
        return tool.parse_run(CAPTURED)

    table = ["CPU: x", "| opt | 0.1 |"]
    monkeypatch.setattr(tool, "run_bench", run_bench)
    monkeypatch.setattr(tool, "cpi_ms_table", lambda root: table)
    out = tool.record(ROOT, 29, repeats=2, seconds=1.0, seed=1001)
    assert seen == [0, 0, 1]
    assert out["cpi_ms"] == table
    assert list(out["end_to_end"]) == ["sweep-power", "converge"]
    assert json.loads(json.dumps(out)) == out
