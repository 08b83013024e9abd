"""tools/cpi_ms.py: the ms/CPI table, run small."""
import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cpi_ms.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("cpi_ms", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(tool, **kw):
    lines = list(tool.table(num_cpis=5, antennas=(16,), **kw))
    assert lines[0].startswith("CPU: ") and "numpy" in lines[0] and "Python" in lines[0]
    rows = lines[-len(tool.METHODS):]
    assert [row.split(" | ")[0] for row in rows] == [f"| {m}" for m in tool.METHODS]
    return [row.strip("| ").split(" | ")[1:] for row in rows]


def test_table_has_a_timed_row_per_method(tool):
    cells = _rows(tool, budget_s=0.0, rounds=2)
    for ms, calls, verr in cells:
        assert float(ms) > 0.0
        # a spent budget still makes one call a round
        assert calls == "2"
        assert re.fullmatch(r"\S+, \S+", verr)
    # the baselines estimate the truth itself
    assert cells[0][2] == "0, 0"


def test_cells_repeat_calls_until_their_budget_is_spent(tool, monkeypatch):
    calls = []

    def timed_run(method, num_antennas, num_cpis):
        calls.append(method)
        return 1e-3, (0.0, 0.0)

    clock = iter(range(10**6))
    monkeypatch.setattr(tool, "timed_run", timed_run)
    monkeypatch.setattr(tool.time, "perf_counter", lambda: float(next(clock)))
    # each call advances the fake clock by 1 s: a 3 s share gives 3 calls
    cells = _rows(tool, budget_s=9.0, rounds=3)
    assert [c[1] for c in cells] == ["9"] * len(tool.METHODS)
    assert len(calls) == 9 * len(tool.METHODS)
    assert all(c[0] == "0.200" for c in cells)
