"""tools/cpi_ms.py: the ms/CPI table, run small."""
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cpi_ms.py"


def test_table_has_a_timed_row_per_method():
    spec = importlib.util.spec_from_file_location("cpi_ms", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = list(tool.table(num_cpis=5, antennas=(16,), repeats=1))
    assert lines[0].startswith("CPU: ") and "numpy" in lines[0] and "Python" in lines[0]
    rows = lines[-len(tool.METHODS):]
    assert [row.split(" | ")[0] for row in rows] == [f"| {m}" for m in tool.METHODS]
    for row in rows:
        ms, verr = row.strip("| ").split(" | ")[1:]
        assert float(ms) > 0.0
        assert re.fullmatch(r"\S+, \S+", verr)
    # the baselines estimate the truth itself
    assert rows[0].endswith("| 0, 0 |")
