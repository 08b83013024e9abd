"""tools/agdao_accuracy.py: the AGD-AO accuracy table, run small."""
import importlib.util
import math
import re
from pathlib import Path

from nfbeam import harness

TOOL = Path(__file__).resolve().parents[1] / "tools" / "agdao_accuracy.py"


def test_table_has_a_row_per_cell():
    spec = importlib.util.spec_from_file_location("agdao_accuracy", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    step = harness.agdao_track_step
    lines = list(tool.table(antennas=(128,), powers=(10, 40), seeds=1, cpis=5))
    assert lines[0] == tool.HEADER
    rows = [line.strip("| ").split(" | ") for line in lines[1:]]
    assert [row[:3] for row in rows] == [["128", "10", "1 x 5"], ["128", "40", "1 x 5"]]
    for _, _, _, iters, share, verr, nees in rows:
        assert 1.0 <= float(iters) <= 500.0
        assert 0.0 <= float(share) <= 1.0
        assert re.fullmatch(r"\S+, \S+", verr)
        assert all(float(v) > 0.0 for v in verr.split(", "))
        assert 0.0 < float(nees) < math.inf
    # the iteration counter is taken off the harness again
    assert harness.agdao_track_step is step
