"""tools/peak_rss.py: peak RSS of fresh nfbeam processes, run small."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_rss.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("peak_rss", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_run_reports_a_peak(tool):
    args = ("converge", "--seeds", "1", "--method", "adam-ao", "--set", "system.num_antennas=16")
    peaks = tool.measure(args, runs=2)
    assert len(peaks) == 2
    # an interpreter with numpy loaded holds more than 10 MB
    assert all(10.0 < mb < 1000.0 for mb in peaks)


def test_a_failing_command_is_reported(tool):
    with pytest.raises(RuntimeError, match="exited with 2"):
        tool.measure(("converge", "--seeds", "0"), runs=1)


def test_main_prints_one_median_line_per_command(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "measure", lambda args, runs: [30.0, 10.0, 20.0][:runs])
    assert tool.main(["--runs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"20.00  {name}  (30.00, 10.00, 20.00)" for name, _ in tool.COMMANDS]
    with pytest.raises(SystemExit):
        tool.main(["--runs", "0"])
