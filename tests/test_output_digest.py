"""tools/output_digest.py: one sha256 per stdout and per CSV, independent of OUT_DIR."""
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_across_output_directories(tmp_path):
    tool = _tool()
    command = [("track-ekf", ("track", "--cpis", "5", "--set", "system.num_antennas=16"))]
    first = tool.digests(tmp_path / "a", command)
    second = tool.digests(tmp_path / "b", command)
    assert first == second
    assert [line.split("  ")[1] for line in first] == [
        "track-ekf/stdout", "track-ekf/belief.csv", "track-ekf/metrics.csv",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in first)
    assert (tmp_path / "a" / "track-ekf" / "metrics.csv").read_text().count("\n") == 6


def test_command_list_covers_the_acceptance_runs():
    names = [name for name, _ in _tool().COMMANDS]
    assert len(names) == len(set(names)) == 13
    assert names[0] == "track" and "converge-signed" in names
