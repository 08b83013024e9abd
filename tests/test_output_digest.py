"""tools/output_digest.py: one sha256 per stdout and per CSV, independent of OUT_DIR,
and --compare, the largest relative deviation per numeric CSV column of two runs."""
import csv
import importlib.util
import re
import shutil
from pathlib import Path

import pytest

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
    assert len(names) == len(set(names)) == 14
    assert names[0] == "track" and "converge-signed" in names and "check" in names


@pytest.mark.parametrize("name", ["track-ekf-m64-signed", "track-agdao-m64-signed"])
def test_signed_commands_exercise_the_signed_convention(name, tmp_path):
    # the same command under the magnitude convention must write other metrics
    tool = _tool()
    args = (*dict(tool.COMMANDS)[name], "--cpis", "5")
    magnitude = (*args, "--set", "system.signed_projection=false")
    lines = tool.digests(tmp_path, [("signed", args), ("magnitude", magnitude)])
    metrics = [line.split("  ")[0] for line in lines if line.endswith("/metrics.csv")]
    assert len(metrics) == 2
    assert metrics[0] != metrics[1]


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """One small digest run, plus a CSV with a string column."""
    out = tmp_path_factory.mktemp("digest") / "run"
    _tool().digests(out, [("track-ekf", ("track", "--cpis", "5", "--set", "system.num_antennas=16"))])
    (out / "converge").mkdir()
    (out / "converge" / "trace.csv").write_text("variant,k,vx\nadam-ao,0,0.5\nplain-gd,1,0.25\n")
    return out


def test_compare_against_itself_reads_zero(digest_run):
    tool = _tool()
    lines, problems = tool.compare(digest_run, digest_run)
    assert problems == []
    assert "0.00e+00  track-ekf/metrics.csv:rate_ff" in lines
    assert "0.00e+00  converge/trace.csv:vx" in lines
    assert not any(line.endswith(":variant") for line in lines)
    assert all(line.startswith("0.00e+00  ") for line in lines)
    assert tool.main(["--compare", str(digest_run), str(digest_run)]) == 0


def test_compare_reports_a_perturbed_cell_under_its_column(digest_run, tmp_path):
    other = shutil.copytree(digest_run, tmp_path / "other")
    metrics = other / "track-ekf" / "metrics.csv"
    rows = list(csv.reader(metrics.open(newline="")))
    column = rows[0].index("rate_ff")
    rows[3][column] = repr(float(rows[3][column]) * (1.0 + 3e-9))
    with metrics.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    lines, problems = _tool().compare(digest_run, other)
    assert problems == []
    moved = [line for line in lines if not line.startswith("0.00e+00")]
    assert len(moved) == 1 and moved[0].endswith("  track-ekf/metrics.csv:rate_ff")
    assert float(moved[0].split()[0]) == pytest.approx(3e-9, rel=1e-3)


@pytest.mark.parametrize("fault", ["missing file", "header", "row count", "string cell"])
def test_compare_fails_on_incomparable_runs(digest_run, tmp_path, fault):
    tool = _tool()
    other = shutil.copytree(digest_run, tmp_path / "other")
    metrics = other / "track-ekf" / "metrics.csv"
    trace = other / "converge" / "trace.csv"
    if fault == "missing file":
        metrics.unlink()
    elif fault == "header":
        metrics.write_text(metrics.read_text().replace("rate_ff", "rate_far", 1))
    elif fault == "row count":
        metrics.write_text("".join(metrics.read_text().splitlines(True)[:-1]))
    else:
        trace.write_text(trace.read_text().replace("plain-gd", "adam-joint"))
    _, problems = tool.compare(digest_run, other)
    assert len(problems) == 1
    assert tool.main(["--compare", str(digest_run), str(other)]) == 1
