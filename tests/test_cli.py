"""Command-line entry points, exercised in process."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nfbeam import cli
from nfbeam.cli import main
from nfbeam.harness import METRIC_COLUMNS

from helpers import read_csv_table

SMALL = ["--set", "system.num_antennas=16"]
SRC = Path(__file__).resolve().parents[1] / "src"


def lines_of(path):
    return path.read_text().rstrip("\n").split("\n")


def test_track_writes_metrics_and_belief(tmp_path, capsys):
    code = main(["track", "--out", str(tmp_path), "--cpis", "8", "--method", "ekf", *SMALL])
    assert code == 0
    header, metrics = read_csv_table(tmp_path / "metrics.csv")
    assert header == list(METRIC_COLUMNS)
    assert metrics[:, 0].tolist() == list(range(1, 9))
    belief = lines_of(tmp_path / "belief.csv")
    assert belief[0].startswith("cpi,")
    assert len(belief) == 9
    out = capsys.readouterr().out
    assert "mean rate" in out
    assert "wrote" in out


def test_track_agdao_has_no_belief_file(tmp_path):
    code = main(
        ["track", "--out", str(tmp_path), "--cpis", "4", "--method", "agdao", *SMALL]
    )
    assert code == 0
    assert (tmp_path / "metrics.csv").exists()
    assert not (tmp_path / "belief.csv").exists()


def test_track_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["track", "--cpis", "10", "--method", "ekf", "--seed", "4", *SMALL]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "belief.csv").read_bytes() == (b / "belief.csv").read_bytes()


def test_seed_changes_the_run(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["track", "--cpis", "10", "--method", "ekf", *SMALL]
    assert main(argv + ["--seed", "1", "--out", str(a)]) == 0
    assert main(argv + ["--seed", "2", "--out", str(b)]) == 0
    assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()


def test_sweep_power_writes_summary(tmp_path):
    code = main(
        [
            "sweep-power", "--out", str(tmp_path), "--cpis", "5",
            "--method", "ekf", "--powers", "10,30", *SMALL,
        ]
    )
    assert code == 0
    rows = lines_of(tmp_path / "summary.csv")
    assert rows[0].startswith("method,tx_power_dbm,")
    assert len(rows) == 3
    assert rows[1].startswith("ekf,10.0,")
    assert rows[2].startswith("ekf,30.0,")


def test_converge_writes_trace(tmp_path):
    code = main(
        [
            "converge", "--out", str(tmp_path), "--seeds", "2",
            *SMALL, "--set", "adam.max_iters=20",
        ]
    )
    assert code == 0
    rows = lines_of(tmp_path / "trace.csv")
    assert rows[0] == "variant,seed,k,vx,vy,objective,grad_x,grad_y,err_vx,err_vy"
    assert len(rows) == 1 + 3 * 2 * 21


def test_converge_single_variant(tmp_path):
    code = main(
        [
            "converge", "--out", str(tmp_path), "--seeds", "1", "--method", "adam-ao",
            *SMALL, "--set", "adam.max_iters=10",
        ]
    )
    assert code == 0
    rows = lines_of(tmp_path / "trace.csv")
    assert len(rows) == 1 + 11
    assert all(r.startswith("adam-ao,") for r in rows[1:])


def test_check_suite_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "FAIL" not in out


def test_config_error_is_machine_readable(tmp_path, capsys):
    code = main(["track", "--out", str(tmp_path), "--set", "num_cpis=0", *SMALL])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    # the line the README shows: the message does not repeat the field
    assert err[-1] == (
        '{"error": "config", "field": "num_cpis", "message": "must be >= 1, got 0"}'
    )
    assert not (tmp_path / "metrics.csv").exists()


@pytest.mark.parametrize(
    "assignment,field,message",
    [
        ("system.tx_power_dbm=NaN", "system.tx_power_dbm", "must be finite, got nan"),
        ("initial_state=[NaN,10,8,7]", "initial_state", "must be finite, got nan"),
        ("feedback_period_s=NaN", "feedback_period_s", "must be finite, got nan"),
        ("adam.step=0", "adam.step", "must be positive, got 0.0"),
        # finite operands whose count of CPIs overflows to inf
        (
            "feedback_period_s=1e308", "feedback_period_s",
            "must be finitely many CPIs (0.0001 s), got 1e+308",
        ),
        (
            "system.symbol_duration_s=1e-320", "feedback_period_s",
            "must be finitely many CPIs (1e-319 s), got 0.1",
        ),
        # a finite symbol duration whose CPI duration overflows to inf
        (
            "system.symbol_duration_s=1e308", "system.symbol_duration_s",
            "must be small enough that 10 symbols last a finite time, got 1e+308",
        ),
        # JSON integers beyond float range, alone or in a tuple
        pytest.param(
            "feedback_period_s=1" + "0" * 400, "feedback_period_s",
            f"must be within float range, got {10**400}", id="scalar-beyond-float-range",
        ),
        pytest.param(
            "initial_state=[1,2,3,1" + "0" * 400 + "]", "initial_state",
            f"must be 4 numbers, got [1, 2, 3, {10**400}]", id="tuple-beyond-float-range",
        ),
        ("initial_state=[1,2,3]", "initial_state", "must be 4 numbers, got [1, 2, 3]"),
        # antenna counts whose 10 x M complex beam no array can address: one
        # beyond any array, one where only the product with 10 symbols is
        pytest.param(
            "system.num_antennas=1" + "0" * 400, "system.num_antennas",
            "must be small enough that a 10 x num_antennas complex beam fits in "
            f"{2**63 - 1} bytes, got {10**400}", id="antennas-beyond-any-array",
        ),
        pytest.param(
            f"system.num_antennas={10**17}", "system.num_antennas",
            "must be small enough that a 10 x num_antennas complex beam fits in "
            f"{2**63 - 1} bytes, got {10**17}", id="antennas-times-symbols-beyond-any-array",
        ),
    ],
)
def test_bad_number_names_its_field(tmp_path, capsys, assignment, field, message):
    code = main(["track", "--out", str(tmp_path), *SMALL, "--set", assignment])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "config", "field": field, "message": message}


@pytest.mark.parametrize(
    "argv,field,message",
    [
        (["sweep-power", "--powers", "nan"], "powers", "must be finite, got nan"),
        (["sweep-power", "--powers", "10,inf"], "powers", "must be finite, got inf"),
        (["sweep-power", "--powers", "1e400"], "powers", "must be finite, got inf"),
        (
            ["sweep-power", "--method", "agdao", "--powers", "nan"], "powers",
            "must be finite, got nan",
        ),
        (
            ["sweep-power", "--powers", "10,4000"], "powers",
            "must be finite with a finite power in watts, got 4000.0",
        ),
        (
            ["track", "--set", "system.tx_power_dbm=4000"], "system.tx_power_dbm",
            "must be finite with a finite power in watts, got 4000.0",
        ),
        (["sweep-power", "--powers", ","], "powers", "at least one power level is required"),
    ],
)
def test_power_without_finite_watts_names_its_field(tmp_path, capsys, argv, field, message):
    code = main([*argv, "--cpis", "2", "--out", str(tmp_path), *SMALL])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "config", "field": field, "message": message}
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_is_reported(tmp_path, capsys):
    code = main(["track", "--out", str(tmp_path), "--set", "system.antennas=4"])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "antennas" in payload["field"]


@pytest.mark.parametrize(
    "method,message",
    [
        ("ekf", "non-finite mean [nan nan nan nan]"),
        ("agdao", "non-finite iterate at Gauss-Newton step 1: v=(nan, nan)"),
        *((name, "non-finite rate: the downlink SNR overflows a float")
          for name in ("opt", "ff", "fd")),
    ],
    ids=["ekf", "agdao", "opt", "ff", "fd"],
)
def test_numerical_failure_is_machine_readable(tmp_path, capsys, method, message):
    # every value passes its range check, but the echo overflows and the
    # tracker goes non-finite on its first update; the baselines track
    # nothing, and their downlink SNR overflows where the rate is finite
    argv = ["track", "--cpis", "3", "--method", method, "--out", str(tmp_path), *SMALL]
    with np.errstate(all="ignore"):
        code = main([*argv, "--set", "system.ref_gain=1e300"])
    assert code == 3
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload == {"error": "numerical", "field": "", "message": message}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["ekf", "agdao", "opt"])
def test_numerical_failure_is_all_of_stderr(tmp_path, method):
    # a fresh process, whose numpy overflow warnings reach stderr as from a
    # shell (pytest records them in process): stderr is the one JSON line
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "nfbeam.cli", "track", "--cpis", "3", "--method", method,
         "--out", str(tmp_path), *SMALL, "--set", "system.ref_gain=1e300"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert json.loads(proc.stderr)["error"] == "numerical"
    assert proc.stdout == ""


def test_warnings_of_a_finished_command_follow_its_output(capsys, monkeypatch):
    def warned(args):
        warnings.warn("overflow in an intermediate", RuntimeWarning)
        print("report")
        return 0

    # main holds the warning back and shows it once the command has returned
    monkeypatch.setattr(cli, "cmd_check", warned)
    with pytest.warns(RuntimeWarning, match="overflow in an intermediate"):
        assert main(["check"]) == 0
    assert capsys.readouterr().out == "report\n"


def test_negative_zero_variance_runs_as_zero(tmp_path):
    argv = ["track", "--cpis", "10", "--method", "ekf", *SMALL]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--set", "motion_var=[-0.0, 0.01]", "--out", str(a)]) == 0
    assert main([*argv, "--set", "motion_var=[0, 0.01]", "--out", str(b)]) == 0
    for name in ("metrics.csv", "belief.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bad_method_flag_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["track", "--out", str(tmp_path), "--method", "oracle"])
    assert exc.value.code == 2


def test_config_file_drives_the_run(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "system": {"num_antennas": 16},
                "method": "agdao",
                "num_cpis": 4,
                "seed": 11,
            }
        )
    )
    out = tmp_path / "out"
    assert main(["track", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert len(read_csv_table(out / "metrics.csv")[1]) == 4
    assert not (out / "belief.csv").exists()
    # command-line count overrides the file
    out2 = tmp_path / "out2"
    assert main(["track", "--config", str(cfg_path), "--cpis", "2", "--out", str(out2)]) == 0
    assert len(read_csv_table(out2 / "metrics.csv")[1]) == 2
