"""The benchmark's output checks: real output passes, each corrupted copy is rejected.

    python3 -m pytest perfbench

The outputs come from small runs of the real subcommands, so the checks are
exercised on what the program writes, not on hand-made tables.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import nfbeam.cli as cli  # noqa: E402
import nfbeam.harness as harness  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL = ["--set", "system.num_antennas=64", "--seed", "3"]


def _copy(table):
    return {k: v.copy() for k, v in table.items()}


def _names(findings):
    return {name for name, _, _ in findings}


def _ops(findings, name):
    return sorted({i for n, ops, _ in findings if n == name for i in (ops or [])})


@pytest.fixture(scope="module")
def track(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    assert cli.main(["track", "--cpis", "400", *SMALL, "--out", str(out)]) == 0
    cfg = cli.build_config(None, ["system.num_antennas=64"], seed=3, num_cpis=400)
    return (checks.read_csv(out / "metrics.csv"), checks.read_csv(out / "belief.csv"),
            checks.Link.from_config(cfg))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    results = []
    run_experiment = harness.run_experiment

    def capture(config, progress=None):
        result = run_experiment(config, progress)
        results.append(result)
        return result

    harness.run_experiment = capture
    try:
        assert cli.main(["sweep-power", "--cpis", "30", "--powers", "10,20,30,40",
                         *SMALL, "--out", str(out)]) == 0
    finally:
        harness.run_experiment = run_experiment
    cells = [(checks.from_rows(r.rows), checks.Link.from_config(r.config)) for r in results]
    return checks.read_csv(out / "summary.csv"), cells


@pytest.fixture(scope="module")
def converge(tmp_path_factory):
    out = tmp_path_factory.mktemp("converge")
    assert cli.main(["converge", "--seeds", "2", "--seed", "3",
                     "--set", "system.signed_projection=true", "--out", str(out)]) == 0
    cfg = cli.build_config(None, [])
    return checks.read_csv(out / "trace.csv"), cfg.convergence_state[2:], cfg.convergence_v_init


def test_real_outputs_pass(track, sweep, converge):
    assert checks.check_track(*track) == []
    assert checks.check_sweep(*sweep) == []
    assert checks.check_converge(*converge) == []


def test_rate_above_genie_is_rejected(track):
    m, belief, link = track
    m = _copy(m)
    m["rate_fd"][5] = m["rate_opt"][5] + 1e-3
    found = checks.check_track(m, belief, link)
    assert _ops(found, "rate_at_most_genie") == [5]


def test_genie_rate_off_its_closed_form_is_rejected(track):
    m, belief, link = track
    m = _copy(m)
    m["rate_opt"][7] *= 1.0 + 1e-6
    assert _ops(checks.check_track(m, belief, link), "rate_opt_closed_form") == [7]


def test_broken_kinematic_step_is_rejected(track):
    m, belief, link = track
    m = _copy(m)
    m["y"][10] += 1e-6
    assert _ops(checks.check_track(m, belief, link), "kinematic_step") == [10, 11]


def test_velocity_error_column_must_match_the_estimate(track):
    m, belief, link = track
    m = _copy(m)
    m["verr_y"][3] += 1e-9
    assert _ops(checks.check_track(m, belief, link), "velocity_error_column") == [3]


def test_inflated_velocity_kicks_are_rejected(track):
    m, _, link = track
    m = _copy(m)
    m["vx"] = m["vx"][0] + np.concatenate([[0.0], np.cumsum(1.5 * np.diff(m["vx"]))])
    assert _names(checks.check_motion_variance(m, link)) == {"motion_variance"}


def test_overconfident_filter_fails_nees(track):
    m, belief, link = track
    belief = _copy(belief)
    for s in checks.STATE:
        belief[f"var_{s}"] /= 10.0
    assert _names(checks.check_track(m, belief, link)) == {"nees"}


def test_far_field_beating_the_tracker_is_rejected(track):
    m, belief, link = track
    m = _copy(m)
    m["rate_ff"] = m["rate_opt"].copy()
    assert _names(checks.check_track(m, belief, link)) == {"ff_below_tracker"}


def test_ekf_rate_falling_with_power_is_rejected(sweep):
    summary, cells = sweep
    summary = _copy(summary)
    ekf = np.flatnonzero(summary["method"] == "ekf")
    summary["mean_rate"][ekf[-1]] = summary["mean_rate"][ekf[-2]] - 1.0
    assert "ekf_rate_rises_with_power" in _names(checks.check_sweep(summary, cells))


def test_agdao_far_below_genie_is_rejected(sweep):
    summary, cells = sweep
    m, link = cells[-1]
    m = _copy(m)
    m["rate"] = 0.9 * m["rate_opt"]
    summary = _copy(summary)
    summary["mean_rate"][-1] = float(np.mean(m["rate"]))
    found = checks.check_sweep(summary, [*cells[:-1], (m, link)])
    assert _names(found) == {"agdao_near_genie"}
    n = len(m["cpi"])
    assert _ops(found, "agdao_near_genie") == list(range((len(cells) - 1) * n, len(cells) * n))


def test_genie_rate_must_be_shared_across_methods(sweep):
    summary, cells = sweep
    summary = _copy(summary)
    summary["mean_rate_opt"][0] *= 1.0 + 1e-6
    assert "genie_shared" in _names(checks.check_sweep(summary, cells))


def test_non_finite_objective_is_rejected(converge):
    t, truth, v_init = converge
    t = _copy(t)
    j = 4
    rows = list(checks.traces(t).values())[j]
    t["objective"][rows[50]] = math.nan
    found = checks.check_converge(t, truth, v_init)
    assert _ops(found, "objective_finite") == [j]


def test_trace_must_start_at_v_init(converge):
    t, truth, v_init = converge
    t = _copy(t)
    t["vx"][0] += 0.5
    t["err_vx"][0] = abs(t["vx"][0] - truth[0])
    assert _ops(checks.check_converge(t, truth, v_init), "trace_starts_at_init") == [0]


def test_error_columns_must_match_the_iterate(converge):
    t, truth, v_init = converge
    t = _copy(t)
    t["err_vy"][-1] *= 2.0
    found = checks.check_converge(t, truth, v_init)
    assert _ops(found, "error_columns") == [len(checks.traces(t)) - 1]


def test_objective_falling_below_its_start_is_rejected(converge):
    t, truth, v_init = converge
    t = _copy(t)
    last = list(checks.traces(t).values())[0][-1]
    t["objective"][last] = t["objective"][0] - 1.0
    assert _ops(checks.check_converge(t, truth, v_init), "objective_rises") == [0]


def test_optimizer_ranking_is_checked(converge):
    t, truth, v_init = converge
    t = _copy(t)
    swap = {"adam-ao": "plain-gd", "plain-gd": "adam-ao"}
    t["variant"] = np.array([swap.get(v, v) for v in t["variant"]])
    assert "rse100_order" in _names(checks.check_converge(t, truth, v_init))


@pytest.mark.parametrize("dof", [49, 160, 800, 8000])
def test_chi2_interval_is_close_to_exact_and_never_narrower(dof):
    stats = pytest.importorskip("scipy.stats")
    lo, hi = checks.chi2_interval(dof)
    exact_lo = stats.chi2.ppf(checks.TAIL / 2, dof)
    exact_hi = stats.chi2.isf(checks.TAIL / 2, dof)
    assert 0.98 * exact_lo <= lo <= exact_lo
    assert exact_hi <= hi <= 1.01 * exact_hi


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
