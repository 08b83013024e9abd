"""Experiment harness: RNG streams, closed-loop runs, sweeps, CSV io, config parsing."""
import dataclasses
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from nfbeam import geometry, harness
from nfbeam.agdao import VARIANTS
from nfbeam.beamforming import (
    feedback_latch_index,
    ff_beamformers,
    opt_beamformers,
    predictive_beamformers,
)
from nfbeam.config import (
    AdamHyper,
    ConfigError,
    ExperimentConfig,
    SystemConfig,
    build_config,
    dbm_to_watts,
)
from nfbeam.geometry import NearField
from nfbeam.harness import (
    BELIEF_COLUMNS,
    METRIC_COLUMNS,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    convergence_study,
    power_sweep,
    run_experiment,
    stream,
    write_belief_csv,
    write_metrics_csv,
    write_summary_csv,
    write_trace_csv,
)
from nfbeam.motion import generate_trajectory
from nfbeam.signals import cpi_throughput, observation_mean

from helpers import belief_rows, metric_rows, read_csv_table


def small_config(**kw):
    sys_kw = kw.pop("system", {})
    return ExperimentConfig(
        system=SystemConfig(num_antennas=16, **sys_kw),
        num_cpis=kw.pop("num_cpis", 30),
        **kw,
    )


def test_stream_determinism_and_independence():
    a = stream(7, "trajectory").normal(size=8)
    b = stream(7, "trajectory").normal(size=8)
    np.testing.assert_array_equal(a, b)
    c = stream(7, "echo-noise").normal(size=8)
    assert not np.array_equal(a, c)
    d = stream(7, "echo-noise", 1).normal(size=8)
    assert not np.array_equal(c, d)
    e = stream(8, "trajectory").normal(size=8)
    assert not np.array_equal(a, e)
    with pytest.raises(ValueError):
        stream(7, "weather")


def test_first_cpi_is_initial_access():
    for method in ("ekf", "agdao", "ff", "fd"):
        result = run_experiment(small_config(method=method, num_cpis=3))
        first = dict(zip(METRIC_COLUMNS, result.metrics[0].tolist()))
        assert first["cpi"] == 1
        # every pointer starts from the reported true state, so all four
        # throughput columns coincide on the first CPI
        assert first["rate"] == first["rate_opt"] == first["rate_ff"] == first["rate_fd"]
        for axis in ("x", "y", "vx", "vy"):
            assert first[f"{axis}_hat"] == first[axis]
        assert first["verr_x"] == 0.0 and first["verr_y"] == 0.0


def test_single_cpi_run():
    result = run_experiment(small_config(method="ekf", num_cpis=1))
    assert result.metrics.shape == (1, len(METRIC_COLUMNS))
    assert result.belief.shape == (1, len(BELIEF_COLUMNS))
    assert metric_rows(result, "rate") == metric_rows(result, "rate_opt")


def test_matched_method_rides_the_opt_column():
    result = run_experiment(small_config(method="opt", num_cpis=10))
    assert metric_rows(result, "rate") == metric_rows(result, "rate_opt")
    assert metric_rows(result, "verr_x", "verr_y") == [(0.0, 0.0)] * 10


def _trajectory(cfg):
    return generate_trajectory(
        cfg.initial_state, cfg.motion_var, cfg.system.cpi_duration_s, cfg.num_cpis,
        stream(cfg.seed, "trajectory"),
    )


def _fd_state(traj, cpi, period_cpis, dt):
    """Feedback pointer at one CPI: the latched state, dead-reckoned since its report."""
    latch = feedback_latch_index(cpi, period_cpis)
    st = traj[latch - 1]
    return st[:2] + (cpi - latch) * dt * st[2:], st[2:]


def _single_rate(cfg, bf, eta):
    """cpi_throughput of one beam at one true state."""
    return cpi_throughput(NearField(cfg.system, eta[:2]), eta[2:], bf)


def _per_cpi_baseline_rates(cfg):
    """(opt, ff, fd) rates built one CPI at a time with single-state calls."""
    system = cfg.system
    traj = _trajectory(cfg)
    out = []
    for cpi, eta in enumerate(traj, start=1):
        bf_opt = opt_beamformers(NearField(system, eta[:2]), eta[2:])
        if cpi == 1:
            bf_ff = bf_fd = bf_opt
        else:
            bf_ff = ff_beamformers(system, eta[:2], eta[2:])
            fd_p, fd_v = _fd_state(traj, cpi, cfg.feedback_period_cpis, system.cpi_duration_s)
            bf_fd = predictive_beamformers(NearField(system, fd_p), fd_v)
        out.append(tuple(_single_rate(cfg, bf, eta) for bf in (bf_opt, bf_ff, bf_fd)))
    return out


# CPIs a chunk of the loop at the default M = 512, N = 10
CHUNK = harness.BASELINE_CHUNK_ELEMENTS // (10 * 512)


@pytest.mark.parametrize("num_cpis", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("signed", [False, True])
def test_batched_baselines_equal_the_per_cpi_loop(num_cpis, signed):
    assert CHUNK > 2
    # feedback every 4 CPIs latches inside the chunks of 6; a start in front of
    # the aperture puts antennas on both sides, where the conventions differ
    cfg = ExperimentConfig(
        system=SystemConfig(signed_projection=signed), method="fd", num_cpis=num_cpis,
        seed=3, feedback_period_s=4e-4, initial_state=(0.5, 6.0, 8.0, 7.0),
    )
    assert cfg.feedback_period_cpis == 4
    result = run_experiment(cfg)
    want = _per_cpi_baseline_rates(cfg)
    assert metric_rows(result, "rate_opt", "rate_ff", "rate_fd") == want
    assert metric_rows(result, "rate") == [(fd,) for _, _, fd in want]


def _spy_beams(monkeypatch, method):
    """Copies of the beams the tracker's step returns, one per tracked CPI."""
    name = f"{method}_track_step"
    step = getattr(harness, name)
    beams = []

    def spy(*args, **kwargs):
        out = step(*args, **kwargs)
        beams.append(np.array(out[0]))
        return out

    monkeypatch.setattr(harness, name, spy)
    return beams


@pytest.mark.parametrize("num_cpis", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("method", ["ekf", "agdao"])
def test_tracker_rate_is_its_beam_scored_alone(method, signed, num_cpis, monkeypatch):
    # the loop scores the tracker's beams in a fourth slot of each chunk; each
    # must land on its own CPI, chunk edges included
    cfg = ExperimentConfig(
        system=SystemConfig(signed_projection=signed), method=method, num_cpis=num_cpis,
        seed=3, feedback_period_s=4e-4, initial_state=(0.5, 6.0, 8.0, 7.0),
    )
    beams = _spy_beams(monkeypatch, method)
    result = run_experiment(cfg)
    assert len(beams) == num_cpis - 1
    baselines = _per_cpi_baseline_rates(cfg)
    traj = _trajectory(cfg)
    # CPI 1 is initial access: the tracker points the genie beam
    want = [baselines[0][0]] + [_single_rate(cfg, bf, eta) for bf, eta in zip(beams, traj[1:])]
    assert metric_rows(result, "rate") == [(rate,) for rate in want]
    assert metric_rows(result, "rate_opt", "rate_ff", "rate_fd") == baselines


@pytest.mark.parametrize("num_cpis", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("method", ["opt", "ff", "fd", "ekf", "agdao"])
def test_estimate_columns_of_every_method(method, signed, num_cpis, monkeypatch):
    # the baselines' estimates are the truth (opt, ff) or the feedback pointer's
    # dead-reckoned state (fd); a tracker's are its own outputs from CPI 2 on
    cfg = ExperimentConfig(
        system=SystemConfig(signed_projection=signed), method=method, num_cpis=num_cpis,
        seed=3, feedback_period_s=4e-4, initial_state=(0.5, 6.0, 8.0, 7.0),
    )
    steps = []
    if method == "agdao":
        step = harness.agdao_track_step

        def spy(*args, **kwargs):
            out = step(*args, **kwargs)
            steps.append((*out[1], *out[2]))
            return out

        monkeypatch.setattr(harness, "agdao_track_step", spy)
    result = run_experiment(cfg)
    traj = _trajectory(cfg)
    truth = [tuple(s) for s in traj.tolist()]
    if method == "fd":
        want = []
        for cpi in range(1, num_cpis + 1):
            p, v = _fd_state(traj, cpi, cfg.feedback_period_cpis, cfg.system.cpi_duration_s)
            want.append((*p, *v))
    elif method == "ekf":
        want = belief_rows(result, "x", "y", "vx", "vy")
    elif method == "agdao":
        want = truth[:1] + steps
    else:
        want = truth
    assert len(steps) == (num_cpis - 1 if method == "agdao" else 0)
    assert metric_rows(result, "x", "y", "vx", "vy") == truth
    assert metric_rows(result, "x_hat", "y_hat", "vx_hat", "vy_hat") == want
    assert metric_rows(result, "verr_x", "verr_y") == [
        (abs(vx - vx_hat), abs(vy - vy_hat))
        for vx, vy, vx_hat, vy_hat in metric_rows(result, "vx", "vy", "vx_hat", "vy_hat")
    ]


def test_opt_column_closed_form_and_dominance():
    cfg = small_config(method="ekf", num_cpis=20)
    result = run_experiment(cfg)
    p_w = cfg.system.tx_power_w
    m = cfg.system.num_antennas
    for x, y, rate_opt, *others in metric_rows(
        result, "x", "y", "rate_opt", "rate", "rate_ff", "rate_fd"
    ):
        a1 = NearField(cfg.system, np.array([x, y])).alpha1
        want = math.log2(1.0 + p_w * m * a1 * a1 / cfg.system.comm_noise_power)
        assert abs(rate_opt - want) <= 1e-9 * want
        for other in others:
            assert other <= rate_opt * (1.0 + 1e-12)


def test_run_is_deterministic():
    cfg = small_config(method="ekf", num_cpis=15)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.metrics.tobytes() == second.metrics.tobytes()
    assert first.belief.tobytes() == second.belief.tobytes()


def test_ekf_run_shares_no_state_memory(monkeypatch):
    # states are mutable arrays: the truth table, the estimate table and every
    # belief mean must be separate buffers, so no in-place write reaches another
    handed, inputs, outputs = [], [], []
    step = harness.ekf_track_step

    def spy(belief, *args, **kwargs):
        handed.append(belief.mean.tobytes())
        out = step(belief, *args, **kwargs)
        inputs.append(belief)
        outputs.append(out[1])
        return out

    tables = {}

    def keep_locals(frame, event, arg):
        if event == "return" and frame.f_code is run_experiment.__code__:
            tables.update(truth=frame.f_locals["truth"], est=frame.f_locals["est"])

    monkeypatch.setattr(harness, "ekf_track_step", spy)
    cfg = small_config(method="ekf", num_cpis=8)
    sys.setprofile(keep_locals)
    try:
        run_experiment(cfg)
    finally:
        sys.setprofile(None)
    assert all(b is a for a, b in zip(outputs, inputs[1:]))
    # no step wrote the mean it was handed
    assert [belief.mean.tobytes() for belief in inputs] == handed
    arrays = [tables["truth"], tables["est"], inputs[0].mean, *(b.mean for b in outputs)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert tables["truth"].tobytes() == _trajectory(cfg).tobytes()


def test_a_kept_observe_draws_its_own_cpis_echo(monkeypatch):
    # observe is a function of its CPI's true state, not of the loop's chunk
    # and index at call time: kept past the run, CPI 2's observe still draws
    # CPI 2's echo, noiseless here so that it is the echo mean
    kept = []
    step = harness.ekf_track_step

    def spy(belief, observe, *args):
        out = step(belief, observe, *args)
        kept.append((observe, out[0]))
        return out

    monkeypatch.setattr(harness, "ekf_track_step", spy)
    system = SystemConfig(num_antennas=512, echo_noise_power=0.0)
    cfg = ExperimentConfig(system=system, method="ekf", num_cpis=8)
    # the run spans two chunks
    assert harness.BASELINE_CHUNK_ELEMENTS // (system.symbols_per_cpi * 512) < cfg.num_cpis
    run_experiment(cfg)
    observe, bf = kept[0]
    truth = _trajectory(cfg)
    expected = observation_mean(NearField(system, truth[1, :2]), truth[1, 2:], bf[-1])
    np.testing.assert_array_equal(observe(bf), expected)


class FakeTracker:
    """A stand-in for TRACKERS' entries: a fixed offset from the truth as its
    estimates, each CPI's beams pointed from them, and every step recorded."""

    made = []

    def __init__(self, config, truth):
        self.system = config.system
        self.est = truth + [1.0, 2.0, 0.5, -0.5]
        self.belief = object()
        self.steps, self.beams = [], []
        FakeTracker.made.append(self)

    def step(self, i, observe):
        bf = predictive_beamformers(NearField(self.system, self.est[i, :2]), self.est[i, 2:])
        observe(bf)
        self.steps.append(i)
        self.beams.append(bf)
        return bf


@pytest.mark.parametrize("chunks,extra", [(1, 1), (2, 3)], ids=["chunk+1", "2chunks+3"])
def test_run_experiment_steps_a_substitute_tracker(monkeypatch, chunks, extra):
    # the loop knows trackers only through TRACKERS: one step per CPI from CPI
    # 2 on, in order across chunks; its beams are scored as rate, its est rows
    # are the estimate columns and its belief is the run's
    system = SystemConfig(num_antennas=16)
    chunk = harness.BASELINE_CHUNK_ELEMENTS // (system.symbols_per_cpi * system.num_antennas)
    num_cpis = chunks * chunk + extra
    monkeypatch.setattr(harness, "TRACKERS", {"ekf": FakeTracker})
    monkeypatch.setattr(FakeTracker, "made", [])
    cfg = ExperimentConfig(system=system, method="ekf", num_cpis=num_cpis)
    result = run_experiment(cfg)
    (fake,) = FakeTracker.made
    assert fake.steps == list(range(1, num_cpis))
    assert result.belief is fake.belief
    column = dict(zip(METRIC_COLUMNS, result.metrics.T))
    est = np.column_stack([column[name] for name in ("x_hat", "y_hat", "vx_hat", "vy_hat")])
    np.testing.assert_array_equal(est, fake.est)
    truth = _trajectory(cfg)
    near, vel = NearField(system, truth[1:, :2]), truth[1:, 2:]
    np.testing.assert_allclose(
        column["rate"][1:], cpi_throughput(near, vel, np.array(fake.beams)), rtol=1e-12
    )
    # CPI 1 is initial access, on the genie beam
    assert column["rate"][0] == column["rate_opt"][0]


def test_belief_rows_only_for_ekf():
    ekf = run_experiment(small_config(method="ekf", num_cpis=5))
    assert ekf.belief.shape == (5, len(BELIEF_COLUMNS))
    assert belief_rows(ekf, "cpi") == [(1.0,), (2.0,), (3.0,), (4.0,), (5.0,)]
    agdao = run_experiment(small_config(method="agdao", num_cpis=5))
    assert agdao.belief is None


def test_unknown_method_rejected():
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(small_config(), method="oracle"))


def test_power_sweep_single_cell_matches_run():
    cfg = small_config(num_cpis=12)
    summary = power_sweep(cfg, powers_dbm=(30.0,), methods=("ekf",))
    assert summary.dtype.names == SUMMARY_COLUMNS
    direct = run_experiment(dataclasses.replace(cfg, method="ekf")).summary()
    assert summary.tolist() == [tuple(direct[name] for name in SUMMARY_COLUMNS)]
    with pytest.raises(ConfigError):
        power_sweep(cfg, powers_dbm=())
    with pytest.raises(ConfigError):
        power_sweep(cfg, powers_dbm=(30.0,), methods=("oracle",))


def test_power_sweep_orderings():
    cfg = ExperimentConfig(system=SystemConfig(num_antennas=32), num_cpis=150, seed=0)
    rows = power_sweep(cfg, powers_dbm=(10.0, 20.0, 30.0), methods=("ekf", "agdao"))
    ekf = {r.tx_power_dbm: r.mean_rate for r in rows if r.method == "ekf"}
    ag = {r.tx_power_dbm: r.mean_rate for r in rows if r.method == "agdao"}
    assert ekf[10.0] <= ekf[20.0] <= ekf[30.0]
    assert ag[10.0] <= ekf[10.0]


def test_convergence_study_shape_and_determinism():
    cfg = small_config(adam=AdamHyper(max_iters=30))
    traces = convergence_study(cfg, num_seeds=2)
    assert list(traces) == [(v, seed) for seed in range(2) for v in VARIANTS]
    gt_v = cfg.convergence_state[2:]
    for table in traces.values():
        assert table.shape == (31, len(TRACE_COLUMNS))
        assert table[:, 0].tolist() == list(range(31))
        assert tuple(table[0, 1:3].tolist()) == tuple(cfg.convergence_v_init)
        # err_* as |v - v_gt| in Python floats, bit for bit
        for _, vx, vy, *_, err_vx, err_vy in table.tolist():
            assert err_vx == abs(vx - gt_v[0])
            assert err_vy == abs(vy - gt_v[1])
    again = convergence_study(cfg, num_seeds=2)
    assert list(again) == list(traces)
    for key, table in traces.items():
        np.testing.assert_array_equal(again[key], table)
    with pytest.raises(ConfigError):
        convergence_study(cfg, num_seeds=0)
    with pytest.raises(ConfigError):
        convergence_study(cfg, variants=("newton",), num_seeds=1)


def test_convergence_study_and_trace_writer_stay_small(tmp_path):
    # the defaults with signed projection, 10 seeds x 3 variants x 501
    # iterates at M=512: the traces are 30 float tables of 32 kB (~1 MiB);
    # per-iterate row objects or the whole file as one string take over 10 MiB
    base = ExperimentConfig()
    cfg = dataclasses.replace(
        base, system=dataclasses.replace(base.system, signed_projection=True)
    )
    tracemalloc.start()
    try:
        write_trace_csv(tmp_path / "trace.csv", convergence_study(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_convergence_study_checks_variants_before_any_ascent(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "estimate_velocity", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError) as err:
        convergence_study(small_config(), variants=("adam-ao", "bogus"), num_seeds=2)
    assert err.value.field == "variant"
    assert calls == []


def _count_snapshot_builds(monkeypatch):
    """A list that grows by one per near-field build (one element_distances call each)."""
    builds = []
    distances = geometry.element_distances

    def counted(*args):
        builds.append(args)
        return distances(*args)

    monkeypatch.setattr(geometry, "element_distances", counted)
    return builds


def test_convergence_study_builds_one_snapshot(monkeypatch):
    # the beam, every echo and every ascent read one snapshot of the known position
    builds = _count_snapshot_builds(monkeypatch)
    convergence_study(ExperimentConfig())
    assert len(builds) == 1


@pytest.mark.parametrize("method", ["ekf", "agdao"])
def test_tracking_run_builds_two_snapshots_a_chunk_and_one_a_tracked_cpi(monkeypatch, method):
    # per chunk, the true positions and the feedback pointer's; per tracked
    # CPI, the tracker's prediction, shared by its beam and its estimate
    builds = _count_snapshot_builds(monkeypatch)
    cfg = ExperimentConfig(method=method, num_cpis=60)
    run_experiment(cfg)
    system = cfg.system
    chunk = harness.BASELINE_CHUNK_ELEMENTS // (system.symbols_per_cpi * system.num_antennas)
    assert len(builds) == 2 * -(-cfg.num_cpis // chunk) + cfg.num_cpis - 1 == 79


def test_metrics_csv_round_trip(tmp_path):
    result = run_experiment(small_config(method="ekf", num_cpis=8))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, result.metrics)
    header, table = read_csv_table(path)
    assert header == list(METRIC_COLUMNS)
    assert table.tolist() == result.metrics.tolist()
    first = path.read_bytes()
    # cpi as an int
    assert [line.split(",")[0] for line in first.decode().splitlines()[1:]] == [
        str(cpi) for cpi in range(1, 9)
    ]
    write_metrics_csv(path, result.metrics)
    assert path.read_bytes() == first


def test_metrics_csv_reads_numpy_floats_back_as_floats(tmp_path):
    # the table's cells are np.float64, whose repr is not a plain number; each
    # is written as its Python float's repr, from any memory layout of the table
    metrics = run_experiment(small_config(method="ekf", num_cpis=2)).metrics
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, metrics)
    first = path.read_bytes()
    assert read_csv_table(path)[1].tolist() == metrics.tolist()
    for layout in (np.asfortranarray(metrics), np.repeat(metrics, 2, axis=1)[:, ::2]):
        write_metrics_csv(path, layout)
        assert path.read_bytes() == first


def test_tracking_run_and_its_writers_build_no_row_objects(tmp_path, monkeypatch):
    # 2000 EKF CPIs at M=64: the metrics and belief tables take 0.4 MiB, and
    # the run's peak is mostly a chunk's four beam slots (2 MiB). A MetricRow
    # and a BeliefRow kept per CPI took the peak to 5.8 MiB.
    built = []
    init = harness.MetricRow.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(harness.MetricRow, "__init__", counted)
    cfg = ExperimentConfig(system=SystemConfig(num_antennas=64), method="ekf", num_cpis=2000)
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        write_metrics_csv(tmp_path / "metrics.csv", result.metrics)
        write_belief_csv(tmp_path / "belief.csv", result.belief)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == []
    assert not hasattr(harness, "BeliefRow")
    assert peak <= 5 * 2**20, peak / 2**20
    # the rows view is built on first access, once, from the table
    rows = result.rows
    assert result.rows is rows and len(built) == 2000
    assert [dataclasses.astuple(row) for row in rows[:3]] == metric_rows(result, *METRIC_COLUMNS)[:3]
    assert type(rows[0].cpi) is int


def test_all_writers_are_byte_stable(tmp_path):
    cfg = small_config(method="ekf", num_cpis=6)
    result = run_experiment(cfg)
    sweep = power_sweep(small_config(num_cpis=4), powers_dbm=(30.0,), methods=("ekf",))
    trace = convergence_study(dataclasses.replace(cfg, adam=AdamHyper(max_iters=5)), num_seeds=1)
    for name, writer, table in (
        ("belief.csv", write_belief_csv, result.belief),
        ("summary.csv", write_summary_csv, sweep),
        ("trace.csv", write_trace_csv, trace),
    ):
        path = tmp_path / name
        writer(path, table)
        first = path.read_bytes()
        writer(path, table)
        assert path.read_bytes() == first
        header = first.decode().splitlines()[0]
        assert "," in header and header.lower() == header


def _reference_csv(fieldnames, rows) -> bytes:
    return ("\n".join([",".join(fieldnames), *(",".join(map(str, row)) for row in rows)])
            + "\n").encode()


def test_writers_match_a_row_by_row_reference(tmp_path, monkeypatch):
    # blocks of 3 rows, so every file spans several; cells cover -0.0,
    # exponent forms, integer-valued and numpy floats, and the int columns
    monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", 3)
    cells = [-0.0, 1e-05, 3.0, 0.1, -2.5e-300, 1.7976931348623157e308, np.float64(1e16), 12.0]
    floats = [cells[i % len(cells):] + cells[:i % len(cells)] for i in range(8)]
    metrics = [(i + 1, *(f * 2)[:14]) for i, f in enumerate(floats)]
    beliefs = [(i + 1, *f[:8], f[0], i % 2) for i, f in enumerate(floats)]
    sweep = [(("ekf", "agdao")[i % 2], *f[:7]) for i, f in enumerate(floats)]
    for name, writer, columns, rows, table in (
        ("metrics.csv", write_metrics_csv, METRIC_COLUMNS, metrics, np.array(metrics, float)),
        ("belief.csv", write_belief_csv, BELIEF_COLUMNS, beliefs, np.array(beliefs, float)),
        ("summary.csv", write_summary_csv, SUMMARY_COLUMNS, sweep,
         np.rec.fromrecords(sweep, names=SUMMARY_COLUMNS)),
    ):
        writer(tmp_path / name, table)
        assert (tmp_path / name).read_bytes() == _reference_csv(columns, rows), name

    tables = {
        key: np.array([[float(k), *floats[k][:7]] for k in range(n)])
        for key, n in ((("adam-ao", 0), 4), (("plain-gd", 3), 7))
    }
    write_trace_csv(tmp_path / "trace.csv", tables)
    want = _reference_csv(
        ("variant", "seed", *TRACE_COLUMNS),
        [
            (variant, seed, int(row[0]), *row[1:])
            for (variant, seed), table in tables.items()
            for row in table.tolist()
        ],
    )
    assert (tmp_path / "trace.csv").read_bytes() == want


def test_writers_on_zero_rows_write_only_the_header(tmp_path):
    sweep = np.rec.fromrecords([("ekf", *[1.0] * 7)], names=SUMMARY_COLUMNS)[:0]
    for name, writer, columns, table in (
        ("metrics.csv", write_metrics_csv, METRIC_COLUMNS, np.empty((0, len(METRIC_COLUMNS)))),
        ("belief.csv", write_belief_csv, BELIEF_COLUMNS, np.empty((0, len(BELIEF_COLUMNS)))),
        ("summary.csv", write_summary_csv, SUMMARY_COLUMNS, sweep),
    ):
        writer(tmp_path / name, table)
        assert (tmp_path / name).read_bytes() == _reference_csv(columns, []), name
    header = ("variant", "seed", *TRACE_COLUMNS)
    for traces in ({}, {("adam-ao", 0): np.empty((0, len(TRACE_COLUMNS)))}):
        write_trace_csv(tmp_path / "trace.csv", traces)
        assert (tmp_path / "trace.csv").read_bytes() == _reference_csv(header, [])


def test_writers_write_non_finite_cells_and_percent_signs_as_str_does(tmp_path):
    cells = [math.nan, math.inf, -math.inf]
    rows = [(1, *(cells * 5)[:14]), (2, *(cells * 5)[1:15])]
    write_metrics_csv(tmp_path / "metrics.csv", np.array(rows, float))
    assert (tmp_path / "metrics.csv").read_bytes() == _reference_csv(METRIC_COLUMNS, rows)
    sweep = [("e%sk%%", *(cells * 3)[:7])]
    write_summary_csv(tmp_path / "summary.csv", np.rec.fromrecords(sweep, names=SUMMARY_COLUMNS))
    assert (tmp_path / "summary.csv").read_bytes() == _reference_csv(SUMMARY_COLUMNS, sweep)
    # a key's variant is written verbatim, % and all
    table = np.array([[0.0, *(cells * 3)[:7]], [1.0, 0.5, *(cells * 2)[:6]]])
    traces = {("adam-ao%d%%s", 3): table, ("100%", 4): table[:1]}
    write_trace_csv(tmp_path / "trace.csv", traces)
    want = _reference_csv(
        ("variant", "seed", *TRACE_COLUMNS),
        [
            (variant, seed, int(row[0]), *row[1:])
            for (variant, seed), t in traces.items()
            for row in t.tolist()
        ],
    )
    assert (tmp_path / "trace.csv").read_bytes() == want


def test_config_defaults_match_operating_point():
    cfg = ExperimentConfig()
    assert cfg.system.num_antennas == 512
    assert cfg.system.carrier_freq_hz == 30.0e9
    assert cfg.system.symbol_duration_s == 1e-5
    assert cfg.system.symbols_per_cpi == 10
    assert cfg.system.cpi_duration_s == 1e-4
    assert cfg.system.tx_power_dbm == 30.0
    assert cfg.system.tx_power_w == pytest.approx(1.0)
    assert cfg.system.comm_noise_power == 1e-8
    assert cfg.system.echo_noise_power == 1e-8
    assert cfg.initial_state == (5.0, 10.0, 8.0, 7.0)
    assert cfg.motion_var == (0.01, 0.01)
    assert cfg.adam.step == 0.05 and cfg.adam.max_iters == 500
    assert cfg.ekf_init_cov == 0.1
    assert cfg.convergence_state == (0.0, 10.0, 8.0, 7.0)
    assert cfg.feedback_period_cpis == 1000
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)


# Every settable value away from its default; the round-trip test checks
# that this stays true as fields are added.
NON_DEFAULT = ExperimentConfig(
    system=SystemConfig(
        num_antennas=64,
        carrier_freq_hz=28.0e9,
        spacing_m=0.006,
        symbol_duration_s=2.0e-5,
        symbols_per_cpi=8,
        tx_power_dbm=20.0,
        comm_noise_power=2.0e-8,
        echo_noise_power=3.0e-8,
        ref_gain=0.5,
        rcs=2.0,
        signed_projection=True,
    ),
    method="agdao",
    num_cpis=7,
    seed=3,
    initial_state=(4.0, 12.0, -1.0, 2.5),
    motion_var=(0.02, 0.03),
    feedback_period_s=0.05,
    adam=AdamHyper(
        step=0.01, beta1=0.8, beta2=0.99, epsilon=1e-6, max_iters=40, rel_tol=1e-4,
    ),
    ekf_init_cov=0.2,
    convergence_state=(1.0, 9.0, 3.0, 4.0),
    convergence_v_init=(0.5, -0.5),
)


def _leaves(node, prefix=""):
    """Dotted path -> value for every settable leaf of a config dict."""
    out = {}
    for key, value in node.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


DEFAULT_LEAVES = _leaves(dataclasses.asdict(ExperimentConfig()))


def test_config_file_round_trip(tmp_path):
    changed = _leaves(dataclasses.asdict(NON_DEFAULT))
    assert changed.keys() == DEFAULT_LEAVES.keys()
    assert [k for k in changed if changed[k] == DEFAULT_LEAVES[k]] == []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(NON_DEFAULT)))
    assert build_config(path) == NON_DEFAULT


def _wrong_types(default):
    """--set values of the wrong JSON type for a leaf with this default."""
    if isinstance(default, bool):
        return ["1", '"yes"']
    if isinstance(default, int):
        return ["2.5", "true", '"3"']
    if isinstance(default, float):
        return ["true", "fast", "[1.0]"]
    if default is None:  # spacing_m: a number or null
        return ["true", "half"]
    if isinstance(default, str):
        return ["5", "null"]
    wrong_element = json.dumps(["x"] * len(default))
    return ["5", "[1.0]", wrong_element, "{}"]


@pytest.mark.parametrize("path", sorted(DEFAULT_LEAVES))
def test_wrong_type_names_the_field(path):
    for text in _wrong_types(DEFAULT_LEAVES[path]):
        with pytest.raises(ConfigError) as err:
            build_config(None, [f"{path}={text}"])
        assert err.value.field == path, text


def test_direct_construction_is_checked():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(num_cpis=0)
    assert (err.value.field, err.value.message) == ("num_cpis", "must be >= 1, got 0")
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(ExperimentConfig().system, symbols_per_cpi=0)
    assert (err.value.field, err.value.message) == ("symbols_per_cpi", "must be >= 1, got 0")
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(ExperimentConfig(), motion_var=(-0.01, 0.01))
    assert err.value.message == "must be nonnegative, got (-0.01, 0.01)"


def test_tuple_fields_take_a_list_or_an_array_of_numbers():
    # each becomes the tuple of floats the field is annotated with, so the
    # config hashes, compares and runs as one built from tuples does
    cfg = small_config(
        num_cpis=3, motion_var=[0.01, 0.01], initial_state=np.array([5, 10, 8, 7]),
        convergence_state=[0, 10.0, np.float64(8), 7], convergence_v_init=np.zeros(2),
    )
    assert cfg == small_config(num_cpis=3) and hash(cfg) == hash(small_config(num_cpis=3))
    for name in ("initial_state", "motion_var", "convergence_state", "convergence_v_init"):
        assert all(type(x) is float for x in getattr(cfg, name)), name
    # the EKF caches its forecast model on motion_var, which must hash
    want = run_experiment(small_config(num_cpis=3)).metrics
    np.testing.assert_array_equal(run_experiment(cfg).metrics, want)


@pytest.mark.parametrize("value", [[math.nan, 10, 8, 7], np.array([5.0, math.inf, 8.0, 7.0])])
def test_a_non_finite_entry_of_a_list_or_an_array_is_refused(value):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(initial_state=value)
    assert err.value.field == "initial_state"
    assert err.value.message.startswith("must be finite, got ")


@pytest.mark.parametrize(
    "name, value, length",
    [
        ("initial_state", [5.0, 10.0, 8.0], 4),
        ("initial_state", np.zeros(5), 4),
        ("convergence_state", np.zeros((4, 1)), 4),
        ("convergence_state", ["0", 10.0, 8.0, 7.0], 4),
        ("motion_var", 0.01, 2),
        ("motion_var", (True, 0.01), 2),
        ("convergence_v_init", None, 2),
    ],
)
def test_a_tuple_field_of_the_wrong_length_or_type_names_itself(name, value, length):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(**{name: value})
    assert err.value.field == name
    assert err.value.message == f"must be {length} numbers, got {value!r}"


def test_adam_hyper_import_paths():
    # it lives in config, next to the configs that nest it; agdao imports it
    from nfbeam import agdao, config

    assert agdao.AdamHyper is config.AdamHyper is AdamHyper


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError) as err:
        build_config(None, ["system.num_antenas=4"])
    assert err.value.field == "system.num_antenas"
    for assignment, field in (
        ("num_cpis=true", "num_cpis"),
        ("num_cpis=0", "num_cpis"),
        ("seed=-1", "seed"),
        ("method=oracle", "method"),
        ("motion_var=[-0.01, 0.01]", "motion_var"),
        ("feedback_period_s=1e-6", "feedback_period_s"),
        ("system.num_antennas=0", "system.num_antennas"),
        ("system.comm_noise_power=0.0", "system.comm_noise_power"),
        ("system.echo_noise_power=-1e-9", "system.echo_noise_power"),
        ("ekf_init_cov=0", "ekf_init_cov"),
        ("system.spacing_m=0", "system.spacing_m"),
        ("system.carrier_freq_hz=0", "system.carrier_freq_hz"),
        ("system.symbol_duration_s=0", "system.symbol_duration_s"),
        ("system.ref_gain=0", "system.ref_gain"),
        ("system.rcs=0", "system.rcs"),
        ("system=4", "system"),
        ("adam.step=0", "adam.step"),
        ("adam.beta2=1", "adam.beta2"),
        ("ma_window=20", "ma_window"),
        ("system.include_transmit_power=false", "system.include_transmit_power"),
    ):
        with pytest.raises(ConfigError) as err:
            build_config(None, [assignment])
        assert err.value.field == field, assignment
        assert "got" in err.value.message or err.value.message == "unknown key", assignment
    # every entry is checked: a NaN after a valid variance is refused too
    for motion_var in ((0.0, math.nan), (math.nan, 0.0)):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(motion_var=motion_var)
        assert err.value.field == "motion_var", motion_var
    # the constructors check finiteness, so no construction path skips it
    for build, field in (
        (lambda: ExperimentConfig(initial_state=(math.nan, 10, 8, 7)), "initial_state"),
        (lambda: ExperimentConfig(convergence_v_init=(math.nan, 0.0)), "convergence_v_init"),
        (lambda: ExperimentConfig(feedback_period_s=math.inf), "feedback_period_s"),
        (lambda: SystemConfig(carrier_freq_hz=math.inf), "carrier_freq_hz"),
        (lambda: AdamHyper(epsilon=math.inf), "epsilon"),
        (lambda: dataclasses.replace(ExperimentConfig(), ekf_init_cov=math.inf), "ekf_init_cov"),
    ):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.field == field
        assert err.value.message.startswith("must be finite, got "), field
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        build_config(bad)
    with pytest.raises(ConfigError):
        build_config(tmp_path / "missing.json")
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        build_config(bad)


def test_build_config_layering(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(small_config(seed=1))))
    cfg = build_config(
        path,
        ["system.num_antennas=64", "method=agdao", "adam.max_iters=50"],
        seed=9,
    )
    assert cfg.system.num_antennas == 64
    assert cfg.method == "agdao"
    assert cfg.adam.max_iters == 50
    assert cfg.seed == 9
    with pytest.raises(ConfigError):
        build_config(None, ["system.num_antennas"])
    with pytest.raises(ConfigError):
        build_config(None, ["=5"])
