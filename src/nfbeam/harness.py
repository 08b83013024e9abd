"""Closed-loop experiment runner, parameter sweeps, and CSV export."""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .agdao import VARIANTS, agdao_track_step, estimate_velocity
from .beamforming import fd_predicted_state, ff_beamformers, opt_beamformers, predictive_beamformers
from .config import ConfigError, ExperimentConfig
from .ekf import TrackerBelief, ekf_track_step
from .geometry import NearField
from .motion import generate_trajectory
from .signals import cpi_throughput, genie_rate, synthesize_observation

# Fixed ids keep the fan-out stable if stream names are ever added or reordered.
STREAM_IDS = {"trajectory": 0, "echo-noise": 1}

# The loop handles K CPIs a chunk with K * N * M at most this many (complex)
# elements, about 0.5 MB a beam slot; K = 6 at N = 10, M = 512.
BASELINE_CHUNK_ELEMENTS = 2**15

# Columns of one convergence trace's table, one row per iterate; a trace.csv
# row is the trace's variant and seed, then these.
TRACE_COLUMNS = ("k", "vx", "vy", "objective", "grad_x", "grad_y", "err_vx", "err_vy")

# The CSV writers format and write at most this many rows at a time.
CSV_BLOCK_ROWS = 256


def stream(master_seed: int, name: str, *extra: int) -> np.random.Generator:
    """Named generator fanned out from one master seed.

    Streams are independent: drawing more from one never shifts another.
    Extra integers key per-trial substreams.
    """
    if name not in STREAM_IDS:
        raise ValueError(f"unknown stream {name!r}; expected one of {sorted(STREAM_IDS)}")
    key = (STREAM_IDS[name],) + tuple(int(e) for e in extra)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


# Columns of a tracking run's metrics table, one row per CPI: truth, estimate,
# the method's and the baselines' rates, and the velocity errors.
METRIC_COLUMNS = (
    "cpi", "x", "y", "vx", "vy", "x_hat", "y_hat", "vx_hat", "vy_hat",
    "rate", "rate_opt", "rate_ff", "rate_fd", "verr_x", "verr_y",
)

# Columns of an EKF run's belief table, one row per CPI: the posterior mean,
# its marginal variances and the update's health readouts.
BELIEF_COLUMNS = (
    "cpi", "x", "y", "vx", "vy", "var_x", "var_y", "var_vx", "var_vy",
    "innovation_norm", "ridged",
)

# Columns of power_sweep's summary table, one row per (method, power) cell.
SUMMARY_COLUMNS = (
    "method", "tx_power_dbm", "mean_rate", "mean_rate_opt", "mean_rate_ff", "mean_rate_fd",
    "mean_verr_x", "mean_verr_y",
)

# One metrics row as an object, for RunResult.rows only.
MetricRow = dataclasses.make_dataclass(
    "MetricRow", [("cpi", int), *((name, float) for name in METRIC_COLUMNS[1:])], frozen=True
)


@dataclass
class RunResult:
    """Everything a tracking run produced: a (num_cpis, len(METRIC_COLUMNS))
    float metrics table and, for the EKF, a (num_cpis, len(BELIEF_COLUMNS))
    belief table; cpi and ridged are integer-valued floats."""

    config: ExperimentConfig
    metrics: np.ndarray
    belief: np.ndarray | None = None

    @functools.cached_property
    def rows(self) -> list[MetricRow]:
        """The metrics table as MetricRow objects, built on first access.

        The benchmark's output checks and its process probe read dataclass
        rows; this view goes once they read the table.
        """
        return [MetricRow(int(cpi), *cells) for cpi, *cells in self.metrics.tolist()]

    def summary(self) -> dict:
        # one strided column mean each: the bits of the mean of a contiguous
        # copy, where a mean over axis 0 would sum in another order
        column = dict(zip(METRIC_COLUMNS, self.metrics.T))
        return {
            "method": self.config.method,
            "num_cpis": len(self.metrics),
            "tx_power_dbm": self.config.system.tx_power_dbm,
            **{
                name: float(column[name.removeprefix("mean_")].mean())
                for name in SUMMARY_COLUMNS[2:]
            },
        }


class AgdaoTracker:
    """AGD-AO points from row i - 1 of est, a copy of the truth, and re-estimates
    the velocity by a MAP step, carrying its velocity covariance cov from CPI
    to CPI; cov starts at the EKF's ekf_init_cov I. It keeps no belief table."""

    def __init__(self, config: ExperimentConfig, truth: np.ndarray):
        self.config, self.est, self.belief = config, truth.copy(), None
        self.cov = config.ekf_init_cov * np.eye(2)

    def step(self, i: int, observe) -> np.ndarray:
        config = self.config
        bf, self.est[i, :2], self.est[i, 2:], _, self.cov = agdao_track_step(
            self.est[i - 1], self.cov, observe, config.system, config.motion_var,
            hyper=config.adam,
        )
        return bf


class EkfTracker:
    """The EKF forecasts and updates one belief across CPIs. belief is its
    BELIEF_COLUMNS table, row 0 the prior; est is a view of its means."""

    def __init__(self, config: ExperimentConfig, truth: np.ndarray):
        self.system, self.motion_var = config.system, config.motion_var
        # a fresh array, not a view of truth: the belief never aliases a table
        mean, cov = np.array(config.initial_state, float), config.ekf_init_cov * np.eye(4)
        self.state = TrackerBelief(mean, cov)
        self.belief = np.zeros((len(truth), len(BELIEF_COLUMNS)))
        self.belief[:, 0] = np.arange(1, len(truth) + 1)
        self.est = self.belief[:, 1:5]
        self.est[0], self.belief[0, 5:9] = mean, cov.diagonal()

    def step(self, i: int, observe) -> np.ndarray:
        bf, self.state, diag = ekf_track_step(self.state, observe, self.system, self.motion_var)
        row = self.belief[i]
        row[1:5], row[5:9] = self.state.mean, self.state.covariance.diagonal()
        row[9], row[10] = diag.innovation_norm, diag.ridged
        return bf


# The tracked methods, built from (config, truth): step(i, observe) fills row i of
# est, (num_cpis, 4), and of belief, a table or None, and returns the beams sent.
TRACKERS = {"agdao": AgdaoTracker, "ekf": EkfTracker}


def run_experiment(config: ExperimentConfig, progress=None) -> RunResult:
    """Run the closed tracking loop for config.method over config.num_cpis CPIs.

    CPI 1 points the genie beam, built once a run, for every method (initial
    access). From CPI 2 on, a tracked method's TRACKERS entry steps once per CPI,
    its observe drawing that CPI's echo, and rate_opt is genie_rate. opt and ff
    estimate the truth, fd the feedback pointer's states; opt's rate is rate_opt.

    The loop walks chunks of K CPIs, K * N * M at most BASELINE_CHUNK_ELEMENTS.
    Per chunk, one snapshot of the true positions serves genie_rate, the ff/fd
    beams (one batched call each) and one cpi_throughput call, which scores
    them and the tracker's beams. progress(cpi, num_cpis) is called once per CPI.
    """
    system, method, num_cpis = config.system, config.method, config.num_cpis
    dt = system.cpi_duration_s
    truth = generate_trajectory(
        config.initial_state, config.motion_var, dt, num_cpis, stream(config.seed, "trajectory"),
    )
    echo_rng = stream(config.seed, "echo-noise")
    fd = fd_predicted_state(truth, config.feedback_period_cpis, dt)
    tracker = TRACKERS[method](config, truth) if method in TRACKERS else None
    est = tracker.est if tracker else fd if method == "fd" else truth

    # rates of a chunk: opt, then its beam slots, ff, fd and a tracker's own beams
    slot = 3 if tracker else ("opt", "ff", "fd").index(method)
    beam_shape = (system.symbols_per_cpi, system.num_antennas)
    chunk = max(1, BASELINE_CHUNK_ELEMENTS // (beam_shape[0] * beam_shape[1]))
    beams = np.empty((2 + bool(tracker), min(chunk, num_cpis), *beam_shape), dtype=complex)
    metrics = np.empty((num_cpis, len(METRIC_COLUMNS)))
    metrics[:, 0] = np.arange(1, num_cpis + 1)

    for lo in range(0, num_cpis, chunk):
        part = slice(lo, lo + chunk)
        pos, vel = truth[part, :2], truth[part, 2:]
        near = NearField(system, pos)
        bf = beams[:, : len(pos)]
        bf[0] = ff_beamformers(system, pos, vel)
        bf[1] = predictive_beamformers(NearField(system, fd[part, :2]), fd[part, 2:])
        if lo == 0:
            # initial access: every pointer starts from the reported true
            # state, so every slot holds the genie beam
            bf[:, 0] = opt_beamformers(near[0], vel[0])
        for i in range(len(pos)):
            cpi = lo + i + 1
            if tracker and cpi > 1:  # no name keeps observe, nor its chunk's snapshot
                bf[-1, i] = tracker.step(cpi - 1, functools.partial(
                    synthesize_observation, near[i], vel[i], rng=echo_rng))
            if progress is not None:
                progress(cpi, num_cpis)

        rates = np.vstack([genie_rate(near), cpi_throughput(near, vel, bf)])
        if lo == 0:
            rates[0, 0] = rates[1, 0]  # CPI 1 scores the genie beam itself
        metrics[part, 1:] = np.column_stack([
            truth[part], est[part], rates[[slot, 0, 1, 2]].T,
            np.abs(truth[part, 2:] - est[part, 2:]),
        ])

    return RunResult(config, metrics, tracker.belief if tracker else None)


def power_sweep(
    config: ExperimentConfig,
    powers_dbm=(10.0, 20.0, 30.0, 40.0),
    methods=("ekf", "agdao"),
    progress=None,
) -> np.recarray:
    """One tracking run per (method, power) cell on the shared trajectory seed.

    Returns the summary table, one record of SUMMARY_COLUMNS per cell,
    method-major: method is a str column, the others float.
    """
    if len(powers_dbm) == 0:
        raise ConfigError("powers", "at least one power level is required")
    # every power is checked before the first cell runs; a bad one is
    # reported as field powers, with SystemConfig's message
    try:
        systems = [dataclasses.replace(config.system, tx_power_dbm=float(p)) for p in powers_dbm]
    except ConfigError as exc:
        raise ConfigError("powers", exc.message) from exc
    cells = []
    for method in methods:
        for system in systems:
            cfg = dataclasses.replace(config, method=method, system=system)
            summary = run_experiment(cfg).summary()
            cells.append(tuple(summary[name] for name in SUMMARY_COLUMNS))
            if progress is not None:
                progress(method, system.tx_power_dbm)
    dtype = [("method", object), *((name, float) for name in SUMMARY_COLUMNS[1:])]
    return np.array(cells, dtype).view(np.recarray)


def convergence_study(
    config: ExperimentConfig,
    variants=VARIANTS,
    num_seeds: int = 10,
) -> dict[tuple[str, int], np.ndarray]:
    """Single-CPI optimizer traces at the known-position instance.

    Per seed, one echo is synthesized at the ground-truth state and every
    variant runs on that same echo from the configured v_init. The stop rule
    is disabled so traces cover the full iteration budget. Returns one
    (iterates, len(TRACE_COLUMNS)) float table per (variant, seed), seed-major;
    row k is iterate k, row 0 the init, and err_* = |v - v_gt| per axis.
    """
    if num_seeds < 1:
        raise ConfigError("seeds", f"must be >= 1, got {num_seeds}")
    for variant in variants:
        if variant not in VARIANTS:
            raise ConfigError("variant", f"must be one of {list(VARIANTS)}, got {variant!r}")
    eta_gt = np.array(config.convergence_state, dtype=float)
    # one snapshot of the ground-truth position serves the beam, every echo
    # and every ascent
    near, v_gt = NearField(config.system, eta_gt[:2]), eta_gt[2:]
    v_init = np.asarray(config.convergence_v_init, dtype=float)

    hyper = dataclasses.replace(config.adam, rel_tol=0.0)

    bf = predictive_beamformers(near, v_init)
    traces: dict[tuple[str, int], np.ndarray] = {}
    for trial in range(num_seeds):
        rng = stream(config.seed, "echo-noise", trial)
        y = synthesize_observation(near, v_gt, bf, rng)
        for variant in variants:
            _, trace = estimate_velocity(variant, y, near, v_init, bf[-1], hyper=hyper)
            # TRACE_COLUMNS: the trace's six, then |v - v_gt| per axis
            traces[variant, trial] = np.hstack([trace, np.abs(trace[:, 1:3] - v_gt)])
    return traces


def _template(kinds: str) -> str:
    """A CSV row's %-template, one kind per column: d an int, r a float, s a str.

    A float's %r is its str, the shortest round-trip repr, and %d of an
    integer-valued float is its int's str.
    """
    return ",".join("%" + kind for kind in kinds) + "\n"


def _write_csv(path, fieldnames, parts) -> None:
    """A header line, then each (template, table) part's rows through its
    template, CSV_BLOCK_ROWS rows a format.

    Each block is converted, formatted and written before the next is read, so
    neither the file nor all of a table's cells are ever held at once.
    """
    with open(path, "w") as out:
        out.write(",".join(fieldnames) + "\n")
        for template, table in parts:
            for lo in range(0, len(table), CSV_BLOCK_ROWS):
                rows = table[lo : lo + CSV_BLOCK_ROWS].tolist()
                out.write((template * len(rows)) % tuple(chain.from_iterable(rows)))


def write_metrics_csv(path, metrics: np.ndarray) -> None:
    """A run's metrics table under METRIC_COLUMNS; cpi as an int."""
    template = _template("d" + "r" * (len(METRIC_COLUMNS) - 1))
    _write_csv(path, METRIC_COLUMNS, [(template, metrics)])


def write_belief_csv(path, belief: np.ndarray) -> None:
    """An EKF run's belief table under BELIEF_COLUMNS; cpi and ridged as ints."""
    template = _template("d" + "r" * (len(BELIEF_COLUMNS) - 2) + "d")
    _write_csv(path, BELIEF_COLUMNS, [(template, belief)])


def write_trace_csv(path, traces: dict[tuple[str, int], np.ndarray]) -> None:
    """convergence_study's tables as rows of variant, seed, then TRACE_COLUMNS; k as an int."""
    columns = _template("d" + "r" * (len(TRACE_COLUMNS) - 1))
    # each key's str, its % escaped, leads its table's template
    parts = (
        (f"{variant},{seed},".replace("%", "%%") + columns, table)
        for (variant, seed), table in traces.items()
    )
    _write_csv(path, ("variant", "seed", *TRACE_COLUMNS), parts)


def write_summary_csv(path, summary: np.ndarray) -> None:
    """power_sweep's summary table under SUMMARY_COLUMNS."""
    template = _template("s" + "r" * (len(SUMMARY_COLUMNS) - 1))
    _write_csv(path, SUMMARY_COLUMNS, [(template, summary)])
