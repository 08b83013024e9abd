"""Closed-loop experiment runner, parameter sweeps, and CSV export."""
from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agdao import VARIANTS, agdao_track_step, estimate_velocity
from .beamforming import (
    fd_predicted_state,
    ff_beamformers,
    opt_beamformers,
    predictive_beamformers,
)
from .config import METHODS, ConfigError, ExperimentConfig
from .ekf import TrackerBelief, ekf_track_step, initial_belief
from .motion import MotionState, generate_trajectory
from .signals import cpi_throughput, echo_amplitude, synthesize_observation

# Fixed ids keep the fan-out stable if stream names are ever added or reordered.
STREAM_IDS = {"trajectory": 0, "echo-noise": 1, "estimator-init": 2}


def stream(master_seed: int, name: str, *extra: int) -> np.random.Generator:
    """Named generator fanned out from one master seed.

    Streams are independent: drawing more from one never shifts another.
    Extra integers key per-trial substreams.
    """
    if name not in STREAM_IDS:
        raise ValueError(f"unknown stream {name!r}; expected one of {sorted(STREAM_IDS)}")
    key = (STREAM_IDS[name],) + tuple(int(e) for e in extra)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


@dataclass(frozen=True)
class MetricRow:
    """Per-CPI log: truth, estimate, throughputs, velocity errors."""

    cpi: int
    x: float
    y: float
    vx: float
    vy: float
    x_hat: float
    y_hat: float
    vx_hat: float
    vy_hat: float
    rate: float
    rate_opt: float
    rate_ff: float
    rate_fd: float
    verr_x: float
    verr_y: float


@dataclass(frozen=True)
class BeliefRow:
    """Per-CPI filter readout: posterior mean, marginal variances, health."""

    cpi: int
    x: float
    y: float
    vx: float
    vy: float
    var_x: float
    var_y: float
    var_vx: float
    var_vy: float
    innovation_norm: float
    ridged: int


@dataclass(frozen=True)
class TraceRow:
    """One optimizer iterate of a convergence study."""

    variant: str
    seed: int
    k: int
    vx: float
    vy: float
    objective: float
    grad_x: float
    grad_y: float
    err_vx: float
    err_vy: float


@dataclass(frozen=True)
class SweepRow:
    """Averaged outcome of one (method, transmit power) cell."""

    method: str
    tx_power_dbm: float
    mean_rate: float
    mean_rate_opt: float
    mean_rate_ff: float
    mean_rate_fd: float
    mean_verr_x: float
    mean_verr_y: float


@dataclass
class RunResult:
    """Everything a tracking run produced."""

    config: ExperimentConfig
    rows: list[MetricRow]
    belief_rows: list[BeliefRow] | None = None
    beliefs: list[TrackerBelief] | None = None

    def mean(self, attr: str) -> float:
        return float(np.mean([getattr(r, attr) for r in self.rows]))

    def summary(self) -> dict:
        return {
            "method": self.config.method,
            "num_cpis": len(self.rows),
            "tx_power_dbm": self.config.system.tx_power_dbm,
            "mean_rate": self.mean("rate"),
            "mean_rate_opt": self.mean("rate_opt"),
            "mean_rate_ff": self.mean("rate_ff"),
            "mean_rate_fd": self.mean("rate_fd"),
            "mean_verr_x": self.mean("verr_x"),
            "mean_verr_y": self.mean("verr_y"),
        }


def _belief_row(cpi: int, belief: TrackerBelief, innovation_norm: float, ridged: bool) -> BeliefRow:
    m = belief.mean
    d = np.diag(belief.covariance)
    return BeliefRow(
        cpi=int(cpi),
        x=float(m.x), y=float(m.y), vx=float(m.vx), vy=float(m.vy),
        var_x=float(d[0]), var_y=float(d[1]), var_vx=float(d[2]), var_vy=float(d[3]),
        innovation_norm=float(innovation_norm),
        ridged=int(bool(ridged)),
    )


def run_experiment(config: ExperimentConfig, progress=None) -> RunResult:
    """Run the closed tracking loop for config.method over config.num_cpis CPIs.

    CPI 1 points with the true initial state for every method (initial access);
    the trackers start consuming echoes at CPI 2. Opt/FF/FD throughputs are
    logged alongside whichever method ran, on the shared trajectory.
    """
    if config.method not in METHODS:
        raise ConfigError("method", f"must be one of {list(METHODS)}, got {config.method!r}")
    sys_cfg = config.system
    geom = sys_cfg.geometry()
    model = sys_cfg.pathloss_model()
    noise = sys_cfg.noise()
    signed = sys_cfg.signed_projection
    num_symbols = sys_cfg.symbols_per_cpi
    ts = sys_cfg.symbol_duration_s
    dt = sys_cfg.cpi_duration_s
    power_w = sys_cfg.tx_power_w
    s_amp = echo_amplitude(power_w, sys_cfg.include_transmit_power)
    period = config.feedback_period_cpis
    method = config.method

    traj = generate_trajectory(
        config.state0, config.motion_noise, dt, config.num_cpis,
        stream(config.seed, "trajectory"),
    )
    echo_rng = stream(config.seed, "echo-noise")

    def throughput(bf, eta):
        return cpi_throughput(
            geom, model, eta, bf, ts, power_w, sys_cfg.comm_noise_power, signed=signed
        )

    rows: list[MetricRow] = []
    belief_rows: list[BeliefRow] = []
    beliefs: list[TrackerBelief] = []
    p_hat = traj[0].position
    v_hat = traj[0].velocity
    belief = initial_belief(traj[0], config.ekf_init_cov)

    for cpi in range(1, config.num_cpis + 1):
        eta = traj[cpi - 1]
        bf_opt = opt_beamformers(geom, eta, num_symbols, ts, signed=signed)
        if cpi == 1:
            # initial access: every pointer starts from the reported true state
            bf_ff = bf_opt
            bf_fd = bf_opt
            fd_state = eta
        else:
            bf_ff = ff_beamformers(geom, eta, num_symbols, ts)
            fd_p, fd_v = fd_predicted_state(traj, cpi, period, dt)
            bf_fd = predictive_beamformers(geom, fd_p, fd_v, num_symbols, ts, signed=signed)
            fd_state = MotionState(fd_p[0], fd_p[1], fd_v[0], fd_v[1])

        if cpi == 1:
            bf = bf_opt
            est = eta
            if method == "ekf":
                beliefs.append(belief)
                belief_rows.append(_belief_row(1, belief, 0.0, False))
        elif method == "opt":
            bf, est = bf_opt, eta
        elif method == "ff":
            bf, est = bf_ff, eta
        elif method == "fd":
            bf, est = bf_fd, fd_state
        elif method == "agdao":
            def observe(b):
                return synthesize_observation(
                    geom, model, eta, b, noise, s_amp, ts, echo_rng,
                    cpi_index=cpi, signed=signed,
                )

            bf, p_hat, v_hat, _ = agdao_track_step(
                p_hat, v_hat, observe, geom, model, s_amp, num_symbols, ts, dt,
                hyper=config.adam, signed=signed,
            )
            est = MotionState(p_hat[0], p_hat[1], v_hat[0], v_hat[1])
        else:  # ekf
            def observe(b):
                return synthesize_observation(
                    geom, model, eta, b, noise, s_amp, ts, echo_rng,
                    cpi_index=cpi, signed=signed,
                )

            bf, belief, diag = ekf_track_step(
                belief, observe, geom, model, config.ekf_config(),
                s_amp, num_symbols, ts, dt, signed=signed,
            )
            est = belief.mean
            beliefs.append(belief)
            belief_rows.append(_belief_row(cpi, belief, diag.innovation_norm, diag.ridged))

        rows.append(
            MetricRow(
                cpi=cpi,
                x=float(eta.x), y=float(eta.y), vx=float(eta.vx), vy=float(eta.vy),
                x_hat=float(est.x), y_hat=float(est.y),
                vx_hat=float(est.vx), vy_hat=float(est.vy),
                rate=throughput(bf, eta),
                rate_opt=throughput(bf_opt, eta),
                rate_ff=throughput(bf_ff, eta),
                rate_fd=throughput(bf_fd, eta),
                verr_x=abs(float(eta.vx) - float(est.vx)),
                verr_y=abs(float(eta.vy) - float(est.vy)),
            )
        )
        if progress is not None:
            progress(cpi, config.num_cpis)

    is_ekf = method == "ekf"
    return RunResult(
        config=config,
        rows=rows,
        belief_rows=belief_rows if is_ekf else None,
        beliefs=beliefs if is_ekf else None,
    )


def moving_average(series, window: int) -> np.ndarray:
    """Trailing mean over full windows only; output length len - window + 1."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {x.shape}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > x.size:
        # no full window fits
        return np.zeros(0)
    return np.convolve(x, np.full(window, 1.0 / window), mode="valid")


def power_sweep(
    config: ExperimentConfig,
    powers_dbm=(10.0, 20.0, 30.0, 40.0),
    methods=("ekf", "agdao"),
    progress=None,
) -> list[SweepRow]:
    """One tracking run per (method, power) cell on the shared trajectory seed."""
    if len(powers_dbm) == 0:
        raise ConfigError("powers", "at least one power level is required")
    rows: list[SweepRow] = []
    for method in methods:
        if method not in METHODS:
            raise ConfigError("method", f"must be one of {list(METHODS)}, got {method!r}")
        for dbm in powers_dbm:
            cfg = dataclasses.replace(
                config,
                method=method,
                system=dataclasses.replace(config.system, tx_power_dbm=float(dbm)),
            )
            summary = run_experiment(cfg).summary()
            rows.append(
                SweepRow(
                    method=method,
                    tx_power_dbm=float(dbm),
                    mean_rate=summary["mean_rate"],
                    mean_rate_opt=summary["mean_rate_opt"],
                    mean_rate_ff=summary["mean_rate_ff"],
                    mean_rate_fd=summary["mean_rate_fd"],
                    mean_verr_x=summary["mean_verr_x"],
                    mean_verr_y=summary["mean_verr_y"],
                )
            )
            if progress is not None:
                progress(method, float(dbm))
    return rows


def convergence_study(
    config: ExperimentConfig,
    variants=VARIANTS,
    num_seeds: int = 10,
    max_iters: int | None = None,
) -> list[TraceRow]:
    """Single-CPI optimizer traces at the known-position instance.

    Per seed, one echo is synthesized at the ground-truth state and every
    variant runs on that same echo from the configured v_init. The stop rule
    is disabled so traces cover the full iteration budget.
    """
    if num_seeds < 1:
        raise ConfigError("seeds", f"must be >= 1, got {num_seeds}")
    sys_cfg = config.system
    geom = sys_cfg.geometry()
    model = sys_cfg.pathloss_model()
    noise = sys_cfg.noise()
    signed = sys_cfg.signed_projection
    num_symbols = sys_cfg.symbols_per_cpi
    ts = sys_cfg.symbol_duration_s
    s_amp = echo_amplitude(sys_cfg.tx_power_w, sys_cfg.include_transmit_power)
    eta_gt = MotionState(*config.convergence_state)
    v_init = np.asarray(config.convergence_v_init, dtype=float)

    overrides = {"rel_tol_x": 0.0, "rel_tol_y": 0.0}
    if max_iters is not None:
        overrides["max_iters"] = max_iters
    hyper = dataclasses.replace(config.adam, **overrides)

    bf = predictive_beamformers(
        geom, eta_gt.position, v_init, num_symbols, ts, signed=signed
    )
    rows: list[TraceRow] = []
    for trial in range(num_seeds):
        rng = stream(config.seed, "echo-noise", trial)
        obs = synthesize_observation(
            geom, model, eta_gt, bf, noise, s_amp, ts, rng, cpi_index=1, signed=signed
        )
        for variant in variants:
            if variant not in VARIANTS:
                raise ConfigError(
                    "variant", f"must be one of {list(VARIANTS)}, got {variant!r}"
                )
            _, trace = estimate_velocity(
                variant, obs.y, geom, model, eta_gt.position, v_init, bf[-1],
                s_amp, num_symbols, ts, hyper=hyper, signed=signed,
            )
            for k, vx, vy, objective, gx, gy in trace.rows:
                rows.append(
                    TraceRow(
                        variant=variant, seed=trial, k=k,
                        vx=vx, vy=vy, objective=objective,
                        grad_x=gx, grad_y=gy,
                        err_vx=abs(vx - eta_gt.vx), err_vy=abs(vy - eta_gt.vy),
                    )
                )
    return rows


def _format_cell(value) -> str:
    # repr round-trips floats exactly; ints and strings pass through
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, fieldnames, value_rows) -> None:
    lines = [",".join(fieldnames)]
    for row in value_rows:
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _dataclass_csv(path, row_type, rows) -> None:
    names = [f.name for f in dataclasses.fields(row_type)]
    # a flat field read; astuple would deep-copy every row
    _write_rows(path, names, map(operator.attrgetter(*names), rows))


def write_metrics_csv(path, rows: list[MetricRow]) -> None:
    _dataclass_csv(path, MetricRow, rows)


def write_belief_csv(path, rows: list[BeliefRow]) -> None:
    _dataclass_csv(path, BeliefRow, rows)


def write_trace_csv(path, rows: list[TraceRow]) -> None:
    _dataclass_csv(path, TraceRow, rows)


def write_summary_csv(path, rows: list[SweepRow]) -> None:
    _dataclass_csv(path, SweepRow, rows)


def read_metrics_csv(path) -> list[MetricRow]:
    """Inverse of write_metrics_csv; exact because cells are repr round-trips."""
    text = Path(path).read_text()
    lines = [ln for ln in text.split("\n") if ln]
    expected = [f.name for f in dataclasses.fields(MetricRow)]
    header = lines[0].split(",")
    if header != expected:
        raise ValueError(f"unexpected metrics header {header}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        out.append(MetricRow(int(cells[0]), *(float(c) for c in cells[1:])))
    return out
