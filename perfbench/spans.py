"""Spans around calls into nfbeam's modules, for the traced run.

The wrappers replace module attributes inside the benchmark's own process;
the program's source is not instrumented. A function imported by name into
another module is a separate binding, so each entry names the calling module,
which also pins the span to that call site.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

# (module, attribute, span name)
SPANS = (
    ("nfbeam.cli", "build_config", "config.build_config"),
    ("nfbeam.cli", "run_experiment", "harness.run_experiment"),
    ("nfbeam.harness", "run_experiment", "harness.run_experiment"),
    ("nfbeam.cli", "power_sweep", "harness.power_sweep"),
    ("nfbeam.cli", "convergence_study", "harness.convergence_study"),
    ("nfbeam.cli", "write_metrics_csv", "harness.csv"),
    ("nfbeam.cli", "write_belief_csv", "harness.csv"),
    ("nfbeam.cli", "write_summary_csv", "harness.csv"),
    ("nfbeam.cli", "write_trace_csv", "harness.csv"),
    ("nfbeam.harness", "generate_trajectory", "motion.generate_trajectory"),
    # the opt, ff and fd pointers that run_experiment builds every CPI
    ("nfbeam.harness", "opt_beamformers", "beamforming.baselines"),
    ("nfbeam.harness", "ff_beamformers", "beamforming.baselines"),
    ("nfbeam.harness", "fd_predicted_state", "beamforming.baselines"),
    ("nfbeam.harness", "predictive_beamformers", "beamforming.baselines"),
    ("nfbeam.harness", "cpi_throughput", "signals.cpi_throughput"),
    ("nfbeam.harness", "synthesize_observation", "signals.synthesize_observation"),
    ("nfbeam.harness", "ekf_track_step", "ekf.track_step"),
    ("nfbeam.ekf", "ekf_forecast", "ekf.forecast"),
    ("nfbeam.ekf", "observation_mean", "ekf.observation_mean"),
    ("nfbeam.ekf", "observation_jacobian", "ekf.observation_jacobian"),
    ("nfbeam.ekf", "kalman_update", "ekf.kalman_update"),
    ("nfbeam.harness", "agdao_track_step", "agdao.track_step"),
    ("nfbeam.agdao", "adam_ao_estimate", "agdao.ascent"),
    ("nfbeam.agdao", "gd_estimate", "agdao.ascent"),
    ("nfbeam.harness", "estimate_velocity", "agdao.estimate_velocity"),
)

# Calls only counted, not spanned: element_distances alone runs ~21 times per CPI.
COUNTED = (
    ("nfbeam.beamforming", "predictive_beamformers", "beamforming.predictive_beamformers"),
    ("nfbeam.harness", "predictive_beamformers", "beamforming.predictive_beamformers"),
    ("nfbeam.ekf", "predictive_beamformers", "beamforming.predictive_beamformers"),
    ("nfbeam.agdao", "predictive_beamformers", "beamforming.predictive_beamformers"),
    ("nfbeam.geometry", "element_distances", "geometry.element_distances"),
    ("nfbeam.geometry", "steering_vector", "geometry.steering_vector"),
)

# Units of the per-layer metrics that layer_metrics() returns.
LAYER_UNITS = {
    "harness.run_experiment.self_ms_per_cpi": "ms",
    "harness.power_sweep.self_ms": "ms",
    "harness.csv.ms": "ms",
    "harness.csv.bytes": "B",
    "motion.generate_trajectory.ms": "ms",
    "beamforming.baselines.ms_per_cpi": "ms",
    "beamforming.predictive_beamformers.calls_per_cpi": "count",
    "signals.cpi_throughput.ms_per_cpi": "ms",
    "signals.cpi_throughput.calls_per_cpi": "count",
    "signals.synthesize_observation.ms_per_cpi": "ms",
    "ekf.forecast.ms_per_cpi": "ms",
    "ekf.observation_mean.ms_per_cpi": "ms",
    "ekf.observation_jacobian.ms_per_cpi": "ms",
    "ekf.kalman_update.ms_per_cpi": "ms",
    "ekf.track_step.self_ms_per_cpi": "ms",
    "ekf.ridged": "count",
    "geometry.element_distances.calls_per_cpi": "count",
    "geometry.steering_vector.calls_per_cpi": "count",
    "agdao.track_step.ms_p50": "ms",
    "agdao.track_step.ms_p95": "ms",
    "agdao.iters_per_cpi": "count",
    "agdao.max_iter_share": "ratio",
    "agdao.us_per_iter": "us",
    "agdao.converge.iters": "count",
    "agdao.estimate_velocity.ms": "ms",
    "config.build_config.ms": "ms",
    "cli.import.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.uncovered_share": "ratio",
}

# Spans whose single-call durations are kept for percentiles.
PERCENTILE_SPANS = ("agdao.track_step", "agdao.estimate_velocity")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]; counts by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            self._observe(name, result, kwargs)
            return result

        return wrapper

    def counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name, result, kwargs):
        if name == "ekf.kalman_update":
            self.counts["ekf.ridged"] += int(result[1].ridged)
        elif name == "agdao.ascent":
            self.counts["agdao.iters"] += len(result[1]) - 1
        elif name == "agdao.track_step":
            iters = len(result[3]) - 1
            self.counts["agdao.track_step.iters"] += iters
            self.counts["agdao.max_iter_hits"] += int(iters >= kwargs["hyper"].max_iters)

    def install(self):
        """Wrap every binding in SPANS and COUNTED; call after importing nfbeam.cli."""
        for table, wrap in ((COUNTED, self.counter), (SPANS, self.span)):
            for module, attr, name in table:
                mod = importlib.import_module(module)
                setattr(mod, attr, wrap(getattr(mod, attr), name))

    def summary(self, window_start: float) -> dict:
        """Per-name calls, total and self ms; root-span cover of the run window."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        calls = defaultdict(int)
        total_ms = defaultdict(float)
        self_ms = defaultdict(float)
        durations = defaultdict(list)
        covered_ms = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            ms = (end - start) * 1e3
            calls[name] += 1
            total_ms[name] += ms
            self_ms[name] += ms - child_ms[i]
            if name in PERCENTILE_SPANS:
                durations[name].append(ms)
            if parent < 0 and start >= window_start:
                covered_ms += ms
        return {
            "calls": dict(calls),
            "total_ms": dict(total_ms),
            "self_ms": dict(self_ms),
            "durations": dict(durations),
            "counts": dict(self.counts),
            "covered_ms": covered_ms,
        }


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(procs: list[dict], traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metrics pooled over the traced processes of a run.

    Each element of ``procs`` holds a process's Tracer.summary() plus
    ``cpis``, ``csv_bytes``, ``import_ms`` and ``run_s``. A layer that the
    workload never calls reads 0.
    """
    n = len(procs)
    calls, total, self_ms, counts = (defaultdict(float) for _ in range(4))
    durations = defaultdict(list)
    for p in procs:
        for src, dst in ((p["calls"], calls), (p["total_ms"], total),
                         (p["self_ms"], self_ms), (p["counts"], counts)):
            for k, v in src.items():
                dst[k] += v
        for k, v in p["durations"].items():
            durations[k].extend(v)
    cpis = sum(p["cpis"] for p in procs)
    run_ms = sum(p["run_s"] for p in procs) * 1e3

    def per_cpi(x):
        return x / cpis if cpis else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls["agdao.track_step"]
    return {
        "harness.run_experiment.self_ms_per_cpi": per_cpi(self_ms["harness.run_experiment"]),
        "harness.power_sweep.self_ms": self_ms["harness.power_sweep"] / n,
        "harness.csv.ms": total["harness.csv"] / n,
        "harness.csv.bytes": sum(p["csv_bytes"] for p in procs) / n,
        "motion.generate_trajectory.ms": total["motion.generate_trajectory"] / n,
        "beamforming.baselines.ms_per_cpi": per_cpi(total["beamforming.baselines"]),
        "beamforming.predictive_beamformers.calls_per_cpi":
            per_cpi(counts["beamforming.predictive_beamformers"]),
        "signals.cpi_throughput.ms_per_cpi": per_cpi(total["signals.cpi_throughput"]),
        "signals.cpi_throughput.calls_per_cpi": per_cpi(calls["signals.cpi_throughput"]),
        "signals.synthesize_observation.ms_per_cpi": per_cpi(total["signals.synthesize_observation"]),
        "ekf.forecast.ms_per_cpi": per_cpi(total["ekf.forecast"]),
        "ekf.observation_mean.ms_per_cpi": per_cpi(total["ekf.observation_mean"]),
        "ekf.observation_jacobian.ms_per_cpi": per_cpi(total["ekf.observation_jacobian"]),
        "ekf.kalman_update.ms_per_cpi": per_cpi(total["ekf.kalman_update"]),
        "ekf.track_step.self_ms_per_cpi": per_cpi(self_ms["ekf.track_step"]),
        "ekf.ridged": counts["ekf.ridged"] / n,
        "geometry.element_distances.calls_per_cpi": per_cpi(counts["geometry.element_distances"]),
        "geometry.steering_vector.calls_per_cpi": per_cpi(counts["geometry.steering_vector"]),
        "agdao.track_step.ms_p50": _pct(durations["agdao.track_step"], 50),
        "agdao.track_step.ms_p95": _pct(durations["agdao.track_step"], 95),
        "agdao.iters_per_cpi": ratio(counts["agdao.track_step.iters"], steps),
        "agdao.max_iter_share": ratio(counts["agdao.max_iter_hits"], steps),
        "agdao.us_per_iter": ratio(total["agdao.ascent"] * 1e3, counts["agdao.iters"]),
        "agdao.converge.iters": ratio(counts["agdao.iters"], calls["agdao.estimate_velocity"]),
        "agdao.estimate_velocity.ms": _pct(durations["agdao.estimate_velocity"], 50),
        "config.build_config.ms": total["config.build_config"] / n,
        "cli.import.ms": sum(p["import_ms"] for p in procs) / n,
        "trace.overhead_ratio": ratio(traced_run_s, untraced_run_s) - 1.0,
        "trace.uncovered_share": ratio(run_ms - sum(p["covered_ms"] for p in procs), run_ms),
    }
