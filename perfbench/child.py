"""One workload process: run an nfbeam subcommand in-process and report on it.

run.py starts this script once per input seed of a round, in a fresh process,
with the subcommand's arguments after ``--``:

    python3 child.py --workload NAME --report PATH --spawned T [--trace] -- ARGV...

``--spawned`` is the CLOCK_MONOTONIC time at which the parent started the
process, so set-up time covers interpreter start, imports and config. The
report is a JSON file; the subcommand's own stdout and stderr go wherever the
parent sent them.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


# The host's vCPUs each switch between a fast and a ~1.8x slower state, in
# spells of a fraction of a second to minutes. Between operations at least
# SAMPLE_EVERY_S apart, an untraced process runs a short fixed numpy loop, the
# reference, on its own CPU. Its time reads that CPU's speed at that moment;
# the reference's own time is left out of the run window.
SAMPLE_EVERY_S = 0.05
# reference_s() on this host's vCPUs in their fast state (2-vCPU Xeon VM,
# numpy 2.4.6); steady_run_s is the run time at that speed. A constant, not
# the fastest reference of each run: that minimum moved by up to 12% between
# runs that stayed mostly slow, and the run time with it.
REFERENCE_FAST_S = 0.45e-3
_REF_INPUTS = []


def reference_s() -> float:
    """Time of the reference loop: ~0.5 ms of small complex numpy products."""
    import numpy as np  # after nfbeam, so cli.import.ms still counts numpy's import

    if not _REF_INPUTS:
        _REF_INPUTS.extend((np.random.default_rng(1).standard_normal(128),
                            np.random.default_rng(0).standard_normal((128, 4)) + 0j))
    x, a = _REF_INPUTS
    start = time.perf_counter()
    for _ in range(60):
        float(np.abs(np.exp(1j * x) @ a).sum())
    return time.perf_counter() - start


class Probe:
    """Hooks kept in every run, traced or not.

    They mark the end of config set-up, keep the tracking results for the
    checks, and see each operation (a CPI or a converge trace) end. In an
    untraced process they cut the run window at operation ends at least
    SAMPLE_EVERY_S apart and sample the reference between segments.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.config = None
        self.setup_end = None       # CLOCK_MONOTONIC, comparable with the parent's
        self.run_start = None       # perf_counter, comparable with the spans
        self.results = []
        self.segments = []          # run window without the reference samples
        self.refs = []              # reference time before and after each segment
        self._cut = None

    def _sample(self) -> None:
        if self.sample:
            self.refs.append(reference_s())
        self._cut = time.perf_counter()

    def operation_done(self) -> None:
        now = time.perf_counter()
        if self.sample and now - self._cut >= SAMPLE_EVERY_S:
            self.segments.append(now - self._cut)
            self._sample()

    def finish(self) -> None:
        self.segments.append(time.perf_counter() - self._cut)
        self._sample()

    def steady_run_s(self) -> float:
        """Run time with each segment rescaled to the reference's fast-state speed."""
        refs = self.refs
        return sum(seg * 2.0 * REFERENCE_FAST_S / (refs[i] + refs[i + 1])
                   for i, seg in enumerate(self.segments))

    def install(self, cli, harness) -> None:
        build_config = cli.build_config

        def timed_build_config(*args, **kwargs):
            cfg = build_config(*args, **kwargs)
            self.config = cfg
            self.setup_end = time.monotonic()
            self._sample()
            self.run_start = self._cut
            return cfg

        run_experiment = harness.run_experiment

        def kept_run_experiment(config, progress=None):
            # run_experiment calls progress once per CPI
            def observed(*args):
                self.operation_done()
                if progress is not None:
                    progress(*args)

            result = run_experiment(config, progress=observed)
            self.results.append(result)
            return result

        estimate_velocity = harness.estimate_velocity

        def observed_estimate_velocity(*args, **kwargs):
            result = estimate_velocity(*args, **kwargs)
            self.operation_done()
            return result

        cli.build_config = timed_build_config
        cli.run_experiment = harness.run_experiment = kept_run_experiment
        harness.estimate_velocity = observed_estimate_velocity


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args(argv[:split])
    command = argv[split + 1:]

    t0 = time.perf_counter()
    import nfbeam.cli as cli
    import_ms = (time.perf_counter() - t0) * 1e3
    import nfbeam.harness as harness

    import spans
    import workloads

    probe = Probe(sample=not opts.trace)
    probe.install(cli, harness)
    tracer = None
    if opts.trace:
        tracer = spans.Tracer()
        tracer.install()

    error = None
    try:
        code = cli.main(command)
        if code != 0:
            error = f"nfbeam exited with code {code}"
    except Exception:  # a fault in the program fails this process's operations
        error = traceback.format_exc()
    if probe.run_start is not None:
        probe.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"error": error, "peak_rss_mb": peak_rss_mb}
    if probe.setup_end is not None:
        report["setup_s"] = probe.setup_end - opts.spawned
        report["run_s"] = sum(probe.segments)
        if probe.sample:
            report["steady_run_s"] = probe.steady_run_s()
    if error is None:
        out_dir = Path(command[command.index("--out") + 1])
        try:
            report.update(workloads.evaluate(opts.workload, out_dir, probe.config, probe.results))
        except Exception:  # unreadable or malformed output fails every operation
            report["findings"] = [("output_readable", None, traceback.format_exc())]
        if tracer is not None:
            report["trace"] = {
                **tracer.summary(probe.run_start),
                "cpis": sum(len(r.rows) for r in probe.results),
                "csv_bytes": sum(p.stat().st_size for p in out_dir.glob("*.csv")),
                "import_ms": import_ms,
                "run_s": report["run_s"],
            }
    Path(opts.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
