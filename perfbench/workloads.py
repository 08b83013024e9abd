"""The benchmark's workloads: which nfbeam command each runs, and how its output is judged.

A round of a workload runs its command once per input seed, each in a fresh
process. The input seeds of a round follow from the benchmark's ``--seed``
alone, so every round of a run repeats the same operations.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    # Input seeds per round. Work and outcomes of one seed vary (AGD-AO
    # iteration counts, noise-limited errors); a round averages over several.
    seeds_per_round: int
    # Operations in one process: CPIs for track/sweep, traces for converge.
    ops_per_process: int

    def input_seeds(self, seed: int) -> list[int]:
        return [seed * self.seeds_per_round + k for k in range(self.seeds_per_round)]

    def argv(self, nfbeam_seed: int, out_dir: Path) -> list[str]:
        return [*self.command, "--seed", str(nfbeam_seed), "--out", str(out_dir)]


# AGD-AO's work in a sweep depends on its seed (about 12% standard deviation
# from seed to seed, whether a cell has 5 CPIs or 30), so a round sweeps 16
# seeds with short cells. Below 10 CPIs the 40 dBm AGD-AO cell's velocity
# error, which dominates verr_mps, spreads twice as much from seed to seed.
SWEEP_CPIS = 10

WORKLOADS = {
    w.name: w
    for w in (
        # every default: EKF, M=512, 2000 CPIs, 30 dBm
        Workload("track-ekf", ("track",), 1, 2000),
        Workload(
            "sweep-power",
            ("sweep-power", "--cpis", str(SWEEP_CPIS), "--set", "system.num_antennas=128"),
            16, SWEEP_CPIS * 4 * 2,  # 4 default powers x (ekf, agdao)
        ),
        # 10 noise seeds x 3 optimizer variants, M=512
        Workload("converge", ("converge", "--set", "system.signed_projection=true"), 1, 30),
    )
}


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _euclid_mean(m: dict) -> float:
    return float(np.mean(np.hypot(m["verr_x"], m["verr_y"])))


def evaluate(name: str, out_dir: Path, config, results) -> dict:
    """Check one process's outputs and extract its outcome samples.

    ``config`` is the config the command resolved; ``results`` are the
    RunResults its tracking runs returned, in call order.
    """
    out_dir = Path(out_dir)
    if name == "track-ekf":
        m = checks.read_csv(out_dir / "metrics.csv")
        belief = checks.read_csv(out_dir / "belief.csv")
        findings = checks.check_track(m, belief, checks.Link.from_config(config))
        rows, samples = len(m["cpi"]), [_euclid_mean(m)]
    elif name == "sweep-power":
        summary = checks.read_csv(out_dir / "summary.csv")
        cells = [(checks.from_rows(r.rows), checks.Link.from_config(r.config)) for r in results]
        findings = checks.check_sweep(summary, cells)
        rows = sum(len(m["cpi"]) for m, _ in cells)
        samples = [_euclid_mean(m) for m, _ in cells]
    else:
        t = checks.read_csv(out_dir / "trace.csv")
        truth_v = config.convergence_state[2:]
        findings = checks.check_converge(t, truth_v, config.convergence_v_init)
        rows = len(checks.traces(t))
        # The final error is noise-limited (its median over 50 traces still
        # spreads ~14% across seeds); the error after 100 iterations is set
        # by the optimizer's path and repeats across seeds to ~1e-4.
        samples = [checks.rse_at(t, truth_v, 100)["adam-ao"]]
    expected = WORKLOADS[name].ops_per_process
    if rows != expected:
        findings.append(("operation_count", None, f"{rows} operations in the output, expected {expected}"))
    return {"findings": findings, "verr_samples": samples, "digest": _digest(out_dir)}
