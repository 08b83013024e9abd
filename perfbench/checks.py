"""Output checks for the benchmark's workloads.

Every check rests on a closed form, an identity or a statistical property the
method must have, computed here from the outputs and the resolved config.
None compares with a stored copy of earlier output.

A check returns findings ``(check, ops, detail)``. ``ops`` lists the indices
of the operations the check rejects, or is None when it rejects the whole
output it was given.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

# Rates are ~30 bit/s/Hz and round-off in them is ~1e-13 relative.
RATE_TOL = 1e-9
# Positions are ~10 m; one kinematic step is recomputed with the same formula.
POSITION_TOL = 1e-9
# Two-sided tail probability of each chi-square interval. Small, so that a
# correct program fails a statistical check on about one seed in a million.
TAIL = 1e-6
# The time-averaged NEES over T CPIs is taken as 4/nu times a chi-square with
# nu = 4T / NEES_INFLATION degrees of freedom. Marginal variances leave out
# the position-velocity correlation and successive CPIs are correlated, which
# widens its spread: at the track-ekf defaults the per-CPI NEES variance is
# about 2.8 x 8 and its lag-1 autocorrelation about 0.2, an inflation near 4.
NEES_INFLATION = 10
STATE = ("x", "y", "vx", "vy")


@dataclass(frozen=True)
class Link:
    """The config values the checks need, read from the resolved config."""

    tx_power_w: float
    num_antennas: int
    ref_gain: float
    comm_noise_power: float
    cpi_duration_s: float
    motion_var: tuple[float, float]

    @classmethod
    def from_config(cls, cfg) -> "Link":
        s = cfg.system
        return cls(
            tx_power_w=s.tx_power_w,
            num_antennas=s.num_antennas,
            ref_gain=s.ref_gain,
            comm_noise_power=s.comm_noise_power,
            cpi_duration_s=s.cpi_duration_s,
            motion_var=tuple(cfg.motion_var),
        )


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a CSV the program wrote; numeric columns become floats."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    columns = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(header)
    table = {}
    for name, cells in zip(header, columns):
        try:
            table[name] = np.array([float(c) for c in cells])
        except ValueError:
            table[name] = np.array(cells)
    return table


def from_rows(rows) -> dict[str, np.ndarray]:
    """Columns of a list of the program's row dataclasses."""
    names = rows[0].__dataclass_fields__
    return {n: np.array([getattr(r, n) for r in rows], dtype=float) for n in names}


def chi2_interval(dof: float, tail: float = TAIL) -> tuple[float, float]:
    """Central chi-square interval by the Wilson-Hilferty cube approximation."""
    z = NormalDist().inv_cdf(1.0 - tail / 2.0)
    c = 2.0 / (9.0 * dof)
    return tuple(dof * (1.0 - c + s * z * math.sqrt(c)) ** 3 for s in (-1.0, 1.0))


def _flag(check: str, bad: np.ndarray, offset: int, detail: str):
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return []
    return [(check, [int(i) + offset for i in idx], f"{idx.size} rows: {detail}")]


def genie_rate(x, y, link: Link):
    """Matched-filter rate at the true position: log2(1 + P M alpha1^2 / sigma_c^2)."""
    alpha1 = link.ref_gain / (np.asarray(x) ** 2 + np.asarray(y) ** 2)
    return np.log2(1.0 + link.tx_power_w * link.num_antennas * alpha1**2 / link.comm_noise_power)


def check_cpi_rows(m: dict, link: Link, offset: int = 0):
    """Per-CPI checks on one tracking run's metric rows; op i is row i."""
    found = []
    want = genie_rate(m["x"], m["y"], link)
    found += _flag(
        "rate_opt_closed_form", ~(np.abs(m["rate_opt"] - want) <= RATE_TOL * want),
        offset, "rate_opt differs from the matched-filter closed form",
    )
    for col in ("rate", "rate_ff", "rate_fd"):
        found += _flag(
            "rate_at_most_genie", ~(m[col] <= m["rate_opt"] * (1.0 + RATE_TOL)),
            offset, f"{col} exceeds rate_opt (Cauchy-Schwarz)",
        )
    for p, v in (("x", "vx"), ("y", "vy")):
        step = m[p][:-1] + link.cpi_duration_s * m[v][:-1]
        bad = np.concatenate([[False], ~(np.abs(m[p][1:] - step) <= POSITION_TOL)])
        found += _flag("kinematic_step", bad, offset, f"{p} does not advance by dt*{v}")
    for axis in ("x", "y"):
        err = np.abs(m[f"v{axis}"] - m[f"v{axis}_hat"])
        found += _flag(
            "velocity_error_column", ~(m[f"verr_{axis}"] == err),
            offset, f"verr_{axis} is not |v{axis} - v{axis}_hat|",
        )
    return found


def check_motion_variance(m: dict, link: Link):
    """Velocity kicks are zero-mean with variance motion_var: a chi-square test."""
    found = []
    for v, var in zip(("vx", "vy"), link.motion_var):
        d = np.diff(m[v])
        if var == 0.0:
            ok = not np.any(d)
            stat, lo, hi = float(np.sum(d * d)), 0.0, 0.0
        else:
            stat = float(np.sum(d * d) / var)
            lo, hi = chi2_interval(d.size)
            ok = lo <= stat <= hi
        if not ok:
            found.append((
                "motion_variance", None,
                f"sum of squared {v} kicks / var = {stat:.1f}, outside [{lo:.1f}, {hi:.1f}]",
            ))
    return found


def nees(m: dict, belief: dict) -> np.ndarray:
    """Per-CPI sum of normalised squared errors from the marginal variances.

    CPI 1 holds the initial-access belief at the true state, so it is left out.
    """
    return sum((m[s][1:] - belief[s][1:]) ** 2 / belief[f"var_{s}"][1:] for s in STATE)


def check_track(m: dict, belief: dict, link: Link):
    """Checks on `nfbeam track` output (EKF): metrics.csv and belief.csv."""
    found = check_cpi_rows(m, link) + check_motion_variance(m, link)
    if not np.array_equal(m["cpi"], belief["cpi"]):
        return found + [("belief_rows", None, "belief.csv CPIs do not match metrics.csv")]
    rate, opt, ff = (float(np.mean(m[c])) for c in ("rate", "rate_opt", "rate_ff"))
    if not rate >= 0.98 * opt:
        found.append(("rate_near_genie", None, f"mean rate {rate:.6f} < 0.98 x {opt:.6f}"))
    if not ff < rate:
        found.append(("ff_below_tracker", None, f"mean ff rate {ff:.6f} >= tracker {rate:.6f}"))
    e = nees(m, belief)
    dof = len(STATE) * e.size / NEES_INFLATION
    lo, hi = (len(STATE) * b / dof for b in chi2_interval(dof))
    avg = float(np.mean(e))
    if not lo <= avg <= hi:
        found.append(("nees", None, f"time-averaged NEES {avg:.3f} outside [{lo:.3f}, {hi:.3f}]"))
    return found


def check_sweep(summary: dict, cells: list):
    """Checks on `nfbeam sweep-power` output.

    ``cells`` holds (metric columns, Link) per cell in the order of the summary
    rows; op ``c * cpis + i`` is CPI i of cell c.
    """
    cpis = len(cells[0][0]["cpi"])
    found = check_motion_variance(*cells[0])
    if len(summary["method"]) != len(cells):
        return found + [("summary_rows", None, "summary.csv rows do not match the cells run")]

    def cell_ops(c):
        return list(range(c * cpis, (c + 1) * cpis))

    for c, (m, link) in enumerate(cells):
        found += check_cpi_rows(m, link, offset=c * cpis)
        for col in ("rate", "rate_opt", "rate_ff", "rate_fd"):
            got, want = summary[f"mean_{col}"][c], float(np.mean(m[col]))
            if not abs(got - want) <= RATE_TOL * want:
                found.append(("summary_matches_cells", cell_ops(c), f"cell {c} mean_{col}"))
        rate, opt = summary["mean_rate"][c], summary["mean_rate_opt"][c]
        if not rate <= opt * (1.0 + RATE_TOL):
            found.append(("cell_at_most_genie", cell_ops(c), f"cell {c}: {rate} > genie {opt}"))
        if summary["method"][c] == "agdao" and not rate >= 0.95 * opt:
            found.append(("agdao_near_genie", cell_ops(c), f"cell {c}: {rate} < 0.95 x {opt}"))

    powers = summary["tx_power_dbm"]
    for p in np.unique(powers):
        opts = summary["mean_rate_opt"][powers == p]
        if not np.max(opts) - np.min(opts) <= RATE_TOL * np.max(opts):
            found.append(("genie_shared", None, f"mean_rate_opt differs across methods at {p:g} dBm"))
    ekf = summary["method"] == "ekf"
    order = np.argsort(powers[ekf], kind="stable")
    ekf_rates = summary["mean_rate"][ekf][order]
    if not np.all(np.diff(ekf_rates) >= 0.0):
        found.append(("ekf_rate_rises_with_power", None, f"EKF rates {ekf_rates.tolist()}"))
    return found


def traces(t: dict) -> dict[tuple[str, float], np.ndarray]:
    """Row indices of each (variant, seed) optimizer trace, in file order."""
    rows = {}
    for i, key in enumerate(zip(t["variant"].tolist(), t["seed"].tolist())):
        rows.setdefault(key, []).append(i)
    return {key: np.array(idx) for key, idx in rows.items()}


def rse_at(t: dict, truth_v, k: int = 100) -> dict[str, float]:
    """Root-mean-square Euclidean velocity error at iteration k, per variant."""
    squares = {}
    for (variant, _), rows in traces(t).items():
        at = rows[t["k"][rows] == k]
        sq = (t["vx"][at] - truth_v[0]) ** 2 + (t["vy"][at] - truth_v[1]) ** 2
        squares.setdefault(variant, []).append(float(sq[0]) if at.size else math.inf)
    return {v: math.sqrt(float(np.mean(sq))) for v, sq in squares.items()}


def check_converge(t: dict, truth_v, v_init):
    """Checks on `nfbeam converge` output; op j is the j-th (variant, seed) trace."""
    found = []
    best = []
    for j, (key, rows) in enumerate(traces(t).items()):
        k, vx, vy, obj = (t[c][rows] for c in ("k", "vx", "vy", "objective"))
        if not (k[0] == 0 and vx[0] == v_init[0] and vy[0] == v_init[1]):
            found.append(("trace_starts_at_init", [j], f"trace {key} row 0 is not k=0 at v_init"))
        if not np.all(np.isfinite(obj)):
            found.append(("objective_finite", [j], f"trace {key} has a non-finite objective"))
        elif not obj[-1] >= obj[0]:
            found.append(("objective_rises", [j], f"trace {key} ends below its start"))
        for axis, v, truth in (("x", vx, truth_v[0]), ("y", vy, truth_v[1])):
            if not np.array_equal(t[f"err_v{axis}"][rows], np.abs(v - truth)):
                found.append(("error_columns", [j], f"trace {key} err_v{axis} != |v{axis} - truth|"))
        if key[0] == "adam-ao":
            best.append(float(np.min(np.hypot(vx - truth_v[0], vy - truth_v[1]))))

    if best and not np.median(best) < 0.05:
        found.append(("best_error", None, f"median best adam-ao error {np.median(best):.4f}"))
    rse = rse_at(t, truth_v, 100)
    ranked = [rse[v] for v in ("adam-ao", "adam-joint", "plain-gd") if v in rse]
    # the two Adam variants tie to ~1e-6 relative at this instance
    if not all(a <= b * (1.0 + 1e-4) for a, b in zip(ranked, ranked[1:])):
        found.append(("rse100_order", None, f"RSE@100 not ao <= joint <= gd: {rse}"))
    return found
