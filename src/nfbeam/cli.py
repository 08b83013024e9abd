"""Command-line front end: track, sweep-power, converge, check."""
from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import checks
from .agdao import VARIANTS, DivergenceError
from .config import METHODS, ConfigError, build_config
from .ekf import FilterHealthError
from .harness import (
    TRACE_COLUMNS,
    convergence_study,
    power_sweep,
    run_experiment,
    write_belief_csv,
    write_metrics_csv,
    write_summary_csv,
    write_trace_csv,
)
from .signals import NonFiniteRateError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--out", metavar="DIR", default=".", help="output directory")
    p.add_argument(
        "--set",
        dest="assignments",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one config key by dotted path, e.g. system.num_antennas=128",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfbeam",
        description="Near-field beam tracking and velocity estimation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run one closed-loop tracking experiment")
    _add_common(p_track)
    p_track.add_argument("--cpis", type=int, default=None, help="number of CPIs")
    p_track.add_argument("--method", choices=METHODS, default=None)

    p_sweep = sub.add_parser("sweep-power", help="rerun tracking across transmit powers")
    _add_common(p_sweep)
    p_sweep.add_argument("--cpis", type=int, default=None, help="number of CPIs")
    p_sweep.add_argument(
        "--method", choices=METHODS, default=None,
        help="restrict to one method (default: ekf and agdao)",
    )
    p_sweep.add_argument(
        "--powers", default="10,20,30,40", help="comma-separated transmit powers in dBm"
    )

    p_conv = sub.add_parser(
        "converge", help="single-CPI optimizer traces at the known-position instance"
    )
    _add_common(p_conv)
    p_conv.add_argument(
        "--method", choices=VARIANTS, default=None,
        help="restrict to one optimizer variant (default: all three)",
    )
    p_conv.add_argument("--seeds", type=int, default=10, help="number of noise seeds")

    p_check = sub.add_parser("check", help="run the built-in oracle suites")
    p_check.add_argument("--seed", type=int, default=0)
    return parser


def _fail(kind: str, field: str, message: str) -> int:
    print(json.dumps({"error": kind, "field": field, "message": message}), file=sys.stderr)
    return 2


def _progress(done: int, total: int) -> None:
    if total >= 1000 and done % max(1, total // 10) == 0:
        print(f"  cpi {done}/{total}", file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_track(args) -> int:
    cfg = build_config(
        args.config, args.assignments,
        seed=args.seed, num_cpis=args.cpis, method=args.method,
    )
    out = _out_dir(args)
    result = run_experiment(cfg, progress=_progress)
    write_metrics_csv(out / "metrics.csv", result.metrics)
    written = [out / "metrics.csv"]
    if result.belief is not None:
        write_belief_csv(out / "belief.csv", result.belief)
        written.append(out / "belief.csv")
    s = result.summary()
    print(f"method {s['method']}, {s['num_cpis']} cpis, {s['tx_power_dbm']:g} dBm")
    print(
        f"mean rate {s['mean_rate']:.6f} bit/s/Hz "
        f"(opt {s['mean_rate_opt']:.6f}, ff {s['mean_rate_ff']:.6f}, fd {s['mean_rate_fd']:.6f})"
    )
    print(f"mean velocity error ({s['mean_verr_x']:.3e}, {s['mean_verr_y']:.3e}) m/s")
    for path in written:
        print(f"wrote {path}")
    return 0


def _parse_powers(text: str) -> list[float]:
    try:
        powers = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError("powers", f"bad power list {text!r}: {exc}") from exc
    for dbm in powers:
        if not math.isfinite(dbm):
            raise ConfigError("powers", f"must be finite, got {dbm!r}")
    return powers


def cmd_sweep(args) -> int:
    cfg = build_config(
        args.config, args.assignments, seed=args.seed, num_cpis=args.cpis
    )
    out = _out_dir(args)
    methods = (args.method,) if args.method else ("ekf", "agdao")
    powers = _parse_powers(args.powers)

    def progress(method, dbm):
        print(f"  done {method} @ {dbm:g} dBm", file=sys.stderr)

    summary = power_sweep(cfg, powers_dbm=powers, methods=methods, progress=progress)
    write_summary_csv(out / "summary.csv", summary)
    for row in summary:
        print(
            f"{row.method} @ {row.tx_power_dbm:g} dBm: mean rate {row.mean_rate:.6f} "
            f"(opt {row.mean_rate_opt:.6f})"
        )
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_converge(args) -> int:
    cfg = build_config(args.config, args.assignments, seed=args.seed)
    out = _out_dir(args)
    variants = (args.method,) if args.method else VARIANTS
    traces = convergence_study(cfg, variants=variants, num_seeds=args.seeds)
    write_trace_csv(out / "trace.csv", traces)
    err = [TRACE_COLUMNS.index("err_vx"), TRACE_COLUMNS.index("err_vy")]
    last_k = max(int(table[-1, 0]) for table in traces.values())
    for variant in variants:
        finals = np.array([table[-1, err] for (v, _), table in traces.items() if v == variant])
        med_x, med_y = np.median(finals, axis=0).tolist()
        print(
            f"{variant}: median |v error| at k={last_k} "
            f"= ({med_x:.4f}, {med_y:.4f}) m/s over {len(finals)} seeds"
        )
    print(f"wrote {out / 'trace.csv'}")
    return 0


def cmd_check(args) -> int:
    results = checks.run_all(seed=args.seed)
    failed = False
    for name, ok, detail in results:
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {name}: {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "track": cmd_track, "sweep-power": cmd_sweep, "converge": cmd_converge, "check": cmd_check,
    }
    # warnings (numpy's overflow ones, say) wait for the command's end: a
    # failed command's stderr is its one JSON line, and a command that ran to
    # its end shows them after its output
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = commands[args.command](args)
        except ConfigError as exc:
            return _fail("config", exc.field, exc.message)
        except ValueError as exc:
            return _fail("validation", "", str(exc))
        except (FilterHealthError, DivergenceError, NonFiniteRateError) as exc:
            # a valid config that drives a tracker or a rate non-finite
            _fail("numerical", "", str(exc))
            return 3
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
