"""Command-line interface: distances on grid files, benchmark sweeps, charts.

Exit codes: 0 success, 2 malformed input (text that is not UTF-8
included; the message names the file) or usage, 3 violated numerical
precondition (dimension or mass mismatch and similar), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Sequence, TextIO, TypeVar

from .bench import SweepConfig, aggregate, emit_records_csv, read_records_csv, run_sweep
from .charts import emit_svg
from .errors import EmptyInputError, InputFormatError, PreconditionError
from .grid import GridHistogram, check_pair, parse_grid
from .mwd import mwd_exact
from .qmwd import qmwd
from .wd1d import prefix_work

# Not called here; perfbench/tracing.py rebinds this name on this module.
from .wd1d import wd_1d  # noqa: F401

T = TypeVar("T")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridemd",
        description="Exact and fast approximate earth mover's distances "
        "between equal-mass integer grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser(
        "dist",
        help="compute distances between two grid text files",
        description="Read two grids (one row per line, whitespace- or "
        "comma-separated nonnegative integers) and print the requested "
        "distances.",
    )
    dist.add_argument("file_p", help="path of the first grid file")
    dist.add_argument("file_q", help="path of the second grid file")
    dist.add_argument(
        "--metric",
        choices=("mwd", "qmwd", "wdvec", "all"),
        default="all",
        help="which distance to compute (default: all)",
    )
    dist.add_argument(
        "--plan",
        action="store_true",
        help="also print an optimal transport plan (exact distance only)",
    )
    dist.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object instead of plain text",
    )
    dist.set_defaults(func=_cmd_dist)

    bench = sub.add_parser(
        "bench",
        help="run a benchmark sweep and write a records CSV",
        description="Random equal-mass grid pairs per size; measures the "
        "exact distance, the quasi distance, and the raw vectorized 1D "
        "distance, with relative errors and timings.",
    )
    bench.add_argument("--n", type=int, default=8, help="fixed column count (default 8)")
    bench.add_argument("--m-min", type=int, default=2, help="first row count (default 2)")
    bench.add_argument("--m-max", type=int, default=8, help="last row count (default 8)")
    bench.add_argument(
        "--trials", type=int, default=20, help="trials per row count (default 20)"
    )
    bench.add_argument(
        "--cell-max", type=int, default=9, help="largest random cell value (default 9)"
    )
    bench.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    bench.add_argument(
        "--mwd-mass-cap",
        type=int,
        default=4000,
        help="skip the exact solve above this total mass; negative disables "
        "the cap (default 4000)",
    )
    bench.add_argument(
        "--out", default="records.csv", help="records CSV path (default records.csv)"
    )
    bench.set_defaults(func=_cmd_bench)

    plot = sub.add_parser(
        "plot",
        help="render the two-panel SVG chart from a records CSV",
    )
    plot.add_argument("--in", dest="src", required=True, help="records CSV path")
    plot.add_argument("--out", dest="dest", required=True, help="SVG output path")
    plot.set_defaults(func=_cmd_plot)

    return parser


def _read(path: str, parse: Callable[[TextIO], T]) -> T:
    """``parse`` applied to the UTF-8 text file at ``path``; text that is not
    UTF-8 or that ``parse`` rejects raises InputFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse(fh)
    except (InputFormatError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _load_grid(path: str) -> GridHistogram:
    return _read(path, lambda fh: parse_grid(fh.read()))


def _cmd_dist(args: argparse.Namespace) -> int:
    if args.plan and args.metric not in ("mwd", "all"):
        print("error: --plan requires the exact distance (--metric mwd or all)",
              file=sys.stderr)
        return 2
    p = _load_grid(args.file_p)
    q = _load_grid(args.file_q)

    out: dict[str, object] = {"m": p.rows, "n": p.cols}
    plan_rows: list[list[int]] = []
    if args.metric in ("mwd", "all"):
        res = mwd_exact(p, q)
        out["mwd"] = res.distance
        if args.plan:
            plan_rows = [[*mv.src, *mv.dst, mv.amount] for mv in res.plan]
    if args.metric in ("wdvec", "all"):
        out["wd_vec"] = prefix_work(check_pair(p, q))
    if args.metric in ("qmwd", "all"):
        out["qmwd"] = qmwd(p, q).qmwd

    if args.json:
        if args.plan:
            out["plan"] = plan_rows
        print(json.dumps(out))
        return 0

    for key in ("m", "n", "mwd", "wd_vec", "qmwd"):
        if key in out:
            print(f"{key} {out[key]}")
    if args.plan:
        print(f"plan {len(plan_rows)}")
        for row in plan_rows:
            print(*row)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    cap = None if args.mwd_mass_cap < 0 else args.mwd_mass_cap
    cfg = SweepConfig(
        n_fixed=args.n,
        m_min=args.m_min,
        m_max=args.m_max,
        trials_per_m=args.trials,
        cell_max=args.cell_max,
        master_seed=args.seed,
        mwd_mass_cap=cap,
    )
    records = run_sweep(cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        emit_records_csv(records, fh)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)

    def fmt_err(v: float | None) -> str:
        return "-" if v is None else f"{v:.4f}"

    def fmt_ms(v: float | None) -> str:
        return "-" if v is None else f"{v / 1e6:.3f}"

    print("m    used excl  mean_err_wd mean_err_qmwd  mwd_ms  qmwd_ms    wd_ms")
    for s in aggregate(records):
        print(
            f"{s.m:<4d} {s.used:<4d} {s.excluded:<4d} "
            f"{fmt_err(s.mean_err_wd):>12s} {fmt_err(s.mean_err_qmwd):>13s} "
            f"{fmt_ms(s.mean_time_mwd_ns):>7s} {fmt_ms(s.mean_time_qmwd_ns):>8s} "
            f"{fmt_ms(s.mean_time_wd_ns):>8s}"
        )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    summaries = aggregate(_read(args.src, read_records_csv))
    with open(args.dest, "w", encoding="utf-8") as fh:
        emit_svg(summaries, fh)
    print(f"wrote {args.dest}", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (InputFormatError, EmptyInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
