"""Command-line interface: distances on grid files, benchmark sweeps, charts.

Exit codes: 0 success, 2 malformed input (text that is not UTF-8
included; the message names the file) or usage, 3 violated numerical
precondition (dimension or mass mismatch and similar), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Callable, Sequence, TextIO, TypeVar

from .bench import SweepConfig, aggregate, emit_records_csv, read_records_csv, run_sweep
from .charts import emit_svg
from .errors import EmptyInputError, InputFormatError, PreconditionError
from .grid import GridHistogram, parse_grid
from .mwd import mwd_exact
from .qmwd import qmwd
from .wd1d import checked_prefix_work

# Not called here; perfbench/tracing.py rebinds this name on this module.
from .wd1d import wd_1d  # noqa: F401

T = TypeVar("T")

# (flag, SweepConfig field, metavar, help) per `gridemd bench` setting.
_BENCH_SETTINGS = (
    ("--n", "n_fixed", "N", "fixed column count"),
    ("--m-min", "m_min", "M_MIN", "first row count"),
    ("--m-max", "m_max", "M_MAX", "last row count"),
    ("--trials", "trials_per_m", "TRIALS", "trials per row count"),
    ("--cell-max", "cell_max", "CELL_MAX", "largest random cell value"),
    ("--seed", "master_seed", "SEED", "master seed"),
    ("--mwd-mass-cap", "mwd_mass_cap", "MWD_MASS_CAP",
     "skip the exact solve above this total mass; negative disables the cap"),
)


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
    for flag, field, metavar, help_text in _BENCH_SETTINGS:
        bench.add_argument(
            flag, type=int, dest=field, metavar=metavar,
            default=getattr(SweepConfig, field), help=f"{help_text} (default %(default)s)",
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
        out["wd_vec"] = checked_prefix_work(p, q)[1]
    if args.metric in ("qmwd", "all"):
        out["qmwd"] = qmwd(p, q).qmwd

    if args.json:
        if args.plan:
            out["plan"] = plan_rows
        print(json.dumps(out))
        return 0

    for key, value in out.items():
        print(f"{key} {value}")
    if args.plan:
        print(f"plan {len(plan_rows)}")
        for row in plan_rows:
            print(*row)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    settings = {f.name: getattr(args, f.name) for f in fields(SweepConfig)}
    if settings["mwd_mass_cap"] < 0:  # the flag's way to say "no cap"
        settings["mwd_mass_cap"] = None
    cfg = SweepConfig(**settings)  # bad settings exit 3 before --out is touched
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        records = run_sweep(cfg)
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


# Built once, at import: parse_args keeps no state between calls.
_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
