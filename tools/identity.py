"""Dump gridemd's observable outputs on a fixed seeded corpus, or diff two dumps.

    PYTHONPATH=src python tools/identity.py dump OUT
    PYTHONPATH=src python tools/identity.py diff A B

``dump`` imports whichever ``gridemd`` is on the path, so running it once per
source tree (each with its own ``PYTHONPATH``) and diffing the two files shows
whether a change keeps the library's outputs. ``diff`` prints each entry that
differs, a count of differing entries per kind, and exits 1 if any differ.

The dump holds, per entry of the corpus:

- ``mwd`` (the exact distance) and ``plan`` (its moves), the ``qmwd``
  breakdown and the ``wd_1d`` baseline of random equal-mass pairs: 3000 pairs
  up to 9x9 with cells up to 0, 1, 3 or 9, 40 12x12 pairs with cells 0..9,
  and 20 128x128 pairs of 32 point masses of 100;
- the same three measures on each small pair before its masses are made
  equal, which mostly raise ``MassMismatchError``;
- ``normalize_pair`` results on real-valued grids;
- the type and message of every error on a list of bad inputs;
- ``gridemd dist``, ``bench`` and ``plot`` stdout, stderr and exit code, with
  bench's time columns dropped, on good and bad files (text that is not
  UTF-8, records with non-finite errors among them);
- the ``emit_svg`` text of a few fixed ``SweepSummary`` sets (real errors
  and fixed times, missing aggregates, all times equal, every aggregate
  ``None``), since a timed sweep's chart changes from run to run;
- every column of ``run_sweep`` records except the times, and every
  ``aggregate`` field except the time means.

Any exception a call raises, typed or not, is recorded as
``["!" + type, message]`` in place of its result, so a dump runs to the end
on code that crashes on some input.

Plans are not part of the library's contract: when several plans are optimal
a change may pick another one, so a diff confined to ``plan`` entries means
that changed and nothing else. The dump reads public API only, and none of
the names removed in the change that added this script (``vec_row_major``,
``MassVector``, ``RECORDS_CSV_HEADER``, ``SweepSummary.records``), so dumps
taken on either side of that change compare entry by entry. Standard
library only.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from typing import Any, Callable, Iterator

import gridemd
import gridemd.cli

CELL_MAXES = (0, 1, 3, 9)
SPARSE_SIDE = 128
SPARSE_POINTS = 32
SHOWN_DIFFS = 20


def _plain(value: Any) -> Any:
    """``value`` with grids, exact results and other records spelled as lists."""
    if isinstance(value, gridemd.GridHistogram):
        return [value.rows, value.cols, value.cells]
    if isinstance(value, gridemd.MwdResult):
        return [value.distance, [[*mv.src, *mv.dst, mv.amount] for mv in value.plan]]
    if dataclasses.is_dataclass(value):  # QmwdBreakdown, BenchRecord
        return dataclasses.astuple(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _outcome(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn``'s plain result, or ``["!" + error type, message]`` if it raises."""
    try:
        return _plain(fn(*args))
    except Exception as exc:
        return ["!" + type(exc).__name__, str(exc)]


def _measures(key: str, p: Any, q: Any) -> Iterator[tuple[str, Any]]:
    res = _outcome(gridemd.mwd_exact, p, q)
    if isinstance(res[0], str):
        yield f"{key}/mwd", res
    else:
        yield f"{key}/mwd", res[0]
        yield f"{key}/plan", res[1]
    yield f"{key}/qmwd", _outcome(gridemd.qmwd, p, q)
    yield f"{key}/wd_1d", _outcome(gridemd.wd_1d, p.cells, q.cells)


def _pairs(count: int) -> Iterator[tuple[str, Any]]:
    rng = random.Random(20261018)
    for i in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        cell_max = CELL_MAXES[i % len(CELL_MAXES)]
        p = gridemd.gen_random_grid(m, n, rng.randrange(1 << 62), cell_max)
        q = gridemd.gen_random_grid(m, n, rng.randrange(1 << 62), cell_max)
        yield from _measures(f"raw/{i}", p, q)
        p, q = gridemd.equalize_mass(p, q, rng.randrange(1 << 62))
        yield from _measures(f"pair/{i}", p, q)


def _dense(count: int) -> Iterator[tuple[str, Any]]:
    rng = random.Random(12)
    for i in range(count):
        p = gridemd.gen_random_grid(12, 12, rng.randrange(1 << 62), 9)
        q = gridemd.gen_random_grid(12, 12, rng.randrange(1 << 62), 9)
        p, q = gridemd.equalize_mass(p, q, rng.randrange(1 << 62))
        yield from _measures(f"dense/{i}", p, q)


def _sparse(count: int) -> Iterator[tuple[str, Any]]:
    rng = random.Random(128)
    size = SPARSE_SIDE * SPARSE_SIDE

    def points() -> Any:
        cells = [0] * size
        for i in rng.sample(range(size), SPARSE_POINTS):
            cells[i] = 100
        return gridemd.GridHistogram(SPARSE_SIDE, SPARSE_SIDE, tuple(cells))

    for i in range(count):
        yield from _measures(f"sparse/{i}", points(), points())


def _normalized(count: int) -> Iterator[tuple[str, Any]]:
    rng = random.Random(7)
    for i in range(count):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        p = [[round(rng.uniform(0, 5), 3) for _ in range(n)] for _ in range(m)]
        q = [[round(rng.uniform(0, 5), 3) for _ in range(n)] for _ in range(m)]
        yield f"normalize/{i}", _outcome(gridemd.normalize_pair, p, q, i % 4)


def _errors() -> Iterator[tuple[str, Any]]:
    G = gridemd.GridHistogram
    a, b = G(1, 2, (1, 0)), G(2, 1, (1, 0))
    heavy = G(1, 2, (5, 9))
    cases: list[tuple[Callable[..., Any], tuple[Any, ...]]] = [
        (G, (0, 1, ())),
        (G, (1, 2, (1,))),
        (G, (1, 1, (-1,))),
        (G, (1, 1, (1.5,))),
        (G.from_rows, ([],)),
        (G.from_rows, ([[1], [1, 2]],)),
        (gridemd.parse_grid, ("",)),
        (gridemd.parse_grid, ("\n \n",)),
        (gridemd.parse_grid, ("1 x",)),
        (gridemd.parse_grid, ("1 2\n3",)),
        (gridemd.parse_grid, ("-1",)),
        (gridemd.parse_grid, ("\u0663",)),
        (gridemd.parse_grid, ("1,2\n 3 4\n\n",)),
        (gridemd.mwd_exact, (a, b)),
        (gridemd.mwd_exact, (a, heavy)),
        (gridemd.qmwd, (a, b)),
        (gridemd.qmwd, (a, heavy)),
        (gridemd.mwd_oracle_assignment, (a, b)),
        (gridemd.mwd_oracle_assignment, (G(1, 2, (13, 0)), G(1, 2, (0, 13)))),
        (gridemd.mwd_oracle_assignment, (G(2, 2, (3, 0, 1, 2)), G(2, 2, (0, 4, 2, 0)))),
        (gridemd.wd_1d, ((1, 2), (1, 2, 0))),
        (gridemd.wd_1d, ((1, -1), (0, 0))),
        (gridemd.wd_1d, ((1, 2), (3, 1))),
        (gridemd.wd_1d_oracle, ((65, 0), (0, 65))),
        (gridemd.wd_1d_oracle, ((3, 0, 1), (0, 2, 2))),
        (gridemd.gen_random_grid, (0, 3, 1, 9)),
        (gridemd.gen_random_grid, (2, 2, 1, -1)),
        (gridemd.equalize_mass, (a, b, 1)),
        (gridemd.SweepConfig, (0,)),
        (gridemd.SweepConfig, (8, 5, 4)),
        (gridemd.SweepConfig, (8, 2, 8, 0)),
        (gridemd.SweepConfig, (8, 2, 8, 20, 0)),
        (gridemd.aggregate, ([],)),
        (gridemd.read_records_csv, (io.StringIO(""),)),
        (gridemd.read_records_csv, (io.StringIO("m,n\n1,2\n"),)),
        (gridemd.normalize_pair, ([[1.0]], [[1.0]], -1)),
        (gridemd.normalize_pair, ([], [[1.0]])),
        (gridemd.normalize_pair, ([[0.0]], [[1.0]])),
        (gridemd.normalize_pair, ([[1.0, -1.0]], [[1.0, 0.0]])),
        (gridemd.normalize_pair, ([[1.0]], [[1.0, 0.0]])),
        (gridemd.normalize_pair, ([[1.0]], [[1.2]])),
        (gridemd.normalize_pair, ([[0.2]], [[0.3]])),
        (gridemd.normalize_pair, ([[1.0, float("nan")]], [[1.0, 1.0]])),
        (gridemd.normalize_pair, ([[1.0]], [[float("inf")]])),
        (gridemd.normalize_pair, ([[1e308]], [[1.0]], 2)),
        (gridemd.normalize_pair, ([[10**400]], [[1.0]])),
        (gridemd.read_records_csv, (io.StringIO(_records_text("nan", "0.1")),)),
        (gridemd.read_records_csv, (io.StringIO(_records_text("0.2", "inf")),)),
        (gridemd.normalize_pair, ([[float("nan")]], [[1.0]])),
        (gridemd.normalize_pair, ([[-1.0]], [[1.0]])),
        (gridemd.normalize_pair, ([[1.0], [2.0, 5.0]], [[1.0], [2.0]])),
        (gridemd.normalize_pair, ([[1.0], [2.0]], [[1.0], [2.0, 3.0]])),
    ]
    for i, (fn, args) in enumerate(cases):
        yield f"error/{i}", _outcome(fn, *args)


def _cli(tmp: str) -> Iterator[tuple[str, Any]]:
    def run(*argv: str) -> list[Any]:
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps help and usage text at $COLUMNS.
        columns = os.environ.get("COLUMNS")
        os.environ["COLUMNS"] = "80"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = gridemd.cli.main(list(argv))
        except Exception as exc:
            code = ["!" + type(exc).__name__, str(exc)]
        finally:
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        return [code, out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")]

    def path(name: str, text: str | bytes) -> str:
        full = os.path.join(tmp, name)
        with open(full, "wb") as fh:
            fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        return full

    rng = random.Random(96)
    files = [("p0", "1 0\n0 0\n"), ("q0", "0 0\n0 1\n")]
    for side, cell_max in ((4, 3), (8, 9), (96, 9)):
        p = gridemd.gen_random_grid(side, side, rng.randrange(1 << 62), cell_max)
        q = gridemd.gen_random_grid(side, side, rng.randrange(1 << 62), cell_max)
        p, q = gridemd.equalize_mass(p, q, rng.randrange(1 << 62))
        files += [(f"p{side}", gridemd.format_grid(p)), (f"q{side}", gridemd.format_grid(q, ","))]
    paths = {name: path(name, text) for name, text in files}
    bad = {
        "ragged": path("ragged", "1 2\n3\n"),
        "token": path("token", "1 x\n"),
        "empty": path("empty", "\n"),
        "tall": path("tall", "1\n0\n0\n"),
        "wide": path("wide", "1 0 0\n"),
        "heavy": path("heavy", "9 9\n9 9\n"),
        "undecodable": path("undecodable", b"\xff\xfe1 2\n"),
    }
    bad["missing"] = os.path.join(tmp, "missing")

    for pq in ("0", "4", "8", "96"):
        p, q = paths["p" + pq], paths["q" + pq]
        for metric in ("mwd", "qmwd", "wdvec", "all"):
            if pq == "96" and metric in ("mwd", "all"):
                continue
            for extra in ((), ("--json",), ("--plan",), ("--plan", "--json")):
                yield f"cli/dist/{pq}/{metric}/{'+'.join(extra) or 'text'}", run(
                    "dist", p, q, "--metric", metric, *extra
                )
    for name, bad_path in bad.items():
        for metric in ("mwd", "qmwd", "wdvec", "all"):
            yield f"cli/bad/{name}/{metric}", run("dist", paths["p0"], bad_path, "--metric", metric)
    yield "cli/bad/swapped", run("dist", bad["tall"], bad["wide"])

    csv_path = os.path.join(tmp, "records.csv")
    code, out, err = run(
        "bench", "--n", "4", "--m-min", "2", "--m-max", "3", "--trials", "3",
        "--seed", "5", "--out", csv_path,
    )
    # Keep m, used, excl and the two mean errors; the last three columns are times.
    yield "cli/bench", [code, [line.split()[:5] for line in out.splitlines()], err]
    with open(csv_path, encoding="utf-8") as fh:
        yield "cli/bench/records", _untimed_records(gridemd.read_records_csv(fh))
    yield "cli/plot", run("plot", "--in", csv_path, "--out", os.path.join(tmp, "chart.svg"))
    yield "cli/plot/bad", run("plot", "--in", paths["p0"], "--out", os.path.join(tmp, "x.svg"))
    yield "cli/plot/missing", run("plot", "--in", bad["missing"], "--out", os.path.join(tmp, "x.svg"))
    yield "cli/plot/undecodable", run(
        "plot", "--in", bad["undecodable"], "--out", os.path.join(tmp, "x.svg")
    )
    for name, errs in (("nan", ("nan", "0.1")), ("inf", ("0.2", "inf"))):
        yield f"cli/plot/{name}", run(
            "plot", "--in", path(name + ".csv", _records_text(*errs)),
            "--out", os.path.join(tmp, name + ".svg"),
        )
    for i, argv in enumerate(
        (
            ("--help",),
            (),
            ("dist",),
            ("dist", paths["p0"], paths["q0"], "--metric", "nope"),
            ("bench", "--n", "0", "--out", os.path.join(tmp, "x.csv")),
            ("bench", "--m-min", "5", "--m-max", "4", "--out", os.path.join(tmp, "x.csv")),
            ("bench", "--trials", "0", "--out", os.path.join(tmp, "x.csv")),
            ("bench", "--cell-max", "0", "--out", os.path.join(tmp, "x.csv")),
            ("bench", "--n", "x"),
        )
    ):
        yield f"cli/usage/{i}", run(*argv)


def _charts() -> Iterator[tuple[str, Any]]:
    def summary(m: int, used: int, errs: tuple[Any, Any], times: tuple[Any, Any, Any]) -> Any:
        """Four trials at n = 6; each error series' mean and median are equal."""
        wd, q = errs
        return gridemd.SweepSummary(m, 6, used, 4 - used, wd, wd, q, q, *times)

    def svg(summaries: list[Any]) -> str:
        buf = io.StringIO()
        gridemd.emit_svg(summaries, buf)
        return buf.getvalue()

    sets = {
        "real": [
            summary(m, 4, (0.2 * m, 0.05 * m), (4e4 * m * m, 9e3 * m, 1.5e3 * m))
            for m in (5, 2, 3, 4)
        ],
        "missing": [
            summary(2, 0, (None, None), (None, 12000.0, 900.0)),
            summary(3, 4, (0.5, 0.25), (80000.0, 15000.0, 1100.0)),
        ],
        "equal_times": [summary(m, 4, (0.5, 0.25), (5000.0,) * 3) for m in (2, 3)],
        "all_none": [summary(m, 0, (None, None), (None,) * 3) for m in (2, 3, 4)],
        "empty": [],
    }
    for name, summaries in sets.items():
        yield f"svg/{name}", _outcome(svg, summaries)


def _records_text(err_wd: str, err_qmwd: str) -> str:
    """A one-record CSV with the given error columns."""
    header = ",".join(f.name for f in dataclasses.fields(gridemd.BenchRecord))
    return f"{header}\n2,8,0,1,10,12,11,{err_wd},{err_qmwd},1,1,1,0,\n"


def _untimed_records(records: Any) -> list[list[Any]]:
    return [
        [getattr(r, f.name) for f in dataclasses.fields(r) if not f.name.startswith("time_")]
        for r in records
    ]


def _sweeps(trials: int) -> Iterator[tuple[str, Any]]:
    summary_fields = (
        "m", "n", "used", "excluded",
        "mean_err_wd", "median_err_wd", "mean_err_qmwd", "median_err_qmwd",
    )
    configs = {
        "default": gridemd.SweepConfig(trials_per_m=trials),
        "capped": gridemd.SweepConfig(n_fixed=3, m_max=4, trials_per_m=trials, mwd_mass_cap=40),
        "sparse": gridemd.SweepConfig(n_fixed=2, m_min=1, m_max=3, trials_per_m=trials, cell_max=1),
    }
    for name, cfg in configs.items():
        records = gridemd.run_sweep(cfg)
        yield f"sweep/{name}/records", _untimed_records(records)
        yield f"sweep/{name}/summaries", [
            [getattr(s, f) for f in summary_fields] for s in gridemd.aggregate(records)
        ]
        buf = io.StringIO()
        gridemd.emit_records_csv(records, buf)
        yield f"sweep/{name}/csv_round_trip", gridemd.read_records_csv(
            io.StringIO(buf.getvalue())
        ) == records


def collect(
    pairs: int = 3000,
    dense: int = 40,
    sparse: int = 20,
    sweep_trials: int = 20,
) -> dict[str, Any]:
    """Every dumped entry by key; the defaults give the full corpus."""
    out: dict[str, Any] = {}
    with tempfile.TemporaryDirectory() as tmp:
        sections = (
            _pairs(pairs), _dense(dense), _sparse(sparse), _normalized(pairs // 6),
            _errors(), _cli(tmp), _charts(), _sweeps(sweep_trials),
        )
        for section in sections:
            for key, value in section:
                if key in out:
                    raise AssertionError(f"duplicate key {key}")
                # A JSON round trip turns tuples into lists, as a dump read back does.
                out[key] = json.loads(json.dumps(value))
    return out


def write_dump(entries: dict[str, Any], dest: str) -> None:
    with open(dest, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(json.dumps([key, value]) + "\n")


def read_dump(src: str) -> dict[str, Any]:
    with open(src, encoding="utf-8") as fh:
        return dict(json.loads(line) for line in fh)


def differences(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, Any, Any]]:
    """``(key, value in a, value in b)`` for every key whose values differ;
    a key missing from one side shows as ``None`` there. Values compare as
    JSON text, so a NaN equals itself."""
    keys = list(a) + [k for k in b if k not in a]
    return [(k, a.get(k), b.get(k)) for k in keys if json.dumps(a.get(k)) != json.dumps(b.get(k))]


def _kind(key: str) -> str:
    """A key's section, plus the measure for pair entries: ``pair/7/plan``
    -> ``pair plan``, ``cli/dist/8/all/text`` -> ``cli``."""
    parts = key.split("/")
    if parts[0] in ("raw", "pair", "dense", "sparse"):
        return f"{parts[0]} {parts[-1]}"
    return parts[0]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        entries = collect()
        write_dump(entries, argv[1])
        print(f"wrote {len(entries)} entries to {argv[1]}", file=sys.stderr)
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        diffs = differences(read_dump(argv[1]), read_dump(argv[2]))
        for key, va, vb in diffs[:SHOWN_DIFFS]:
            print(f"{key}:\n  A {json.dumps(va)[:300]}\n  B {json.dumps(vb)[:300]}")
        if len(diffs) > SHOWN_DIFFS:
            print(f"... and {len(diffs) - SHOWN_DIFFS} more")
        kinds = Counter(_kind(k) for k, _, _ in diffs)
        print(f"{len(diffs)} differing entries" + "".join(f"; {k} {c}" for k, c in sorted(kinds.items())))
        return 1 if diffs else 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
