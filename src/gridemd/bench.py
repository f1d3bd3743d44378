"""Benchmark harness: accuracy and runtime of the fast estimates vs the
exact distance over randomly generated equal-mass grid pairs.

A sweep fixes the column count, varies the row count, and runs a number of
trials per size. Each trial generates two random grids, repairs the mass
imbalance, then measures the raw vectorized 1D distance, the quasi
distance, and (below a mass cap) the exact distance, recording relative
errors against the exact value and per-call wall times.

Determinism: every trial's randomness comes from a seed derived from the
master seed and the trial coordinates by a fixed 64-bit mixing function,
so records are reproducible regardless of execution order, platform, or
how many trials run. Only the time columns vary between runs.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
import time
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import (
    EmptyInputError,
    InputFormatError,
    PreconditionError,
)
from .grid import GridHistogram, check_shape, total_mass
from .mwd import mwd_exact
from .qmwd import qmwd
from .wd1d import wd_1d

TIMING_REPETITIONS = 3

_MIX_MASK = (1 << 64) - 1
_MIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed, platform-independent 64-bit mixer."""
    x &= _MIX_MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MIX_MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MIX_MASK
    return x ^ (x >> 31)


def derive_seed(master: int, *parts: int) -> int:
    """Derive an independent 64-bit seed from a master seed and coordinates.

    Chained SplitMix64 steps; documented so records can be regenerated
    outside this module.
    """
    s = _mix64(master)
    for p in parts:
        s = _mix64((s + _MIX_GAMMA + p) & _MIX_MASK)
    return s


def gen_random_grid(m: int, n: int, seed: int, cell_max: int) -> GridHistogram:
    """Random grid with cells i.i.d. uniform on {0, ..., cell_max}.

    A pure function of its arguments: the same inputs give the identical
    grid on every platform and run. Raises PreconditionError for a
    ``cell_max`` or a dimension that is not an int, and for ``cell_max < 0``
    or a dimension below 1.
    """
    if type(cell_max) is not int:
        raise PreconditionError(f"cell_max must be an int, got {cell_max!r}")
    if type(m) is not int or type(n) is not int:
        raise PreconditionError(f"grid dimensions must be ints, got {m!r}x{n!r}")
    if cell_max < 0:
        raise PreconditionError(f"cell_max must be >= 0, got {cell_max}")
    rng = random.Random(seed)
    # Nested ranges draw no cell when either dimension is below 1 (m * n
    # would be positive for two negative ones); GridHistogram rejects it.
    cells = tuple(rng.randrange(cell_max + 1) for _ in range(m) for _ in range(n))
    return GridHistogram(m, n, cells)


def equalize_mass(
    p: GridHistogram, q: GridHistogram, seed: int
) -> tuple[GridHistogram, GridHistogram]:
    """Make the totals equal by adding the deficit to the lighter grid,
    one unit at a time at uniformly random cells (seeded, deterministic).
    """
    check_shape(p, q)
    tp, tq = total_mass(p), total_mass(q)
    if tp == tq:
        return p, q
    rng = random.Random(seed)
    lighter = list(p.cells if tp < tq else q.cells)
    for _ in range(abs(tp - tq)):
        lighter[rng.randrange(len(lighter))] += 1
    repaired = GridHistogram(p.rows, p.cols, tuple(lighter))
    return (repaired, q) if tp < tq else (p, repaired)


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one benchmark sweep, and the defaults of ``gridemd bench``.
    Each is exactly an ``int``; ``mwd_mass_cap=None`` is the only "no cap"."""

    n_fixed: int = 8
    m_min: int = 2
    m_max: int = 8
    trials_per_m: int = 20
    cell_max: int = 9
    master_seed: int = 42
    mwd_mass_cap: int | None = 4000

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if type(value) is not int and not (name == "mwd_mass_cap" and value is None):
                raise PreconditionError(f"{name} must be an int, got {value!r}")
        if self.n_fixed < 1:
            raise PreconditionError(f"n_fixed must be >= 1, got {self.n_fixed}")
        if self.m_min < 1 or self.m_min > self.m_max:
            raise PreconditionError(
                f"need 1 <= m_min <= m_max, got {self.m_min}..{self.m_max}"
            )
        if self.trials_per_m < 1:
            raise PreconditionError(
                f"trials_per_m must be >= 1, got {self.trials_per_m}"
            )
        if self.cell_max < 1:
            raise PreconditionError(f"cell_max must be >= 1, got {self.cell_max}")
        if self.mwd_mass_cap is not None and self.mwd_mass_cap < 0:
            raise PreconditionError(f"mwd_mass_cap must be >= 0 or None, got {self.mwd_mass_cap}")


@dataclass(frozen=True)
class BenchRecord:
    """One trial's measurements. ``None`` marks a value that was not
    computed: the exact distance under the mass cap, or errors when the
    exact distance is zero or absent. ``excluded`` records are left out of
    error aggregates; ``fail_reason`` says why: "mass_cap" or "zero_mwd".
    """

    m: int
    n: int
    trial: int
    seed: int
    mwd: int | None
    wd_vec: int | None
    qmwd: int | None
    err_wd: float | None
    err_qmwd: float | None
    time_mwd_ns: int | None
    time_qmwd_ns: int | None
    time_wd_ns: int | None
    excluded: bool
    fail_reason: str


# The records CSV has one column per BenchRecord field, in field order.
_RECORDS_CSV_FIELDS = [f.name for f in fields(BenchRecord)]


def _digits(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _error_ratio(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    if math.copysign(1.0, value) < 0:
        raise ValueError(f"negative error {text!r}")
    if text != repr(value):  # the only form ``_cell`` writes
        raise ValueError(f"expected a float as repr writes it, got {text!r}")
    return value


def _zero_one(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def _column_parser(annotation: str) -> Callable[[str], object]:
    """Cell parser for a BenchRecord field annotated ``int`` (ASCII digits
    only), ``float`` (an error ratio: finite, >= 0 and spelled as ``repr``
    spells it), ``bool`` (exactly 0 or 1) or ``str``; ``X | None`` reads ""
    as None."""
    kind, optional, _ = annotation.partition(" | None")
    parse = {"int": _digits, "float": _error_ratio, "bool": _zero_one, "str": str}[kind]
    return (lambda t: None if t == "" else parse(t)) if optional else parse


_RECORDS_CSV_PARSERS = [_column_parser(f.type) for f in fields(BenchRecord)]

# fail_reason -> (mwd and time_mwd_ns are set, both error ratios are set),
# as ``_run_trial`` leaves them.
_FAIL_REASONS = {"": (True, True), "zero_mwd": (True, False), "mass_cap": (False, False)}


@dataclass(frozen=True)
class SweepSummary:
    """Per-size aggregate over the records of one m value."""

    m: int
    n: int
    used: int
    excluded: int
    mean_err_wd: float | None
    median_err_wd: float | None
    mean_err_qmwd: float | None
    median_err_qmwd: float | None
    mean_time_mwd_ns: float | None
    mean_time_qmwd_ns: float | None
    mean_time_wd_ns: float | None


def _timed(fn: Callable[[], int]) -> tuple[int, int]:
    """Value plus wall time in ns: minimum over repeated calls to damp
    scheduler noise."""
    times: list[int] = []
    for _ in range(TIMING_REPETITIONS):
        t0 = time.perf_counter_ns()
        value = fn()
        times.append(time.perf_counter_ns() - t0)
    return value, min(times)


def _run_trial(cfg: SweepConfig, m: int, trial: int) -> BenchRecord:
    tseed = derive_seed(cfg.master_seed, m, trial)
    mwd = time_mwd = None
    fail_reason = ""
    p = gen_random_grid(m, cfg.n_fixed, derive_seed(tseed, 1), cfg.cell_max)
    q = gen_random_grid(m, cfg.n_fixed, derive_seed(tseed, 2), cfg.cell_max)
    p, q = equalize_mass(p, q, derive_seed(tseed, 3))

    wd_vec, time_wd = _timed(lambda: wd_1d(p.cells, q.cells))
    quasi, time_qmwd = _timed(lambda: qmwd(p, q).qmwd)
    if cfg.mwd_mass_cap is not None and total_mass(p) > cfg.mwd_mass_cap:
        fail_reason = "mass_cap"
    else:
        mwd, time_mwd = _timed(lambda: mwd_exact(p, q).distance)
        if mwd == 0:
            fail_reason = "zero_mwd"

    excluded = fail_reason != ""
    return BenchRecord(
        m=m, n=cfg.n_fixed, trial=trial, seed=tseed, mwd=mwd, wd_vec=wd_vec, qmwd=quasi,
        err_wd=None if excluded else abs(mwd - wd_vec) / mwd,
        err_qmwd=None if excluded else abs(mwd - quasi) / mwd,
        time_mwd_ns=time_mwd, time_qmwd_ns=time_qmwd, time_wd_ns=time_wd,
        excluded=excluded, fail_reason=fail_reason,
    )


def run_sweep(cfg: SweepConfig) -> list[BenchRecord]:
    """Run every (m, trial) combination and return one record each.

    A trial whose exact distance is skipped (mass cap) or zero is flagged
    in ``fail_reason``. Records come back ordered by (m, trial).
    """
    return [
        _run_trial(cfg, m, trial)
        for m in range(cfg.m_min, cfg.m_max + 1)
        for trial in range(cfg.trials_per_m)
    ]


def aggregate(records: Sequence[BenchRecord]) -> list[SweepSummary]:
    """Per-m summaries: error statistics over the non-excluded records,
    time means over the records where that time was measured."""
    if not records:
        raise EmptyInputError("no records to aggregate")
    by_m: dict[int, list[BenchRecord]] = {}
    for rec in records:
        by_m.setdefault(rec.m, []).append(rec)
    summaries = []
    for m in sorted(by_m):
        group = by_m[m]
        used = [r for r in group if not r.excluded]
        err_wd = [r.err_wd for r in used if r.err_wd is not None]
        err_qmwd = [r.err_qmwd for r in used if r.err_qmwd is not None]
        t_mwd = [r.time_mwd_ns for r in group if r.time_mwd_ns is not None]
        t_qmwd = [r.time_qmwd_ns for r in group if r.time_qmwd_ns is not None]
        t_wd = [r.time_wd_ns for r in group if r.time_wd_ns is not None]
        summaries.append(
            SweepSummary(
                m=m,
                n=group[0].n,
                used=len(used),
                excluded=len(group) - len(used),
                mean_err_wd=statistics.fmean(err_wd) if err_wd else None,
                median_err_wd=statistics.median(err_wd) if err_wd else None,
                mean_err_qmwd=statistics.fmean(err_qmwd) if err_qmwd else None,
                median_err_qmwd=statistics.median(err_qmwd) if err_qmwd else None,
                mean_time_mwd_ns=statistics.fmean(t_mwd) if t_mwd else None,
                mean_time_qmwd_ns=statistics.fmean(t_qmwd) if t_qmwd else None,
                mean_time_wd_ns=statistics.fmean(t_wd) if t_wd else None,
            )
        )
    return summaries


def _cell(value: int | float | bool | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_records_csv(records: Iterable[BenchRecord], dest: TextIO) -> None:
    """Write records with the fixed documented header. ``None`` becomes an
    empty field; floats use repr so parsing them back is lossless."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(_RECORDS_CSV_FIELDS)
    for r in records:
        writer.writerow([_cell(getattr(r, name)) for name in _RECORDS_CSV_FIELDS])


def _csv_rows(src: TextIO) -> Iterator[list[str]]:
    """``src``'s CSV rows; a ``csv.Error``, such as a field past the csv
    module's size limit, becomes an InputFormatError naming its line."""
    reader = csv.reader(src)
    try:
        yield from reader
    except csv.Error as exc:
        raise InputFormatError(f"line {reader.line_num}: {exc}") from None


def read_records_csv(src: TextIO) -> list[BenchRecord]:
    """Parse a records CSV produced by emit_records_csv.

    The header line must match the documented one exactly. These rows are
    an InputFormatError: one the csv module cannot read (a field over its
    size limit), the wrong field count, an ``int`` cell that is not
    ASCII digits, an error that is not finite, is negative (``-0.0``
    included) or is not spelled as ``repr`` spells it, an
    ``excluded`` cell other than 0 or 1, a ``fail_reason`` other than "",
    "mass_cap" or "zero_mwd", ``excluded`` 1 with an empty ``fail_reason``
    or 0 with a non-empty one, and cells that disagree with ``fail_reason``:
    ``mwd`` and ``time_mwd_ns`` are empty exactly on "mass_cap" rows, both
    errors are set exactly on used rows, and ``mwd`` is 0 exactly on
    "zero_mwd" rows.
    """
    reader = _csv_rows(src)
    try:
        header = next(reader)
    except StopIteration:
        raise InputFormatError("records CSV is empty") from None
    if header != _RECORDS_CSV_FIELDS:
        raise InputFormatError(
            f"unexpected records CSV header: {','.join(header)!r}"
        )
    out = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_RECORDS_CSV_FIELDS):
            raise InputFormatError(
                f"line {lineno}: expected {len(_RECORDS_CSV_FIELDS)} fields, got {len(row)}"
            )
        try:
            rec = BenchRecord(*(parse(v) for parse, v in zip(_RECORDS_CSV_PARSERS, row)))
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from None
        reason = rec.fail_reason
        if reason not in _FAIL_REASONS:
            raise InputFormatError(f"line {lineno}: unknown fail_reason {reason!r}")
        if rec.excluded != (reason != ""):
            raise InputFormatError(
                f"line {lineno}: excluded is {int(rec.excluded)} but fail_reason is {reason!r}"
            )
        exact, errors = _FAIL_REASONS[reason]
        for name, want in (
            ("mwd", exact), ("time_mwd_ns", exact), ("err_wd", errors), ("err_qmwd", errors)
        ):
            if (getattr(rec, name) is not None) != want:
                raise InputFormatError(
                    f"line {lineno}: {name} is {'empty' if want else 'set'} "
                    f"but fail_reason is {reason!r}"
                )
        if (rec.mwd == 0) != (reason == "zero_mwd"):
            raise InputFormatError(
                f"line {lineno}: mwd is {rec.mwd} but fail_reason is {reason!r}"
            )
        out.append(rec)
    return out
