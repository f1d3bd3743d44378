"""Quasi Manhattan Wasserstein distance: a fast O(mn) estimate, no solver.

The exact Manhattan distance needs a transportation solve. This module
instead runs the closed-form 1D distance over three vectorizations of the
pair (row-major, rotated a quarter turn, transposed), converts each 1D work
figure into a grid-consistent estimate, and keeps the largest. Row-major
vectorization makes horizontal neighbors adjacent but splits vertical
neighbors by a full row length; the rotation and transposition give the
column direction the same treatment, and the estimate
``work // row_length + work % row_length`` reinterprets each 1D work total
as whole-row hops plus a remainder of single-cell hops. All three passes
read one vector, the cell-by-cell difference ``p - q``, in three orders.

The estimate is neither a lower nor an upper bound: it can exceed the exact
distance. On the 4x2 pair p = [[0,1],[0,0],[0,1],[0,0]],
q = [[0,1],[0,0],[0,0],[1,0]] the exact distance is 2, but the transposed
pass counts a 1D hop of 3 inside a row of length 4 as 3 cell hops, so
``qmwd`` is 3.

Grids with real-valued cells are handled by ``normalize_pair``, which
scales by a power of ten, rounds, and repairs any tiny rounding drift so
the scaled pair is exactly equal-mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import sub

from .errors import (
    AllZeroError,
    DimensionMismatchError,
    EmptyGridError,
    NegativeEntryError,
    PreconditionError,
    RaggedRowsError,
    ResidueTooLargeError,
)
from .grid import GridHistogram, check_pair
from .wd1d import prefix_work

# Not called here; perfbench/tracing.py rebinds these names on this module.
from .grid import rotate90  # noqa: F401
from .grid import total_mass  # noqa: F401
from .grid import transpose  # noqa: F401
from .wd1d import wd_1d  # noqa: F401


@dataclass(frozen=True)
class QmwdBreakdown:
    """All intermediate quantities behind one quasi-distance value.

    ``wd_row``, ``wd_rot``, ``wd_transp`` are the raw 1D distances over the
    row-major, rotated, and transposed vectorizations; each ``est_*`` is the
    corresponding grid-consistent estimate; ``qmwd`` is their maximum.
    """

    wd_row: int
    wd_rot: int
    wd_transp: int
    est_row: int
    est_rot: int
    est_transp: int
    qmwd: int


def directional_estimate(work: int, row_length: int) -> int:
    """Reinterpret 1D work as row hops plus leftover cell hops."""
    return work // row_length + work % row_length


def qmwd(p: GridHistogram, q: GridHistogram) -> QmwdBreakdown:
    """Quasi Manhattan Wasserstein distance with its full breakdown.

    Requires identical shapes and equal total mass; a pair of all-zero
    grids is allowed and yields an all-zero breakdown.
    """
    check_pair(p, q)
    d = tuple(map(sub, p.cells, q.cells))
    # The transposed grid's row-major vectorization is the columns in order;
    # the quarter-turned grid's is the same columns in reverse order.
    cols = p.cols
    d_cols = [d[j::cols] for j in range(cols)]
    wd_row = prefix_work(d)
    wd_rot = prefix_work(chain.from_iterable(reversed(d_cols)))
    wd_transp = prefix_work(chain.from_iterable(d_cols))
    # Row-major rows have length cols; the rotated and transposed grids are
    # cols x rows, so their rows have length rows.
    est_row = directional_estimate(wd_row, cols)
    est_rot = directional_estimate(wd_rot, p.rows)
    est_transp = directional_estimate(wd_transp, p.rows)
    return QmwdBreakdown(
        wd_row=wd_row,
        wd_rot=wd_rot,
        wd_transp=wd_transp,
        est_row=est_row,
        est_rot=est_rot,
        est_transp=est_transp,
        qmwd=max(est_row, est_rot, est_transp),
    )


def normalize_pair(
    p_rows: list[list[float]], q_rows: list[list[float]], digits: int = 0
) -> tuple[GridHistogram, GridHistogram, int]:
    """Convert a pair of real-valued grids to integer grids of equal mass.

    Every cell is multiplied by 10**digits and rounded to the nearest
    integer (ties to even). Rounding can leave the two totals slightly
    apart; the difference is added to the largest cell of the lighter grid
    (first in row-major order on ties). Returns both integer grids plus the
    scale factor used. Raises, checking in this order: PreconditionError
    for digits that is not an int, then for digits < 0; per grid, first
    then second, EmptyGridError, then per row RaggedRowsError and per cell
    PreconditionError (not a number), NegativeEntryError or
    PreconditionError (NaN, infinite or too large once scaled), then
    AllZeroError if every scaled cell is 0; DimensionMismatchError;
    ResidueTooLargeError for a residue above 1% of the larger total rather
    than distorting the data.
    """
    if type(digits) is not int:
        raise PreconditionError(f"digits must be an int, got {digits!r}")
    if digits < 0:
        raise PreconditionError(f"digits must be >= 0, got {digits}")
    scale = 10**digits

    def scaled(rows: list[list[float]], label: str) -> tuple[int, int, list[int]]:
        if not rows or not rows[0]:
            raise EmptyGridError(f"{label} grid is empty")
        cols = len(rows[0])
        cells: list[int] = []
        for i, row in enumerate(rows):
            if len(row) != cols:
                raise RaggedRowsError(
                    f"{label} grid row {i} has {len(row)} entries, expected {cols}"
                )
            for j, v in enumerate(row):
                try:
                    negative = v < 0
                except TypeError:  # a str, None or other value with no order
                    raise PreconditionError(
                        f"{label} grid cell ({i}, {j}) is not a number: {v!r}"
                    ) from None
                if negative:
                    raise NegativeEntryError(f"{label} grid has a negative cell {v!r}")
                try:
                    x = float(v) * scale
                except OverflowError:  # an int or a scale beyond the float range
                    x = math.inf
                if not math.isfinite(x):
                    raise PreconditionError(
                        f"{label} grid cell ({i}, {j}) is NaN, infinite or too large"
                        f" to scale by 10**{digits}"
                    )
                cells.append(round(x))
        if not any(cells):
            raise AllZeroError(
                f"{label} grid scales to zero mass by 10**{digits}; increase digits"
            )
        return len(rows), cols, cells

    mp, np_, cp = scaled(p_rows, "first")
    mq, nq, cq = scaled(q_rows, "second")
    if (mp, np_) != (mq, nq):
        raise DimensionMismatchError(f"grids are {mp}x{np_} vs {mq}x{nq}")
    tp, tq = sum(cp), sum(cq)
    residue = abs(tp - tq)
    if 100 * residue > max(tp, tq):
        raise ResidueTooLargeError(
            f"rounding residue {residue} exceeds 1% of total mass {max(tp, tq)}"
        )
    if residue:
        lighter = cp if tp < tq else cq
        lighter[lighter.index(max(lighter))] += residue
    return GridHistogram(mp, np_, tuple(cp)), GridHistogram(mq, nq, tuple(cq)), scale
