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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .grid import GridHistogram
from .wd1d import checked_prefix_work, prefix_work

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
    grids is allowed and yields an all-zero breakdown. The shape is checked
    first, then the mass, as the last prefix sum of the row-major pass over
    the difference ``d = p - q``.
    """
    d, wd_row = checked_prefix_work(p, q)
    # The transposed grid's row-major vectorization is the columns in order;
    # the quarter-turned grid's is the same columns in reverse order.
    cols = p.cols
    d_cols = [d[j::cols] for j in range(cols)]
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
