"""Independent reference computations the benchmark checks outputs against.

Nothing here imports gridemd: every value is recomputed from the raw
row-major cell tuples the benchmark generated itself, so a defect in the
library cannot also hide in its own check.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Move = tuple[int, int, int, int, int]
"""(src_row, src_col, dst_row, dst_col, amount)."""


def w1(a: Sequence[int], b: Sequence[int]) -> int:
    """1D Wasserstein distance with unit spacing, by prefix sums."""
    ca = cb = work = 0
    for x, y in zip(a[:-1], b[:-1]):
        ca += x
        cb += y
        work += abs(ca - cb)
    return work


def rotated(cells: Sequence[int], rows: int, cols: int) -> list[int]:
    """Row-major order of the grid turned a quarter counterclockwise: the
    turned grid is cols x rows and its cell (r, c) is input cell (c, cols-1-r)."""
    return [cells[c * cols + cols - 1 - r] for r in range(cols) for c in range(rows)]


def transposed(cells: Sequence[int], rows: int, cols: int) -> list[int]:
    """Column-major order of the grid, i.e. row-major order of its transpose."""
    return [cells[i * cols + j] for j in range(cols) for i in range(rows)]


def quasi(p: Sequence[int], q: Sequence[int], rows: int, cols: int) -> dict[str, int]:
    """Every field of the quasi distance's breakdown, by the paper's definition:
    1D work over three vectorisations, each read as row hops plus cell hops."""
    wd_row = w1(p, q)
    wd_rot = w1(rotated(p, rows, cols), rotated(q, rows, cols))
    wd_transp = w1(transposed(p, rows, cols), transposed(q, rows, cols))
    est_row = wd_row // cols + wd_row % cols
    est_rot = wd_rot // rows + wd_rot % rows
    est_transp = wd_transp // rows + wd_transp % rows
    return {
        "wd_row": wd_row,
        "wd_rot": wd_rot,
        "wd_transp": wd_transp,
        "est_row": est_row,
        "est_rot": est_rot,
        "est_transp": est_transp,
        "qmwd": max(est_row, est_rot, est_transp),
    }


def separable_lower_bound(p: Sequence[int], q: Sequence[int], rows: int, cols: int) -> int:
    """W1(row sums) + W1(column sums): Manhattan cost splits into a row part
    and a column part, each at least the 1D distance of its marginal."""
    prow = [sum(p[i * cols : (i + 1) * cols]) for i in range(rows)]
    qrow = [sum(q[i * cols : (i + 1) * cols]) for i in range(rows)]
    pcol = [sum(p[j::cols]) for j in range(cols)]
    qcol = [sum(q[j::cols]) for j in range(cols)]
    return w1(prow, qrow) + w1(pcol, qcol)


def greedy_upper_bound(p: Sequence[int], q: Sequence[int], cols: int) -> int:
    """Cost of pairing mass units in row-major order: a feasible plan, so
    never below the optimum."""
    src = [(i, v) for i, v in enumerate(p) if v]
    dst = [(i, v) for i, v in enumerate(q) if v]
    cost = si = di = 0
    s_left = src[0][1] if src else 0
    d_left = dst[0][1] if dst else 0
    while si < len(src) and di < len(dst):
        amt = min(s_left, d_left)
        s, d = src[si][0], dst[di][0]
        cost += amt * (abs(s // cols - d // cols) + abs(s % cols - d % cols))
        s_left -= amt
        d_left -= amt
        if not s_left:
            si += 1
            s_left = src[si][1] if si < len(src) else 0
        if not d_left:
            di += 1
            d_left = dst[di][1] if di < len(dst) else 0
    return cost


def plan_problem(
    plan: Iterable[Move], distance: int, p: Sequence[int], q: Sequence[int], rows: int, cols: int
) -> str | None:
    """Why a claimed exact distance and plan cannot be right, or None.

    Checks that every move is a positive amount between cells of the grid,
    that the plan's marginals equal p and q cell by cell, that its
    recomputed cost equals ``distance``, and that ``distance`` lies between
    the separable lower bound and the greedy pairing's cost.
    """
    out = [0] * (rows * cols)
    into = [0] * (rows * cols)
    cost = 0
    for sr, sc, dr, dc, amt in plan:
        if not (isinstance(amt, int) and amt > 0):
            return f"move amount {amt!r} is not a positive integer"
        if not (0 <= sr < rows and 0 <= dr < rows and 0 <= sc < cols and 0 <= dc < cols):
            return f"move {(sr, sc, dr, dc)} leaves the {rows}x{cols} grid"
        out[sr * cols + sc] += amt
        into[dr * cols + dc] += amt
        cost += amt * (abs(sr - dr) + abs(sc - dc))
    if out != list(p):
        return "plan's source marginal differs from p"
    if into != list(q):
        return "plan's destination marginal differs from q"
    if cost != distance:
        return f"plan costs {cost}, reported distance is {distance}"
    lb = separable_lower_bound(p, q, rows, cols)
    if distance < lb:
        return f"distance {distance} below the separable lower bound {lb}"
    ub = greedy_upper_bound(p, q, cols)
    if distance > ub:
        return f"distance {distance} above the greedy pairing's cost {ub}"
    return None
