"""Exact earth mover's distance between equal-mass grids under Manhattan cost.

The minimum is found by solving the balanced transportation problem between
surplus cells (where p exceeds q) and deficit cells (where q exceeds p) with
successive shortest augmenting paths over the bipartite residual graph,
using Dijkstra with node potentials. Integer supplies make the transportation
polytope's optima integral, so the distance and every plan amount are exact
ints.

Mass common to both grids stays where it is at zero cost. Cancelling it is
the sign split of ``d = p - q``: surplus cells are where ``d`` is positive,
deficit cells where it is negative, and only those enter the solve. The
common mass ``min(p, q)`` is reported as src == dst moves, so the returned
plan's marginals always match the full input grids.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Iterable

from .errors import MassTooLargeError
from .grid import GridHistogram, check_pair, total_mass

Cell = tuple[int, int]

ORACLE_MASS_LIMIT = 12


@dataclass(frozen=True)
class Move:
    """``amount`` units moved from cell ``src`` to cell ``dst``."""

    src: Cell
    dst: Cell
    amount: int


@dataclass(frozen=True)
class MwdResult:
    """Optimal distance plus one optimal transport plan attaining it."""

    distance: int
    plan: tuple[Move, ...]


def manhattan_cost(src: Cell, dst: Cell) -> int:
    """|row difference| + |column difference| between two cells."""
    return abs(src[0] - dst[0]) + abs(src[1] - dst[1])


def plan_cost(plan: Iterable[Move]) -> int:
    """Recompute a plan's total work: sum of amount * manhattan_cost per move."""
    return sum(mv.amount * manhattan_cost(mv.src, mv.dst) for mv in plan)


def mwd_exact(p: GridHistogram, q: GridHistogram) -> MwdResult:
    """Exact Manhattan Wasserstein distance and an optimal transport plan.

    Both grids must have identical dimensions and equal total mass. Totals
    of zero are allowed and give distance 0 with an empty plan. When several
    plans are optimal an arbitrary one is returned; only the distance and
    the marginal properties are contractual.
    """
    d = check_pair(p, q)
    cols = p.cols
    nonzero = list(compress(enumerate(d), d))
    sup = [(divmod(i, cols), v) for i, v in nonzero if v > 0]
    dem = [(divmod(i, cols), -v) for i, v in nonzero if v < 0]
    cost_rows = [
        [abs(si - di) + abs(sj - dj) for (di, dj), _ in dem]
        for (si, sj), _ in sup
    ]
    # Stay-put moves: a product of nonnegative cells is nonzero exactly
    # where both grids are positive.
    moves = [
        Move(divmod(i, cols), divmod(i, cols), min(a, b))
        for i, (a, b) in compress(
            enumerate(zip(p.cells, q.cells)), map(mul, p.cells, q.cells)
        )
    ]

    flow_by_d = _solve_transport([a for _, a in sup], [a for _, a in dem], cost_rows)

    distance = 0
    for k, flows in enumerate(flow_by_d):
        dst = dem[k][0]
        for s, amt in flows.items():
            distance += amt * cost_rows[s][k]
            moves.append(Move(sup[s][0], dst, amt))
    moves.sort(key=lambda mv: (mv.src, mv.dst))
    return MwdResult(distance, tuple(moves))


def mwd_oracle_assignment(p: GridHistogram, q: GridHistogram) -> int:
    """Brute-force reference distance via unit expansion plus exact
    assignment search (bitmask dynamic program over destination subsets).

    Feasible only up to total mass ORACLE_MASS_LIMIT.
    """
    check_pair(p, q)
    mass = total_mass(p)
    if mass > ORACLE_MASS_LIMIT:
        raise MassTooLargeError(f"oracle limited to mass {ORACLE_MASS_LIMIT}, got {mass}")
    if mass == 0:
        return 0
    cols = p.cols
    srcs: list[Cell] = []
    for idx, v in enumerate(p.cells):
        srcs.extend([(idx // cols, idx % cols)] * v)
    dsts: list[Cell] = []
    for idx, v in enumerate(q.cells):
        dsts.extend([(idx // cols, idx % cols)] * v)
    n = mass
    cost = [[manhattan_cost(s, d) for d in dsts] for s in srcs]
    full = (1 << n) - 1
    inf = float("inf")
    dp: list[int | float] = [inf] * (full + 1)
    dp[0] = 0
    for mask in range(full):
        cur = dp[mask]
        if cur is inf:
            continue
        row = cost[mask.bit_count()]  # units assigned in fixed source order
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                alt = cur + row[j]
                nm = mask | bit
                if alt < dp[nm]:
                    dp[nm] = alt
    return int(dp[full])


def _solve_transport(
    supplies: list[int], demands: list[int], cost_rows: list[list[int]]
) -> list[dict[int, int]]:
    """Min-cost balanced transportation via successive shortest paths.

    ``cost_rows[s][d]`` is the (nonnegative int) arc cost from source s to
    sink d; every source-sink arc exists with unlimited capacity. Returns
    one dict per sink mapping source index to shipped amount.

    Each round runs Dijkstra over the residual graph with node potentials
    (so reduced costs stay nonnegative), stops at the first settled sink
    with remaining demand, augments along the shortest path, and updates
    potentials capped at the target distance.
    """
    ns, nd = len(supplies), len(demands)
    rem_sup = list(supplies)
    rem_dem = list(demands)
    pot_s = [0] * ns
    pot_d = [0] * nd
    flow_by_d: list[dict[int, int]] = [{} for _ in range(nd)]
    remaining = sum(rem_dem)
    inf = float("inf")

    while remaining > 0:
        dist_s: list[int | float] = [inf] * ns
        dist_d: list[int | float] = [inf] * nd
        done_s = [False] * ns
        done_d = [False] * nd
        par_d = [-1] * nd  # source whose forward arc settled this sink
        par_s = [-1] * ns  # sink whose backward arc settled this source (-1: root)
        heap: list[tuple[int, int, int]] = []
        for s in range(ns):
            if rem_sup[s] > 0:
                dist_s[s] = 0
                heap.append((0, 0, s))
        heapq.heapify(heap)
        target = -1
        while heap:
            du, kind, u = heapq.heappop(heap)
            if kind == 0:
                if done_s[u]:
                    continue
                done_s[u] = True
                row = cost_rows[u]
                base = du + pot_s[u]
                for d in range(nd):
                    if done_d[d]:
                        continue
                    alt = base + row[d] - pot_d[d]
                    if alt < dist_d[d]:
                        dist_d[d] = alt
                        par_d[d] = u
                        heapq.heappush(heap, (alt, 1, d))
            else:
                if done_d[u]:
                    continue
                done_d[u] = True
                if rem_dem[u] > 0:
                    target = u
                    break
                base = du + pot_d[u]
                for s, f in flow_by_d[u].items():
                    if f > 0 and not done_s[s]:
                        alt = base - cost_rows[s][u] - pot_s[s]
                        if alt < dist_s[s]:
                            dist_s[s] = alt
                            par_s[s] = u
                            heapq.heappush(heap, (alt, 0, s))
        if target < 0:
            raise AssertionError("balanced transportation instance became infeasible")
        dt = dist_d[target]
        for s in range(ns):
            pot_s[s] += min(dist_s[s], dt)
        for d in range(nd):
            pot_d[d] += min(dist_d[d], dt)

        # Trace the augmenting path back to its root source.
        fwd: list[tuple[int, int]] = []
        bwd: list[tuple[int, int]] = []
        d = target
        while True:
            s = par_d[d]
            fwd.append((s, d))
            prev_d = par_s[s]
            if prev_d == -1:
                root = s
                break
            bwd.append((s, prev_d))
            d = prev_d
        delta = min(rem_sup[root], rem_dem[target])
        for s, d in bwd:
            f = flow_by_d[d][s]
            if f < delta:
                delta = f
        for s, d in fwd:
            flow_by_d[d][s] = flow_by_d[d].get(s, 0) + delta
        for s, d in bwd:
            f = flow_by_d[d][s] - delta
            if f:
                flow_by_d[d][s] = f
            else:
                del flow_by_d[d][s]
        rem_sup[root] -= delta
        rem_dem[target] -= delta
        remaining -= delta

    return flow_by_d
