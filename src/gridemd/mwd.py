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
    cols = p.cols
    srcs: list[Cell] = []
    for idx, v in enumerate(p.cells):
        srcs.extend([divmod(idx, cols)] * v)
    dsts: list[Cell] = []
    for idx, v in enumerate(q.cells):
        dsts.extend([divmod(idx, cols)] * v)
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

    ``cost_rows[s][k]`` is the (nonnegative int) arc cost from source s to
    sink k; every source-sink arc exists with unlimited capacity. Returns
    one dict per sink mapping source index to shipped amount.

    Node ``s < ns`` is source s and node ``ns + k`` is sink k. Each round
    runs Dijkstra over the residual graph (forward arcs source -> sink at
    ``cost_rows[s][k]``, one backward arc per positive flow at minus that
    cost) from every source with supply left, stops at the first settled
    sink with demand left, augments along the shortest path, and adds
    ``min(dist, target distance)`` to each node's potential. Under these
    capped potentials every residual arc keeps a nonnegative reduced cost,
    so no settled node can be improved: a heap entry is stale exactly when
    its distance exceeds ``dist[node]``. At equal distance sources pop
    before sinks, and lower indices first.
    """
    ns = len(supplies)
    rem = supplies + demands
    pot = [0] * len(rem)
    flow_by_d: list[dict[int, int]] = [{} for _ in demands]
    remaining = sum(demands)
    inf = float("inf")

    while remaining > 0:
        dist: list[int | float] = [inf] * len(rem)
        par = [-1] * len(rem)  # predecessor node on the shortest path (-1: root)
        heap: list[tuple[int | float, int]] = []
        for s in range(ns):
            if rem[s] > 0:
                dist[s] = 0
                heap.append((0, s))  # ascending, hence already a heap
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            base = du + pot[u]
            if u < ns:
                for v, c in enumerate(cost_rows[u], ns):
                    alt = base + c - pot[v]
                    if alt < dist[v]:
                        dist[v] = alt
                        par[v] = u
                        heapq.heappush(heap, (alt, v))
            elif rem[u] > 0:
                break
            else:
                k = u - ns
                for s in flow_by_d[k]:
                    alt = base - cost_rows[s][k] - pot[s]
                    if alt < dist[s]:
                        dist[s] = alt
                        par[s] = u
                        heapq.heappush(heap, (alt, s))
        else:
            raise AssertionError("balanced transportation instance became infeasible")
        pot = [p + (d if d < du else du) for p, d in zip(pot, dist)]

        # The path alternates sink, source, ..., sink, source from the
        # target back to its root source.
        path = [u]
        while par[u] >= 0:
            u = par[u]
            path.append(u)
        srcs = path[1::2]
        sinks = [v - ns for v in path[::2]]
        target, root = path[0], srcs[-1]
        back = [flow_by_d[k][s] for s, k in zip(srcs, sinks[1:])]
        delta = min(rem[target], rem[root], *back)
        for s, k in zip(srcs, sinks):
            flow_by_d[k][s] = flow_by_d[k].get(s, 0) + delta
        for s, k in zip(srcs, sinks[1:]):
            f = flow_by_d[k][s] - delta
            if f:
                flow_by_d[k][s] = f
            else:
                del flow_by_d[k][s]
        rem[root] -= delta
        rem[target] -= delta
        remaining -= delta

    return flow_by_d
