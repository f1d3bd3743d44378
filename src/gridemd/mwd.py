"""Exact earth mover's distance between equal-mass grids under Manhattan cost.

Mass common to both grids stays where it is at zero cost. After the shape
check, the support, the cells where either grid holds mass, is found by two
``compress`` calls over a shared tuple of cell indices, and every move is
built from it: the common mass ``min(p, q)`` as src == dst moves, so the
plan's marginals always match the full input grids, and the moves the solve
ships. Only the difference ``p - q`` enters the solve, as two support lists:
the surplus cells, where it is positive, and the deficit cells, where it is
negative, each as (flat index, amount) in row-major order. Both grids are 0
off the support, so total surplus minus total deficit is ``total(p) -
total(q)``, and the mass check reads it there instead of summing the grids.
The distance is the plan's cost.

Two exact engines take those lists and the grid's shape, so no N-cell
difference vector is built; ``mwd_exact`` picks one by the input's shape
alone. With S surplus and D deficit cells among N:

- ``S * D > GRID_ENGINE_RATIO * N`` (dense): ``_solve_grid``, a primal-dual
  min-cost flow on the 4-neighbour grid graph, whose O(N) unit-cost edges
  carry the Manhattan cost (EMD-L1, Ling & Okada 2007). The graph is never
  built: a cell's neighbours and edges are arithmetic on its index in a
  row-padded layout. Each round's Dijkstra, on Dial's bucket queue (CACM
  1969), grows a shortest-path forest from the cells with surplus left,
  and flow is pushed along it;
- otherwise (sparse): ``_solve_transport``, single-source shortest
  augmenting paths, started from a column reduction, on the bipartite
  surplus x deficit graph, whose S * D arcs each cost the Manhattan
  distance of their ends.

Integer supplies make both problems' optima integral, so the distance and
every plan amount are exact ints. Both engines give the same distance; when
several plans are optimal they may return different ones.

Both engines stay because neither is fast on the other's inputs: on 128x128
grids of 32 point masses of 100 the grid engine's solve takes 26-70 ms
(median 35, best of 3 calls) and the bipartite one's 0.40-0.93 ms (median
0.67, best of 5) on the same 16 pairs, while on 12x12 grids with cells
0..9 the grid engine is 2.9-8.4x faster (median 5.3x, 32 pairs, best of 3;
2-vCPU Xeon host).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple

from .grid import GridHistogram, check_mass, check_shape

# Not called here; perfbench/tracing.py rebinds this name on this module.
from .grid import total_mass  # noqa: F401

Cell = tuple[int, int]
# (flat index, amount) per surplus or deficit cell, in row-major order.
Support = list[tuple[int, int]]

# The grid engine runs when surplus cells x deficit cells exceeds this many
# times the cell count. Measured crossovers (both engines' solves on the same
# pairs, best of 3 each, medians of bipartite time / grid time by ratio): on
# 111 uniform 7x7 to 14x14 grids with cells 0..1 to 0..3, 0.81 at ratios 3-4,
# 0.91 at 4-5, 1.13 at 5-6 and 1.15-1.74 at 6-10; on 117 24x24 to 64x64
# grids of uneven point masses, 0.90 at 3-4, 1.00 at 4-5, 1.30 at 5-6 and
# 1.66-2.71 at 6-10. The point masses break even one ratio lower than the
# uniform grids, which keep 5. On 12x12 grids with cells 0..9 (ratios
# 27-33) the grid engine is 5.3x faster.
GRID_ENGINE_RATIO = 5

# 0, 1, ..., N - 1 for the largest grid seen so far; see ``mwd_exact``.
_index: tuple[int, ...] = ()


class Move(NamedTuple):
    """``amount`` units moved from cell ``src`` to cell ``dst``."""

    src: Cell
    dst: Cell
    amount: int


@dataclass(frozen=True, slots=True)
class MwdResult:
    """Optimal distance plus one optimal transport plan attaining it, its
    moves listed by ``src``, then ``dst``, in row-major order."""

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

    The engine follows from the input: with S surplus and D deficit cells
    among N, ``_solve_grid`` runs when ``S * D > GRID_ENGINE_RATIO * N`` and
    ``_solve_transport`` otherwise. Both are exact, so the choice changes
    the time taken and possibly which optimal plan is returned, never the
    distance.

    The shape is checked first (DimensionMismatchError), then the mass
    (MassMismatchError). Two ``compress`` calls over the module's index
    tuple ``0, 1, ..., N-1`` find the pair's support, and one loop over it
    builds the stay-put moves and the surplus and deficit lists, whose
    totals give the mass check, so no full grid is summed unless the masses
    differ. Either engine takes those two lists and the shape, and the
    shipped moves are built from the support too. The distance is the
    plan's cost, summed over the shipped moves alone, since stay-put moves
    cost 0.
    The tuple is built on the first call and rebuilt only for a larger grid,
    and it stays alive: about 40 B per cell of the largest grid seen, 0.62
    MiB after a 128x128 call (tracemalloc).
    """
    global _index
    check_shape(p, q)
    pc, qc, cols = p.cells, q.cells, p.cols
    index = _index  # one read, so a concurrent call cannot shorten it
    if len(index) < len(pc):
        index = _index = tuple(range(len(pc)))
    # One (row, col) tuple per cell where either grid holds mass, shared by
    # that cell's stay-put move and every move it ships along.
    cell: dict[int, Cell] = {}
    sup: Support = []
    dem: Support = []
    moves: list[Move] = []
    for i in sorted({*compress(index, pc), *compress(index, qc)}):
        c = cell[i] = divmod(i, cols)
        a, b = pc[i], qc[i]
        if a != b:
            (sup if a > b else dem).append((i, abs(a - b)))
        if k := min(a, b):
            moves.append(Move(c, c, k))
    # Off the support both grids are 0, so this is total(p) - total(q).
    check_mass(p, q, sum(v for _, v in sup) - sum(v for _, v in dem))

    dense = len(sup) * len(dem) > GRID_ENGINE_RATIO * len(pc)
    shipped = (_solve_grid if dense else _solve_transport)(sup, dem, p.rows, cols)

    distance = 0  # stay-put moves cost 0
    for (s, t), amt in shipped.items():
        a, b = cell[s], cell[t]
        distance += amt * (abs(a[0] - b[0]) + abs(a[1] - b[1]))
        moves.append(Move(a, b, amt))
    moves.sort()  # each (src, dst) occurs once, so amounts are never compared
    return MwdResult(distance, tuple(moves))


def _solve_transport(sup: Support, dem: Support, rows: int, cols: int) -> dict[tuple[int, int], int]:
    """Min-cost balanced transportation by single-source shortest augmenting
    paths (Jonker & Volgenant 1987; Ahuja, Magnanti & Orlin, *Network
    Flows*, 9.7): the sparse engine of ``mwd_exact``.

    ``sup`` and ``dem`` list the surplus and deficit cells of a ``rows`` x
    ``cols`` grid as (flat index, amount) in row-major order; a cell's
    (row, col) is ``divmod(index, cols)``. Every surplus-deficit arc exists
    with unlimited capacity and costs the Manhattan distance of its ends.
    Returns the shipped amounts as ``{(source, sink): amount}`` with flat
    cell indices.

    Sources and sinks carry potentials, and the reduced cost ``cost + source
    potential - sink potential`` of every arc stays nonnegative; it is 0 on
    every arc carrying flow, since that flow can also be cancelled.

    The solve starts from a column reduction (Jonker & Volgenant's start):
    each sink's potential is its least cost over all sources, every source's
    is 0, so every reduced cost is nonnegative and each sink has a tight arc
    from the first source, in row-major order, at that least cost. That
    source ships ``min(its supply left, the sink's demand)`` along it.

    Phases then serve the supply left. Each phase serves the first source
    in row-major order that still has supply, its root. Sink distances start
    from the root's reduced-cost row; the phase then settles the open sink
    of least distance until it settles one with demand left, the target. A
    settled sink reaches the sources that ship to it at its own distance,
    and each source so reached relaxes its row once. Potentials change by
    ``distance - target distance`` on the nodes the phase reached, which
    keeps the invariant. The path from root to target alternates shipping
    and cancelling flow, and carries ``min(root supply, target demand, each
    flow it cancels)``.

    The next sink is ``dist.index(min(dist))``, two C-speed scans; a settled
    sink's distance moves to ``settled`` and its ``dist`` entry becomes
    ``far``, more than any distance in the phase, so ties settle the lower
    sink index first.
    """
    src = [divmod(i, cols) for i, _ in sup]
    dst = [divmod(i, cols) for i, _ in dem]
    cost_rows = [[abs(si - di) + abs(sj - dj) for di, dj in dst] for si, sj in src]
    supply = [a for _, a in sup]
    demand = [a for _, a in dem]
    pot_s = [0] * len(sup)
    pot_t = []
    flow_by_d: list[dict[int, int]] = [{} for _ in dem]

    for k, col in enumerate(zip(*cost_rows)):
        least = min(col)
        pot_t.append(least)
        s = col.index(least)
        amt = min(supply[s], demand[k])
        if amt:
            flow_by_d[k][s] = amt
            supply[s] -= amt
            demand[k] -= amt

    # Only a phase's own root loses supply: every other source on its path
    # ships as much as it cancels. Totals are equal, so while the root has
    # supply some sink has demand, and every sink is one arc from the root.
    for root in range(len(sup)):
        while supply[root]:
            pr = pot_s[root]
            dist = [c + pr - pt for c, pt in zip(cost_rows[root], pot_t)]
            far = max(dist) + 1  # distances only fall during a phase
            via = [root] * len(dem)  # source before each sink on its path
            reached = {root: 0}  # source -> its distance
            back: dict[int, int] = {}  # source -> the sink that reached it
            open_sinks = list(range(len(dem)))
            settled = []  # (sink, its distance)
            while True:
                du = min(dist)
                k = dist.index(du)
                if demand[k]:
                    break
                dist[k] = far
                open_sinks.remove(k)
                settled.append((k, du))
                for s in flow_by_d[k]:
                    if s in reached:
                        continue
                    reached[s] = du
                    back[s] = k
                    base = du + pot_s[s]
                    row = cost_rows[s]
                    for j in open_sinks:
                        alt = base + row[j] - pot_t[j]
                        if alt < dist[j]:
                            dist[j] = alt
                            via[j] = s
            for j, dj in settled:
                pot_t[j] += dj - du
            for s, ds in reached.items():
                pot_s[s] += ds - du

            # Walk back from the target: each source before the root was
            # reached by cancelling its flow to the sink ``back[s]``.
            target, s = k, via[k]
            ships = [(s, target)]
            cancels = []
            while s != root:
                k = back[s]
                cancels.append((s, k))
                s = via[k]
                ships.append((s, k))
            delta = min(supply[root], demand[target], *(flow_by_d[k][s] for s, k in cancels))
            for s, k in ships:
                flow_by_d[k][s] = flow_by_d[k].get(s, 0) + delta
            for s, k in cancels:
                f = flow_by_d[k][s] - delta
                if f:
                    flow_by_d[k][s] = f
                else:
                    del flow_by_d[k][s]
            supply[root] -= delta
            demand[target] -= delta

    return {
        (sup[s][0], dem[k][0]): amt
        for k, flows in enumerate(flow_by_d)
        for s, amt in flows.items()
    }


def _solve_grid(sup: Support, dem: Support, rows: int, cols: int) -> dict[tuple[int, int], int]:
    """Min-cost flow from the surplus to the deficit cells of a ``rows`` x
    ``cols`` grid on its grid graph, by primal-dual rounds: the dense engine
    of ``mwd_exact``. ``sup`` and ``dem`` list those cells as (flat index,
    amount) in row-major order, as for ``_solve_transport``; every other
    cell starts with excess 0.

    Every cell is a node and every pair of 4-neighbours is joined by an
    edge of unlimited capacity that costs 1 per unit either way, so a
    flow's cost is its Manhattan work. A step against an edge's flow costs
    -1, since it cancels flow, and may push at most the flow it cancels;
    any other step costs 1.

    No graph is built: a cell's neighbours and edges are arithmetic on its
    index. The cells are laid out as ``rows + 1`` rows of ``W = cols + 2 -
    cols % 2`` slots, cell (r, c), of flat index ``i = r * cols + c``, at
    slot ``r * W + c = i + i // cols * (W - cols)``. W is even and greater
    than cols, which leaves one or two sentinel slots at the end of each
    row, and the last row is all sentinels. The neighbours of slot u are
    ``u - 1``, ``u + 1``, ``u - W`` and ``u + W``. From row 0, ``u - W`` is
    negative, and Python's indexing wraps it into the sentinel row; from
    column 0, ``u - 1`` is the last slot of the row before (of the
    sentinel row, from slot 0). Every sentinel's ``dist`` is -1 in every
    round, copied from one template list, so the search's first test,
    ``dist[w] > du``, turns a sentinel away before anything else is read,
    and a sentinel is never settled or pushed. No sentinel's potential is
    read either, so ``pot`` stops before the sentinel row, and so does the
    ``zip`` that updates it.

    The edge between neighbours u and w is ``flow[u + w]``, its net flow,
    positive from the lower index to the higher. A horizontal edge's sum
    ``2a + 1`` is odd and a vertical one's ``2a + W`` is even, since W is,
    so each sum names exactly one edge. A sum that reaches a sentinel names
    no real edge, so its slot stays 0, and the ``2 * (rows + 1) * W``
    slots of ``flow`` cover every sum, a wrapped one included.

    Each round runs Dijkstra with node potentials from every cell with
    surplus left, and ``via`` records, for each cell, the cell whose step
    last lowered its distance, so the settled cells form a shortest-path
    forest rooted at those sources. A settled deficit cell is expanded like
    any other; the search stops at the one that brings the settled deficits
    up to the surplus left, at distance D. Adding ``min(dist, D)`` to each
    potential keeps every reduced cost nonnegative and makes every step of
    the forest tight (reduced cost 0). A source only ever loses surplus,
    so each round's sources are the last round's that have some left, in
    row-major order. A source is at distance 0 in every round, so no step
    ever reaches it and its ``via`` stays -1, the mark of a root; every
    other cell a round settles got its ``via`` in that round, so ``via``
    is built once, not per round.

    Then each settled deficit, in the order settled, walks ``via`` back to
    its root and pushes ``min(root surplus, its deficit, each flow the path
    cancels)`` along the path. A push along tight steps leaves every reduced
    cost nonnegative, but it can use up a cancel step that a later path of
    the same forest shares; that step then costs 1 and is no longer tight.
    So the walk re-checks each step against the current ``flow``, and a
    sink whose path is no longer tight, or whose root has no surplus left,
    waits for the next round without a push. The first sink walks back
    before anything is pushed, so every round moves at least one unit and
    the rounds end; a round that moves none raises AssertionError rather
    than repeat itself. Each push lowers ``surplus``, the total surplus
    left, and a round that stops at D = 0 leaves the potentials as they
    are, since adding 0 changes none.

    The potentials keep every residual step's reduced cost at 0, 1 or 2. A
    step across an edge without flow costs 1, and so does the step back, so
    the two reduced costs, ``1 + pot[u] - pot[w]`` and ``1 + pot[w] -
    pot[u]``, are nonnegative and sum to 2. Across an edge that carries
    flow, the step along the flow costs 1 and the step back -1; both
    reduced costs are nonnegative and sum to 0, so both are 0 and
    ``pot[w] = pot[u] + 1`` along the flow. So a step is tight exactly when
    its edge carries flow or ``pot[w] == pot[u] + 1``, and neither the
    search nor the walk needs the flow's direction to price a step. A
    shortest path has at most n - 1 steps, so every distance is below 2n,
    the int that marks a cell not reached yet.

    Reduced distances are small nonnegative ints, so Dijkstra keeps its
    queue as Dial's buckets (CACM 1969), one list per distance, read in
    order; an entry whose cell has since got a shorter distance is skipped.
    A cell settled at distance du relaxes to at most du + 2, so the list
    grows to du + 3 buckets once per level that holds entries.
    D and the potentials do not depend on the order of ties; the plan may.
    The four neighbour checks are written out one after another, left,
    right, up, down: at 12x12 with cells 0..9, a loop over ``(u - 1, u +
    1, u - W, u + W)`` ran 0.87-0.88x as fast, and one over a tuple of
    offsets 0.88x (medians of 30 pairs, best of 6 calls each).

    Every step costs at least 1, so an optimal flow has no cycle and splits
    into source-to-sink paths; a path is never longer than the Manhattan
    distance of its ends, or rerouting it would be cheaper. The split
    starts from each source in row-major order, and leaves each cell by its
    first step, in the same neighbour order, that still carries flow out;
    along that step the flow's sign gives its direction, so a path holds
    only the edges it crosses. Every path of the flow is a shortest one, so
    a walk that takes more than ``rows + cols`` steps, or reaches a cell
    short of a sink with no flow out, raises AssertionError where a fault
    would otherwise loop. Returns the split as ``{(source, sink): amount}``
    with flat cell indices: a source's is read from ``sup``, and a sink's
    slot u maps back to ``u - u // W * (W - cols)``. Every list is built
    per call from the support lists alone, without a pass over all the
    cells, and nothing is kept between calls.
    """
    W = cols + 2 - cols % 2
    size = (rows + 1) * W
    exc = [0] * size
    roots = sources = [i + i // cols * (W - cols) for i, _ in sup]
    for u, (_, a) in zip(roots, sup):
        exc[u] = a
    for i, a in dem:
        exc[i + i // cols * (W - cols)] = -a
    rest = exc[:]
    flow = [0] * (2 * size)
    surplus = sum(a for _, a in sup)
    # Real cells start each round at 2n, more than any distance.
    blank = ([2 * rows * cols] * cols + [-1] * (W - cols)) * rows + [-1] * W
    pot, via = [0] * (rows * W), [-1] * size

    while surplus:
        left, sinks = surplus, []
        dist = blank[:]
        for u in sources:
            dist[u] = 0
        # buckets[k] holds the cells whose distance fell to k; zero-cost steps
        # append to the bucket being read.
        buckets = [sources[:]]
        for du, bucket in enumerate(buckets):
            if bucket:
                while len(buckets) < du + 3:
                    buckets.append([])
            for u in bucket:
                if dist[u] != du:
                    continue
                if exc[u] < 0:
                    sinks.append(u)
                    left += exc[u]
                    if left <= 0:
                        break
                base = du + 1 + pot[u]
                # Reduced costs are >= 0, so no step lowers a cell at <= du,
                # and a step across an edge with flow is tight: alt = du.
                if (dw := dist[w := u - 1]) > du:
                    if flow[u + w]:
                        dist[w], via[w] = du, u
                        bucket.append(w)
                    elif (alt := base - pot[w]) < dw:
                        dist[w], via[w] = alt, u
                        buckets[alt].append(w)
                if (dw := dist[w := u + 1]) > du:
                    if flow[u + w]:
                        dist[w], via[w] = du, u
                        bucket.append(w)
                    elif (alt := base - pot[w]) < dw:
                        dist[w], via[w] = alt, u
                        buckets[alt].append(w)
                if (dw := dist[w := u - W]) > du:
                    if flow[u + w]:
                        dist[w], via[w] = du, u
                        bucket.append(w)
                    elif (alt := base - pot[w]) < dw:
                        dist[w], via[w] = alt, u
                        buckets[alt].append(w)
                if (dw := dist[w := u + W]) > du:
                    if flow[u + w]:
                        dist[w], via[w] = du, u
                        bucket.append(w)
                    elif (alt := base - pot[w]) < dw:
                        dist[w], via[w] = alt, u
                        buckets[alt].append(w)
            if left <= 0:
                break  # the deficits settled so far take every surplus: D = du
        else:
            raise AssertionError("balanced flow instance became infeasible")
        if du:
            pot = [p + (x if x < du else du) for p, x in zip(pot, dist)]

        before = surplus
        for t in sinks:
            # The path's edges, each as ~e (< 0) where the step runs from the
            # higher index to the lower, against the edge's positive flow.
            path, w = [], t
            while (u := via[w]) >= 0 and (flow[u + w] or pot[w] == pot[u] + 1):
                path.append(u + w if u < w else ~(u + w))
                w = u
            if u >= 0 or not exc[w]:
                # An earlier push this round used up a cancel step of the path,
                # or the root w has no surplus left.
                continue
            cancelled = (b for e in path if (b := flow[~e] if e < 0 else -flow[e]) > 0)
            delta = min(exc[w], -exc[t], *cancelled)
            for e in path:
                if e < 0:
                    flow[~e] -= delta
                else:
                    flow[e] += delta
            exc[w] -= delta
            exc[t] += delta
            surplus -= delta
        if surplus == before:
            raise AssertionError("a round pushed no flow")
        sources = [u for u in sources if exc[u] > 0]

    shipped: dict[tuple[int, int], int] = {}
    for s, (src, _) in zip(roots, sup):
        while rest[s] > 0:
            u, amt, path = s, rest[s], []
            while rest[u] >= 0:
                # Leave u by the first of its steps, left, right, up, down,
                # that carries flow out of it: f, the flow along the step.
                if len(path) > rows + cols or (
                    (f := -flow[e := 2 * u - 1]) <= 0
                    and (f := flow[e := 2 * u + 1]) <= 0
                    and (f := -flow[e := 2 * u - W]) <= 0
                    and (f := flow[e := 2 * u + W]) <= 0
                ):
                    raise AssertionError("no flow path from a source reaches a sink")
                path.append(e)
                u = e - u
                if f < amt:
                    amt = f
            amt = min(amt, -rest[u])
            for e in path:  # amt is at most |flow[e]|, so no flow changes sign
                flow[e] -= amt if flow[e] > 0 else -amt
            rest[s] -= amt
            rest[u] += amt
            key = src, u - u // W * (W - cols)  # slot u holds this cell
            shipped[key] = shipped.get(key, 0) + amt
    return shipped
