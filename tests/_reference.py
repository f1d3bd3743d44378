"""Brute-force references for the library's distances and plans, written
apart from it so that a fault in the library cannot change both sides of
a check.

- ``assignment_distance``: the exact Manhattan EMD of two small grids, by
  unit expansion and an exact assignment search.
- ``sorted_units_distance``: the exact 1D distance of two small vectors, by
  unit expansion and sorted pairing.
- ``plan_is_optimal``: an optimality certificate for a transport plan. A
  feasible plan is optimal exactly when its residual graph has no cycle of
  negative cost (Ahuja, Magnanti & Orlin, *Network Flows*, Thm 9.1). The
  graph's nodes are the cells of p's and q's support. Every cell holding
  mass in p has a forward arc to every cell holding mass in q at their
  Manhattan distance (uncapacitated), and every plan move ``src -> dst``
  adds a backward arc ``dst -> src`` at minus that distance (one unit of
  the move can be undone). A cell in both supports is one node, which lets
  mass pass through it; under a metric cost that never lowers the optimum,
  so the certificate is the same.

Reads only ``.rows``, ``.cols`` and ``.cells`` of the grids and ``.src``,
``.dst`` and ``.amount`` of the moves, or plain sequences of ints; imports
nothing from ``gridemd``. The two distances check only their mass limit
and that the masses are equal, raising a plain ``ValueError``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

ASSIGNMENT_MASS_LIMIT = 12
SORTED_UNITS_MASS_LIMIT = 64


def _units(a: Sequence[int], b: Sequence[int], limit: int) -> tuple[list[int], list[int]]:
    """The index of every unit of mass in ``a`` and in ``b``, in index order."""
    ta, tb = sum(a), sum(b)
    if max(ta, tb) > limit:
        raise ValueError(f"reference limited to mass {limit}, got {max(ta, tb)}")
    if ta != tb:
        raise ValueError(f"total masses differ: {ta} vs {tb}")
    xs, ys = ([i for i, v in enumerate(cells) for _ in range(v)] for cells in (a, b))
    return xs, ys


def assignment_distance(p: Any, q: Any) -> int:
    """Exact Manhattan EMD of two same-shape, equal-mass grids: every unit of
    p is assigned to a unit of q by a bitmask dynamic program over the
    subsets of q's units. Up to total mass ``ASSIGNMENT_MASS_LIMIT``."""
    srcs, dsts = _units(p.cells, q.cells, ASSIGNMENT_MASS_LIMIT)
    cols, n = p.cols, len(dsts)
    cost = [
        [abs(s // cols - t // cols) + abs(s % cols - t % cols) for t in dsts] for s in srcs
    ]
    # best[mask]: least cost of sending the first popcount(mask) units of p
    # to the units of q in mask.
    full = (1 << n) - 1
    best: list[int | None] = [0] + [None] * full
    for mask in range(full):
        for j, c in enumerate(cost[mask.bit_count()]):
            nxt = mask | 1 << j
            alt = best[mask] + c
            if nxt != mask and (best[nxt] is None or alt < best[nxt]):
                best[nxt] = alt
    return best[full]


def sorted_units_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Exact 1D distance of two equal-mass vectors on positions 0, 1, ...:
    the k-th unit of a goes to the k-th unit of b, which is optimal for a
    convex cost on a line. Up to total mass ``SORTED_UNITS_MASS_LIMIT``."""
    xs, ys = _units(a, b, SORTED_UNITS_MASS_LIMIT)
    return sum(abs(x - y) for x, y in zip(xs, ys))


def residual_arcs(p: Any, q: Any, plan: Iterable[Any]) -> list[tuple[int, int, int]]:
    """``(from, to, cost)`` for every arc of the plan's residual graph, the
    cells as flat row-major indices."""
    cols = p.cols

    def cost(a: int, b: int) -> int:
        return abs(a // cols - b // cols) + abs(a % cols - b % cols)

    srcs = [i for i, v in enumerate(p.cells) if v > 0]
    dsts = [i for i, v in enumerate(q.cells) if v > 0]
    arcs = [(s, t, cost(s, t)) for s in srcs for t in dsts]
    for mv in plan:
        if mv.amount > 0:
            s, t = mv.src[0] * cols + mv.src[1], mv.dst[0] * cols + mv.dst[1]
            arcs.append((t, s, -cost(s, t)))
    return arcs


def has_negative_cycle(arcs: list[tuple[int, int, int]]) -> bool:
    """Bellman-Ford from a virtual root joined to every node at cost 0: a
    relaxation still possible after one round per node, the root included,
    means a negative cycle."""
    dist = dict.fromkeys((node for s, t, _ in arcs for node in (s, t)), 0)
    for _ in range(len(dist) + 1):
        changed = False
        for s, t, c in arcs:
            alt = dist[s] + c
            if alt < dist[t]:
                dist[t] = alt
                changed = True
        if not changed:
            return False
    return True


def plan_is_optimal(p: Any, q: Any, plan: Iterable[Any]) -> bool:
    """True when no negative residual cycle exists; the empty graph of an
    all-zero pair counts as optimal. Feasibility (the plan's marginals) is
    the caller's check."""
    return not has_negative_cycle(residual_arcs(p, q, plan))
