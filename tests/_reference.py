"""Optimality certificate for transport plans, independent of the solvers.

A feasible plan is optimal exactly when its residual graph has no cycle of
negative cost (Ahuja, Magnanti & Orlin, *Network Flows*, Thm 9.1). The
graph's nodes are the cells of p's and q's support. Every cell holding
mass in p has a forward arc to every cell holding mass in q at their
Manhattan distance (uncapacitated), and every plan move ``src -> dst`` adds
a backward arc ``dst -> src`` at minus that distance (one unit of the move
can be undone). A cell in both supports is one node, which lets mass pass
through it; under a metric cost that never lowers the optimum, so the
certificate is the same.

Reads only ``.rows``, ``.cols`` and ``.cells`` of the grids and ``.src``,
``.dst`` and ``.amount`` of the moves; imports nothing from ``gridemd``.
"""

from __future__ import annotations

from typing import Any, Iterable


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
