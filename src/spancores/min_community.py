"""Shrink a community to a small subgraph that keeps the optimal minimum degree.

Finding the smallest such subgraph is NP-hard, so a greedy grows the answer
from the query vertices, repeatedly admitting the most promising candidate
from a priority queue until the minimum-degree target is met.  A candidate's
priority is the number of already-selected neighbors it would help toward the
target, minus how far the candidate itself still is from it.
"""

from __future__ import annotations

import heapq
from typing import Collection

from .graph import Interval, TemporalGraph, _build_adjacency

_INF = float("inf")


def _score(adj: dict[int, list[int]], selected: set[int],
           selected_degree: dict[int, int], candidate: int, target: int) -> int:
    gain = sum(1 for w in adj[candidate]
               if w in selected and selected_degree[w] < target)
    deficit = max(0, target - selected_degree[candidate])
    return gain - deficit


def greedy_minimum_community(g: TemporalGraph, query: Collection[int],
                             interval: Interval, universe: Collection[int],
                             target: int) -> set[int]:
    """Grow a subset of ``universe`` containing ``query`` whose minimum degree
    under the interval reaches ``target``.

    ``universe`` must itself satisfy the target (it is the highest-order core
    containing the query), which guarantees termination; the output can be no
    larger than ``universe`` but is usually far smaller.  A target of 0 is
    satisfied by the query vertices alone.
    """
    query_set = set(query)
    universe_set = set(universe)
    if not query_set <= universe_set:
        raise ValueError("query vertices must lie inside the candidate universe")
    if target == 0:
        return set(query_set)
    if not query_set:
        raise ValueError("a positive degree target needs at least one query vertex")

    adj = _build_adjacency(universe_set, [(u, v) for u, v in g.interval_edges(interval)
                                          if u in universe_set and v in universe_set])
    selected: set[int] = set()
    selected_degree = {u: 0 for u in universe_set}
    priority: dict[int, float] = {}  # the queued vertices' current scores
    heap: list[tuple[float, int, int]] = []

    def push(v: int, score: float) -> None:
        priority[v] = score
        # ties: higher degree toward the selected set first, then lower index
        heapq.heappush(heap, (-score, -selected_degree[v], v))

    for q in sorted(query_set):
        push(q, _INF)

    deficient = 0
    missing_query = len(query_set)
    while deficient > 0 or missing_query > 0:
        u = None
        while heap:
            neg_score, _, v = heapq.heappop(heap)
            if priority.get(v) == -neg_score:
                u = v
                break
        if u is None:
            raise RuntimeError("internal: queue exhausted before the degree target was met")
        del priority[u]

        selected.add(u)
        if u in query_set:
            missing_query -= 1
        if selected_degree[u] < target:
            deficient += 1
        saturated = []
        for w in adj[u]:
            selected_degree[w] += 1
            if w in selected and selected_degree[w] == target:
                deficient -= 1
                saturated.append(w)

        for v in adj[u]:
            if v not in selected and v not in priority:
                push(v, _score(adj, selected, selected_degree, v, target))

        # a neighbor that just reached the target no longer benefits from
        # additions, so its queued neighbors lose one point of gain
        for w in saturated:
            for x in adj[w]:
                if x in priority:
                    push(x, priority[x] - 1)

    return selected
