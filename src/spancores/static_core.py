"""Classic k-core peeling on a materialized (vertex set, edge set) pair.

This is the inner subroutine of every decomposition and search algorithm in
the package: bucketed peeling in linear time, with deterministic tie-breaking
(lowest vertex index first among equal minimum degrees).  All functions are
pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .graph import Edge


@dataclass(frozen=True)
class CoreLabeling:
    """Per-vertex coreness plus the highest order with a nonempty core."""

    coreness: dict[int, int]
    k_max: int

    def core(self, k: int) -> set[int]:
        """The k-core: all vertices with coreness at least ``k``."""
        return {u for u, c in self.coreness.items() if c >= k}


def _build_adjacency(vertices: Collection[int], edges: Iterable[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {u: [] for u in vertices}
    for u, v in edges:
        if u not in adj or v not in adj:
            raise ValueError(f"edge ({u},{v}) has an endpoint outside the vertex set")
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _peel(adj: dict[int, list[int]]) -> dict[int, int]:
    """Bucketed peeling; returns the coreness of every vertex in ``adj``."""
    n = len(adj)
    if n == 0:
        return {}
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    max_degree = max(degree.values())

    # counting sort by (degree, vertex index)
    counts = [0] * (max_degree + 1)
    for d in degree.values():
        counts[d] += 1
    bin_start = [0] * (max_degree + 1)
    acc = 0
    for d in range(max_degree + 1):
        bin_start[d] = acc
        acc += counts[d]
    fill = bin_start.copy()
    order: list[int] = [0] * n
    position: dict[int, int] = {}
    for u in sorted(adj):
        p = fill[degree[u]]
        order[p] = u
        position[u] = p
        fill[degree[u]] += 1

    # degree[] degrades into the coreness labeling as vertices are peeled off
    for i in range(n):
        v = order[i]
        dv = degree[v]
        for u in adj[v]:
            du = degree[u]
            if du > dv:
                pu = position[u]
                pw = bin_start[du]
                w = order[pw]
                if u != w:
                    order[pu] = w
                    order[pw] = u
                    position[u] = pw
                    position[w] = pu
                bin_start[du] += 1
                degree[u] = du - 1
    return degree


def core_decomposition(vertices: Collection[int], edges: Iterable[Edge]) -> CoreLabeling:
    """Coreness of every vertex; linear in ``|vertices| + |edges|``.

    Vertices with no incident edges get coreness 0.  Raises ``ValueError``
    for edges with endpoints outside ``vertices``.
    """
    coreness = _peel(_build_adjacency(vertices, edges))
    k_max = max(coreness.values(), default=0)
    return CoreLabeling(coreness=coreness, k_max=k_max)


def query_constrained_decomposition(vertices: Collection[int], edges: Iterable[Edge],
                                    query: Collection[int]) -> tuple[int, set[int]]:
    """Highest order whose core still contains every query vertex, and that core.

    An empty query yields the unconstrained innermost core.  When even the
    1-core excludes some query vertex the order is 0 and the full vertex set
    is returned as the sentinel core.
    """
    vertex_set = set(vertices)
    missing = [q for q in query if q not in vertex_set]
    if missing:
        raise ValueError(f"query vertices {sorted(missing)} outside the vertex set")
    labeling = core_decomposition(vertex_set, edges)
    if query:
        order = min(labeling.coreness[q] for q in query)
    else:
        order = labeling.k_max
    if order == 0:
        return 0, vertex_set
    return order, labeling.core(order)
