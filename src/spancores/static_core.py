"""Classic k-core peeling on a materialized (vertex set, edge set) pair.

This is the inner subroutine of every decomposition and search algorithm in
the package: bucketed peeling in linear time.  Ties between equal degrees
fall to the vertex set's iteration order, which can change the peel order
but never a coreness.  Its one product is the plain ``{vertex: coreness}``
dict, keyed in the vertex set's order, which holds every core of the graph
at once; callers cut the cores they need from it.  All functions are pure
and safe to call concurrently.
"""

from __future__ import annotations

from typing import Collection, Iterable

from .graph import Edge


def _build_adjacency(vertices: Collection[int], edges: Iterable[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {u: [] for u in vertices}
    try:
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
    except KeyError:
        raise ValueError(f"edge ({u},{v}) has an endpoint outside the vertex set") from None
    return adj


def _peel(adj: dict[int, list[int]]) -> dict[int, int]:
    """Bucketed peeling; returns the coreness of every vertex in ``adj``."""
    n = len(adj)
    if n == 0:
        return {}
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    max_degree = max(degree.values())

    # counting sort by degree, stable in the vertex set's order
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
    for u in adj:
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


def core_decomposition(vertices: Collection[int], edges: Iterable[Edge]) -> dict[int, int]:
    """``{vertex: coreness}`` for every vertex; linear in ``|vertices| + |edges|``.

    The k-core is the set of vertices with coreness at least ``k``.
    Vertices with no incident edges get coreness 0.  Raises ``ValueError``
    for edges with endpoints outside ``vertices``.
    """
    return _peel(_build_adjacency(vertices, edges))
