"""Classic k-core peeling on a materialized (vertex set, edge set) pair.

This is the inner subroutine of every decomposition and search algorithm in
the package: peeling in linear time from one set of vertices per current
degree, with no counting sort.  Ties between equal degrees fall to set
order, which can change the peel order but never a coreness.  Its one
product is the plain ``{vertex: coreness}`` dict, keyed in the vertex set's
order, which holds every core of the graph at once; callers cut the cores
they need from it.  All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from typing import Collection, Iterable

from .graph import Edge, _build_adjacency


def _peel(adj: dict[int, list[int]]) -> dict[int, int]:
    """Bucketed peeling; returns the coreness of every vertex in ``adj``.

    ``buckets[d]`` holds the unpeeled vertices of current degree ``d``; the
    least nonempty one, ``k``, gives the next vertex.  No degree is lowered
    below ``k``, so ``k`` never falls and a peeled vertex keeps it as its
    coreness: ``degree`` degrades into the coreness labeling.
    """
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    if not degree:
        return {}
    buckets: list[set[int]] = [set() for _ in range(max(degree.values()) + 1)]
    for u, d in degree.items():
        buckets[d].add(u)
    k = 0
    for _ in range(len(degree)):
        while not buckets[k]:
            k += 1
        v = buckets[k].pop()
        for u in adj[v]:
            du = degree[u]
            if du > k:  # peeled vertices sit at or below k
                buckets[du].remove(u)
                buckets[du - 1].add(u)
                degree[u] = du - 1
    return degree


def core_decomposition(vertices: Collection[int], edges: Iterable[Edge]) -> dict[int, int]:
    """``{vertex: coreness}`` for every vertex; linear in ``|vertices| + |edges|``.

    The k-core is the set of vertices with coreness at least ``k``.
    Vertices with no incident edges get coreness 0.  Raises ``ValueError``
    for edges with endpoints outside ``vertices``.
    """
    return _peel(_build_adjacency(vertices, edges))
