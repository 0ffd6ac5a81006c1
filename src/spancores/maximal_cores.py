"""Direct extraction of maximal span-cores.

A span-core is maximal when no other span-core dominates it on both order and
span.  The filtering baseline keeps the innermost core per interval from a
complete enumeration and discards dominated entries.  The direct scan walks
interval starts forward and ends backward, maintaining two frontiers of
innermost-core orders (one per end timestamp carried across starts, one
rolling within the current start) whose maximum is a lower bound: an interval
can only contribute a maximal core of strictly higher order.  A vertex whose
interval degree does not exceed the bound can belong to no such core, so the
peel runs only on the vertices above it, and is skipped outright when they
are too few, or share too few edges, to hold a core of order bound + 1 (or,
for a query, when some query vertex is not among them).  Each start's ends
are walked a run at a time (``TemporalGraph.edge_shrinkage``): the ends of a
run share one edge set and its cores, so only its last end is visited.
"""

from __future__ import annotations

from itertools import chain, pairwise, repeat
from typing import Collection

from .graph import Edge, Interval, ParameterError, TemporalGraph
from .span_cores import DecompositionStats, SpanCore, SpanCoreSet
from .static_core import core_decomposition


def _undominated(orders: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    """Spans of a ``{(ts, te): order}`` map whose order neither immediate
    superinterval matches or beats (a span missing from the map counts as 0).

    When orders are anti-monotone in the span, as the per-span top order of
    any span-core set is, domination by any superinterval always shows up at
    an immediate one, so these are exactly the undominated spans.
    """
    return [(ts, te) for (ts, te), k in orders.items()
            if orders.get((ts - 1, te), 0) < k and orders.get((ts, te + 1), 0) < k]


def filter_maximal(all_cores: SpanCoreSet) -> SpanCoreSet:
    """Discard every dominated core from a complete span-core set: only the
    top stored order of each undominated span survives."""
    top = all_cores.top_orders()
    return SpanCoreSet(all_cores.get(top[span], Interval(*span)) for span in _undominated(top))


def _scan_maximal(g: TemporalGraph, query_set: frozenset[int],
                  stats: DecompositionStats | None) -> list[SpanCore]:
    """Top-down maximal-core scan over the cores containing ``query_set``
    (every interval's innermost core when it is empty).

    For each start, the scan visits its runs (``TemporalGraph.edge_shrinkage``)
    from the last down, each at its last end, and adds each run's group back
    to rebuild the interval edge set, the degrees of its endpoints and the
    highest of them, ``top``.  The other ends of a run have the edge set and
    cores of its last end: each counts as an interval settled without a
    peel, and its frontier entry takes the same running maximum.  A core of
    order ``k = bound + 1`` has at least ``k + 1`` vertices of degree above
    ``bound`` and ``k(k + 1)/2`` edges between them.
    Where these vertices (the seed) cannot hold that, or miss a query vertex,
    the true order is at most ``bound = max(frontier[te], rolling)``, so it
    is left at 0 without a peel and neither frontier moves.  Nor is an
    interval peeled whose edge set equals that of ``[ts - 1, te]``.  A start
    where some query vertex has no edge is skipped whole: every order is 0.
    """
    found: list[SpanCore] = []
    # highest innermost-core order seen for [previous start, t], per end t
    frontier = [0] * (g.t_max + 1)
    previous: dict[int, int] = {}  # |E[ts - 1, te]| per end te visited at ts - 1

    for ts in range(g.t_max + 1):
        if query_set and query_set.difference(chain.from_iterable(g.snapshots[ts])):
            previous = {}
            continue
        groups = g.edge_shrinkage(ts)
        if stats is not None and groups:
            stats.intervals_processed += groups[-1][0] - ts + 1
        counts: dict[int, int] = {}
        degree: dict[int, int] = {}
        top = 0  # highest degree: a refilled edge raises it by one at most
        current_edges: list[Edge] = []
        rolling = 0  # innermost order of [ts, te + 1], possibly understated (see below)
        for (te, refill), (below, _) in pairwise(chain(reversed(groups), [(ts - 1, ())])):
            current_edges.extend(refill)
            for u, v in refill:
                du = degree[u] = degree.get(u, 0) + 1
                dv = degree[v] = degree.get(v, 0) + 1
                if du > top or dv > top:
                    top += 1
            counts[te] = len(current_edges)
            bound = max(frontier[te], rolling)
            order = 0
            # As many edges as [ts - 1, te] means E[ts, te] = E[ts - 1, te]:
            # the interval is dominated by one with the same cores, and
            # frontier[te] already covers its order.
            if (counts[te] != previous.get(te) and top > bound
                    and all(degree.get(q, 0) > bound for q in query_set)
                    and len(seed := {u for u, d in degree.items() if d > bound}) > bound + 1
                    and 2 * len(inner := [e for e in current_edges if e[0] in seed and e[1] in seed])
                    >= (bound + 1) * (bound + 2)):
                if stats is not None:
                    stats.peel_vertices += len(seed)
                coreness = core_decomposition(seed, inner)
                order = (min(coreness[q] for q in query_set) if query_set
                         else max(coreness.values()))
                if order > bound:
                    found.append(SpanCore(order=order, span=Interval(ts, te), members=frozenset(
                        u for u, c in coreness.items() if c >= order)))
            # The restricted peel can understate the interval's true innermost
            # order (never below the bound it was cut at); taking the running
            # maximum keeps both frontiers exact.
            rolling = max(rolling, order)
            frontier[below + 1:te + 1] = map(max, frontier[below + 1:te + 1], repeat(rolling))
        previous = counts
    return found


def maximal_span_cores(g: TemporalGraph,
                       stats: DecompositionStats | None = None) -> SpanCoreSet:
    """All maximal span-cores, computed directly without full decompositions."""
    return SpanCoreSet(_scan_maximal(g, frozenset(), stats))


def _validate_query(g: TemporalGraph, query: Collection[int]) -> frozenset[int]:
    qs = frozenset(query)
    for q in qs:
        if not (0 <= q < g.n):
            raise ParameterError(f"query vertex {q} outside 0..{g.n - 1}")
    return qs


def query_constrained_scan(g: TemporalGraph, query: Collection[int],
                           stats: DecompositionStats | None = None) -> list[SpanCore]:
    """Maximal cores among the per-interval highest-order cores containing ``query``."""
    return _scan_maximal(g, _validate_query(g, query), stats)
