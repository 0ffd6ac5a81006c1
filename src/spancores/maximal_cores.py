"""Direct extraction of maximal span-cores.

A span-core is maximal when no other span-core dominates it on both order and
span.  The filtering baseline keeps the innermost core per interval from a
complete enumeration and discards dominated entries.  The direct scan walks
interval starts forward and ends backward, maintaining two frontiers of
innermost-core orders (one per end timestamp carried across starts, one
rolling within the current start) whose maximum is a lower bound: an interval
can only contribute a maximal core of strictly higher order, so its peel can
begin from the vertices whose interval degree already exceeds the bound.
"""

from __future__ import annotations

from typing import Collection

from .graph import DegreeBucketMap, Interval, TemporalGraph
from .span_cores import DecompositionStats, SpanCore, SpanCoreSet
from .static_core import innermost_core, query_constrained_decomposition


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
    """Discard every dominated core from a complete span-core set by keeping
    the top order per span and then only the undominated spans."""
    top: dict[tuple[int, int], SpanCore] = {}
    for core in all_cores:
        key = (core.span.start, core.span.end)
        best = top.get(key)
        if best is None or core.order > best.order:
            top[key] = core
    orders = {key: core.order for key, core in top.items()}
    return SpanCoreSet(top[key] for key in _undominated(orders))


def _scan_maximal(g: TemporalGraph, query_set: frozenset[int] | None,
                  stats: DecompositionStats | None) -> list[SpanCore]:
    """Top-down maximal-core scan, optionally constrained to cores containing ``query_set``.

    For each start, interval ends run from the last end with a nonempty edge
    set down to the start itself; the interval edge set is rebuilt by folding
    vanishing-edge sets back in while a degree bucket map grows alongside.
    """
    found: list[SpanCore] = []
    # highest innermost-core order seen for [previous start, t], per end t
    frontier = [0] * (g.t_max + 1)

    for ts in range(g.t_max + 1):
        shrinkage = g.edge_shrinkage(ts)
        if shrinkage.last_nonempty_end is None:
            continue
        last = shrinkage.last_nonempty_end
        buckets = DegreeBucketMap()
        buckets.add_edges(shrinkage.persistent)
        current_edges = set(shrinkage.persistent)
        rolling = 0  # innermost order of [ts, te + 1], possibly understated (see below)
        for te in range(last, ts - 1, -1):
            if te != last:
                refill = shrinkage.vanishing[te - ts]
                current_edges |= refill
                buckets.add_edges(refill)
            bound = max(frontier[te], rolling)
            seed = buckets.vertices_above(bound)
            edges = [e for e in current_edges if e[0] in seed and e[1] in seed]
            if stats is not None:
                stats.record(len(seed))
            if query_set is None:
                order, members = innermost_core(seed, edges)
            elif query_set <= seed:
                order, members = query_constrained_decomposition(seed, edges, query_set)
            else:
                order, members = 0, set()
            if order > bound:
                found.append(SpanCore(order=order, span=Interval(ts, te),
                                      members=frozenset(members)))
                if stats is not None:
                    stats.emitted_cores += 1
            # The restricted peel can understate the interval's true innermost
            # order (never below the bound it was cut at); taking the running
            # maximum keeps both frontiers exact.
            rolling = max(rolling, order)
            frontier[te] = max(frontier[te], rolling)
    return found


def maximal_span_cores(g: TemporalGraph,
                       stats: DecompositionStats | None = None) -> SpanCoreSet:
    """All maximal span-cores, computed directly without full decompositions."""
    return SpanCoreSet(iter(_scan_maximal(g, None, stats)))


def _validate_query(g: TemporalGraph, query: Collection[int]) -> frozenset[int]:
    qs = frozenset(query)
    for q in qs:
        if not (0 <= q < g.n):
            raise ValueError(f"query vertex {q} outside 0..{g.n - 1}")
    return qs


def query_constrained_scan(g: TemporalGraph, query: Collection[int],
                           stats: DecompositionStats | None = None) -> list[SpanCore]:
    """Maximal cores among the per-interval highest-order cores containing ``query``."""
    return _scan_maximal(g, _validate_query(g, query), stats)
