"""Enumeration of all span-cores of a temporal graph.

A span-core of order ``k`` with span ``[ts, te]`` is a maximal nonempty vertex
set in which every member keeps at least ``k`` neighbors inside the set at
every timestamp of the span.  Two routes are provided: a naive sweep that runs
a full core decomposition per interval (the correctness oracle), and a seeded
enumeration that processes intervals by increasing width, starting each
interval's peel from the intersection of its two parent subintervals' order-1
cores instead of from the whole vertex set.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .graph import Edge, Interval, TemporalGraph
from .static_core import core_decomposition


@dataclass(frozen=True)
class SpanCore:
    """A span-core: order, span, and its (maximal) member set."""

    order: int
    span: Interval
    members: frozenset[int]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"span-core order must be positive, got {self.order}")
        if not self.members:
            raise ValueError("span-core member set must be nonempty")

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.order, self.span.start, self.span.end)

    def dominates(self, other: "SpanCore") -> bool:
        """True when this core's order is at least as high and its span contains
        the other's span (and the two differ)."""
        return (self.key != other.key and other.order <= self.order
                and other.span.within(self.span))


class SpanCoreSet:
    """Collection of span-cores keyed by (order, span); at most one per key."""

    def __init__(self, cores: Iterator[SpanCore] | None = None):
        self._cores: dict[tuple[int, int, int], SpanCore] = {}
        if cores is not None:
            for core in cores:
                self.add(core)

    def add(self, core: SpanCore) -> None:
        if core.key in self._cores:
            raise ValueError(f"duplicate span-core for key {core.key}")
        self._cores[core.key] = core

    def get(self, order: int, span: Interval) -> SpanCore | None:
        return self._cores.get((order, span.start, span.end))

    def __len__(self) -> int:
        return len(self._cores)

    def __iter__(self) -> Iterator[SpanCore]:
        return iter(self.sorted_cores())

    def __contains__(self, core: SpanCore) -> bool:
        stored = self._cores.get(core.key)
        return stored is not None and stored.members == core.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanCoreSet):
            return NotImplemented
        return self._cores == other._cores

    def sorted_cores(self) -> list[SpanCore]:
        """Cores ordered by (span start, span end, order) for reproducible output."""
        return sorted(self._cores.values(),
                      key=lambda c: (c.span.start, c.span.end, c.order))


@dataclass
class DecompositionStats:
    """Work counters: intervals peeled and total vertices fed to the peeling subroutine."""

    intervals_processed: int = 0
    peel_vertices: int = 0
    emitted_cores: int = 0

    def record(self, vertex_count: int) -> None:
        self.intervals_processed += 1
        self.peel_vertices += vertex_count


def _cores_of_interval(span: Interval, vertices, edges,
                       out: SpanCoreSet, stats: DecompositionStats | None) -> None:
    """Run the peel over one interval graph and emit its cores of order >= 1."""
    if stats is not None:
        stats.record(len(vertices))
    labeling = core_decomposition(vertices, edges)
    if labeling.k_max == 0:
        return
    by_order: list[list[int]] = [[] for _ in range(labeling.k_max + 1)]
    for u, c in labeling.coreness.items():
        by_order[c].append(u)
    members: set[int] = set()
    pending: list[tuple[int, set[int]]] = []
    for k in range(labeling.k_max, 0, -1):
        members.update(by_order[k])
        pending.append((k, set(members)))
    for k, mem in reversed(pending):
        out.add(SpanCore(order=k, span=span, members=frozenset(mem)))
        if stats is not None:
            stats.emitted_cores += 1


def naive_span_cores(g: TemporalGraph, stats: DecompositionStats | None = None) -> SpanCoreSet:
    """Full decomposition per interval, every peel starting from the whole vertex set.

    The window end advances until the interval edge set empties (it can only
    shrink), so exactly the intervals with nonempty edge sets are peeled.
    Serves as the correctness oracle for the seeded enumeration.
    """
    out = SpanCoreSet()
    vertices = g.vertices
    for ts in range(g.t_max + 1):
        edges = g.snapshots[ts]
        te = ts
        while edges:
            _cores_of_interval(Interval(ts, te), vertices, edges, out, stats)
            if te == g.t_max:
                break
            te += 1
            edges = edges & g.snapshots[te]
    return out


def _seeded_intervals(g: TemporalGraph) -> Iterator[tuple[Interval, object, frozenset[Edge]]]:
    """Yield (interval, seed vertices, interval edges) in (width, start) order.

    Width-1 intervals start from the whole vertex set.  A wider interval
    becomes ready once both parent subintervals have been processed; its seed
    is the intersection of their order-1 cores and its edge set the
    intersection of their edge sets.  Branches whose edge intersection empties
    are dropped without ever being enqueued.
    """
    queue: deque[tuple[int, int, object, frozenset[Edge]]] = deque()
    for t in range(g.t_max + 1):
        if g.snapshots[t]:
            queue.append((t, t, g.vertices, g.snapshots[t]))
    # pending[(ts, te)] holds the first parent's contribution until the second arrives
    pending: dict[tuple[int, int], tuple[set[int], frozenset[Edge]]] = {}
    while queue:
        ts, te, vertices, edges = queue.popleft()
        yield Interval(ts, te), vertices, edges
        order_one = set()
        for u, v in edges:
            order_one.add(u)
            order_one.add(v)
        for child in ((ts - 1, te), (ts, te + 1)):
            if child[0] < 0 or child[1] > g.t_max:
                continue
            held = pending.pop(child, None)
            if held is None:
                pending[child] = (order_one, edges)
            else:
                seed = held[0] & order_one
                child_edges = held[1] & edges
                if child_edges:
                    queue.append((child[0], child[1], seed, child_edges))
    pending.clear()


def span_cores(g: TemporalGraph, stats: DecompositionStats | None = None) -> SpanCoreSet:
    """All span-cores via width-ordered seeded enumeration.

    Output is set-equal to ``naive_span_cores``; only the per-interval starting
    sets differ, which is where the speedup comes from.
    """
    out = SpanCoreSet()
    for span, vertices, edges in _seeded_intervals(g):
        _cores_of_interval(span, vertices, edges, out, stats)
    return out


# -- serialization -----------------------------------------------------------------


def write_span_cores(cores: SpanCoreSet, sink, g: TemporalGraph,
                     maximal: bool = False) -> int:
    """Write one JSON record per core, sorted by (ts, te, k); returns record count."""
    stream = sink if hasattr(sink, "write") else open(sink, "w", encoding="utf-8")
    count = 0
    try:
        for core in cores.sorted_cores():
            record = {
                "k": core.order,
                "ts": core.span.start,
                "te": core.span.end,
                "size": len(core.members),
                "vertices": sorted(g.label_of(u) for u in core.members),
            }
            if maximal:
                record["maximal"] = True
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    except OSError as exc:
        raise OSError(f"failed writing span-cores to {getattr(sink, 'name', sink)}: {exc}") from exc
    finally:
        if stream is not sink:
            stream.close()
    return count


def read_span_cores(source, g: TemporalGraph) -> SpanCoreSet:
    """Read back records produced by ``write_span_cores``."""
    stream = source if hasattr(source, "read") else open(source, "r", encoding="utf-8")
    out = SpanCoreSet()
    try:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            members = frozenset(g.index_of(lab) for lab in record["vertices"])
            out.add(SpanCore(order=record["k"],
                             span=Interval(record["ts"], record["te"]),
                             members=members))
    finally:
        if stream is not source:
            stream.close()
    return out
