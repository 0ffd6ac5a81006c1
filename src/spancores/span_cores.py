"""Enumeration of all span-cores of a temporal graph.

A span-core of order ``k`` with span ``[ts, te]`` is a maximal nonempty vertex
set in which every member keeps at least ``k`` neighbors inside the set at
every timestamp of the span.  Two routes are provided: a naive sweep that runs
a full core decomposition per interval over the whole vertex set (the
correctness oracle), and a seeded enumeration that walks each start's runs,
the ends whose spans share one edge set (``TemporalGraph.edge_shrinkage``),
and peels only the endpoints of a run's edge set: any other vertex has
coreness 0, so it can belong to no span-core there.  A run whose edge set
equals that of ``[ts - 1, last]`` reuses that interval's cores unpeeled.

Each peel yields all its cores at once as one ``{vertex: coreness}`` dict,
and ``SpanCoreSet`` keeps exactly that: one entry per run, its labelling
held once for all the run's spans, from which the nested cores are built on
demand.  The seeded route is one stream, which community search and the
analytics read too: one ``(ts, first, last, coreness, wider)`` per run,
``wider`` being the labelling of ``[ts - 1, last]``.
"""

from __future__ import annotations

import bisect
import json
from itertools import chain, groupby, pairwise, zip_longest
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import Iterable, Iterator

from .graph import Interval, TemporalGraph, _opened, _Record
from .static_core import core_decomposition


class SpanCore(_Record):
    """A span-core: order, span, and its (maximal) member set."""

    __slots__ = ()
    _fields = ("order", "span", "members")
    order = property(lambda self: self._values[0])
    span = property(lambda self: self._values[1])
    members = property(lambda self: self._values[2])

    def __init__(self, order: int, span: Interval, members: frozenset[int]):
        if order < 1:
            raise ValueError(f"span-core order must be positive, got {order}")
        if not members:
            raise ValueError("span-core member set must be nonempty")
        self._values = (order, span, members)

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.order, self.span.start, self.span.end)

    def dominates(self, other: "SpanCore") -> bool:
        """True when this core's order is at least as high and its span contains
        the other's span (and the two differ)."""
        return (self.key != other.key and other.order <= self.order
                and other.span.within(self.span))


class SpanCoreSet:
    """Collection of span-cores keyed by (order, span); at most one per key.

    Storage is one entry per run, ``(ts, first, last, labelling, orders)``
    in (start, first end) order, for the spans ``[ts, first]`` to ``[ts,
    last]``, which hold the same cores: a labelling that maps every member
    of a span's cores to the highest order whose core contains it, plus the
    ascending list of orders.  The core of order ``k`` is the set of members
    labelled ``k`` or higher, so the cores of one span must be nested: each
    lies inside the core of the next lower order.  The set is built once,
    from cores given in any order (one single-span run per span), or by the
    enumeration, one run at a time.  ``get``, ``in`` and iteration build
    ``SpanCore`` objects on demand, while ``top_orders`` reads the orders
    alone; two sets are equal when they hold the same cores, however their
    spans are grouped into runs.
    """

    def __init__(self, cores: Iterable[SpanCore] = ()):
        self._runs: list[tuple[int, int, int, dict[int, int], list[int]]] = []
        cores = sorted(cores, key=lambda core: (core.span.start, core.span.end, core.order))
        for span, group in groupby(cores, key=attrgetter("span")):
            group = list(group)
            for lower, core in pairwise(group):
                if lower.order == core.order:
                    raise ValueError(f"duplicate span-core for key {core.key}")
                if not core.members <= lower.members:
                    raise ValueError(f"span-core {core.key} is not nested with the "
                                     "next lower-order core of its span")
            labels = {u: core.order for core in group for u in core.members}
            self._runs.append((span.start, span.end, span.end, labels,
                               [core.order for core in group]))

    def _store(self, ts: int, first: int, last: int, coreness: dict[int, int]) -> None:
        """Store all cores of one run at once, one entry for the spans
        ``[ts, first]`` to ``[ts, last]``, which must come after every run
        stored so far in (start, first end) order: orders 1 to its highest
        coreness, and ``coreness`` itself, all positive, as the labelling."""
        self._runs.append((ts, first, last, coreness, list(range(1, max(coreness.values()) + 1))))

    def _spans(self) -> Iterator[tuple[int, int, dict[int, int], list[int]]]:
        """``(ts, te, labelling, orders)`` per stored span, in order."""
        for ts, first, last, labels, orders in self._runs:
            for te in range(first, last + 1):
                yield ts, te, labels, orders

    def top_orders(self) -> dict[tuple[int, int], int]:
        """``{(ts, te): k}``: each span's highest stored order."""
        return {(ts, te): orders[-1] for ts, te, _, orders in self._spans()}

    def get(self, order: int, span: Interval) -> SpanCore | None:
        at = bisect.bisect(self._runs, (span.start, span.end), key=itemgetter(0, 1))
        if not at:
            return None
        ts, first, last, labels, orders = self._runs[at - 1]
        if ts != span.start or span.end > last or order not in orders:
            return None
        members = frozenset({u for u, c in labels.items() if c >= order})
        return SpanCore(order=order, span=span, members=members)

    def __len__(self) -> int:
        return sum((last - first + 1) * len(orders)
                   for _, first, last, _, orders in self._runs)

    def __iter__(self) -> Iterator[SpanCore]:
        """Cores ordered by (span start, span end, order) for reproducible
        output, built one run at a time: a span's lowest-order core holds
        all its labelled members, each next order drops one layer, and the
        spans of a run share its member sets."""
        for ts, first, last, labels, orders in self._runs:
            members, cores = set(labels), []
            for k, layer in reversed(_layers(labels, orders)):
                cores.append((k, frozenset(members)))
                members.difference_update(layer)
            for te in range(first, last + 1):
                span = Interval(ts, te)
                yield from (SpanCore(order=k, span=span, members=core) for k, core in cores)

    def __contains__(self, core: SpanCore) -> bool:
        stored = self.get(core.order, core.span)
        return stored is not None and stored.members == core.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanCoreSet):
            return NotImplemented
        return all(mine == theirs for mine, theirs in zip_longest(self._spans(), other._spans()))


def _layers(labels: dict[int, int], orders: list[int]) -> list[tuple[int, list[int]]]:
    """Each stored order, highest first, paired with the members labelled
    that order; the core of an order is the union of its layer and those
    before it."""
    grouped: dict[int, list[int]] = {k: [] for k in reversed(orders)}
    for u, c in labels.items():
        grouped[c].append(u)
    return list(grouped.items())


class DecompositionStats(SimpleNamespace):
    """Work counters: intervals processed and total vertices fed to the peeling
    subroutine.  The seeded enumeration counts only the peels it runs, one
    per distinct interval edge set, each fed that set's endpoints; the naive
    route feeds the whole vertex set to every interval; the maximal scan
    counts each interval it visits, one it settles without a peel (its seed
    too small or too sparse, or its end walked past) as 0, and a
    query-constrained scan visits no interval of a start where some query
    vertex has no edge.  Community search adds each segment's peel, the DP's
    candidate ends and the runs it priced, one per (end, run, segment
    count).  Counters print and compare by value."""

    def __init__(self, intervals_processed: int = 0, peel_vertices: int = 0,
                 candidate_ends: int = 0, dp_runs: int = 0):
        super().__init__(intervals_processed=intervals_processed, peel_vertices=peel_vertices,
                         candidate_ends=candidate_ends, dp_runs=dp_runs)

    def record(self, vertex_count: int) -> None:
        self.intervals_processed += 1
        self.peel_vertices += vertex_count


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
            if stats is not None:
                stats.record(len(vertices))
            coreness = core_decomposition(vertices, edges)
            out._store(ts, te, te, {u: c for u, c in coreness.items() if c})
            if te == g.t_max:
                break
            te += 1
            edges = edges & g.snapshots[te]
    return out


def _seeded_coreness(g: TemporalGraph, stats: DecompositionStats | None
                     ) -> Iterator[tuple[int, int, int, dict[int, int], dict[int, int]]]:
    """Yield ``(ts, first, last, coreness, wider)`` per run, in (start, end)
    order: the ends ``first..last`` of start ``ts``, whose spans share one
    nonempty edge set and so one coreness dict, and ``wider``, the coreness
    dict of the run of ``ts - 1`` ending at ``last`` (``{}`` where none does).
    Each peel is recorded in ``stats``.

    Each ``edge_shrinkage`` group closes a run at its end ``last``; the run's
    edge set is the union of that group and those after it.  ``E[ts - 1,
    last]`` lies inside ``E[ts - 1, first]``, inside ``E[ts, first] = E[ts,
    last]``, so equal sizes at ``last`` make all three one set, and the run
    reuses ``wider``, the same object.  Any other edge set is built from its
    groups and peeled, seeded with its endpoints: exactly the vertices that
    can have positive coreness there, so every coreness yielded is positive.
    Where no run of ``ts - 1`` ends at ``last``, ``E[ts - 1, last]`` is empty
    or equals ``E[ts - 1, last + 1]``, inside ``E[ts, last + 1]``, so the
    start's next run bounds the cores of ``[ts - 1, last]``.
    """
    previous: dict[int, tuple[int, dict[int, int]]] = {}  # start ts - 1, per run end
    for ts in range(g.t_max + 1):
        current: dict[int, tuple[int, dict[int, int]]] = {}
        groups = g.edge_shrinkage(ts)
        first, count = ts, len(g.snapshots[ts])
        for i, (last, gone) in enumerate(groups):
            count_left, wider = previous.get(last, (0, {}))
            coreness = wider
            if count_left != count:
                edges = [edge for _, group in groups[i:] for edge in group]
                endpoints = set(chain.from_iterable(edges))
                if stats is not None:
                    stats.record(len(endpoints))
                coreness = core_decomposition(endpoints, edges)
            current[last] = (count, coreness)
            yield ts, first, last, coreness, wider
            first, count = last + 1, count - len(gone)
        previous = current


def span_cores(g: TemporalGraph, stats: DecompositionStats | None = None) -> SpanCoreSet:
    """All span-cores via the seeded per-start enumeration.

    Output is set-equal to ``naive_span_cores``; only edge endpoints are
    peeled, once per distinct interval edge set, and each run is stored as
    one entry.
    """
    out = SpanCoreSet()
    for ts, first, last, coreness, _ in _seeded_coreness(g, stats):
        out._store(ts, first, last, coreness)
    return out


# -- serialization -----------------------------------------------------------------


def write_span_cores(cores: SpanCoreSet, sink, g: TemporalGraph,
                     maximal: bool = False) -> int:
    """Write one JSON record per core to a text stream, sorted by (ts, te, k);
    returns the record count.

    Each line is what ``json.dumps(record, sort_keys=True)`` gives for the
    record with keys ``k``, ``ts``, ``te``, ``size``, ``vertices`` (the
    members' labels, sorted) and, when ``maximal``, ``maximal: true``.  The
    stored runs are walked in order, and each run's lines come straight from
    its labelling: labels are sorted and JSON-encoded once per call, and a
    run's cores grow from its highest order down, one layer of label ranks
    merged in per order, so no per-core member set or record dict is built.
    A run's records are rendered once and written for each of its spans
    with only ``te`` changed.  A run that holds the labelling of a run of
    the previous start reuses that run's records, the one place the
    enumeration shares a labelling, so it renders each distinct one once.
    """
    by_label = sorted(g.vertices, key=g.labels.__getitem__)
    rank = [0] * g.n
    for position, u in enumerate(by_label):
        rank[u] = position
    encoded = [json.dumps(g.labels[u]) for u in by_label]
    flag = '"maximal": true, ' if maximal else ""
    count = 0
    # per start, id(labelling) -> its records; the set holds every
    # labelling, so no id is reused while it is cached
    start, previous, current = None, {}, {}
    try:
        for ts, first, last, labels, orders in cores._runs:
            if ts != start:
                start, previous, current = ts, current, {}
            records = previous.get(id(labels))
            if records is None:
                members: list[int] = []
                records = []  # per core, the text before te and after ts
                for k, layer in _layers(labels, orders):
                    members.extend(map(rank.__getitem__, layer))
                    members.sort()
                    records.append((f'{{"k": {k}, {flag}"size": {len(members)}, "te": ',
                                    f', "vertices": [{", ".join([encoded[r] for r in members])}]}}\n'))
                records.reverse()
            current[id(labels)] = records
            sink.write("".join([f'{head}{te}, "ts": {ts}{tail}' for te in range(first, last + 1)
                                for head, tail in records]))
            count += (last - first + 1) * len(records)
    except OSError as exc:
        raise OSError(f"failed writing span-cores to {getattr(sink, 'name', sink)}: {exc}") from exc
    return count


def read_span_cores(source, g: TemporalGraph) -> SpanCoreSet:
    """Read back records produced by ``write_span_cores`` from a path (``.gz``
    included), bytes or an open text stream."""
    with _opened(source) as stream:
        return SpanCoreSet(SpanCore(order=record["k"], span=Interval(record["ts"], record["te"]),
                                    members=frozenset(map(g.index_of, record["vertices"])))
                           for record in map(json.loads, filter(str.strip, stream)))
