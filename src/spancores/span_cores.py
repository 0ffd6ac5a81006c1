"""Enumeration of all span-cores of a temporal graph.

A span-core of order ``k`` with span ``[ts, te]`` is a maximal nonempty vertex
set in which every member keeps at least ``k`` neighbors inside the set at
every timestamp of the span.  Two routes are provided: a naive sweep that runs
a full core decomposition per interval over the whole vertex set (the
correctness oracle), and a seeded enumeration that walks each start's window
end forward over its edges grouped by run end, intersecting no snapshots,
and peels only the endpoints of the interval edge set.  A vertex with no
edge over the interval has coreness 0, so it can belong to no span-core
there.  An interval whose edge set equals that of ``[ts, te - 1]`` or
``[ts - 1, te]`` reuses that interval's cores without a peel.

Each interval's peel yields all its cores at once as one ``{vertex:
coreness}`` dict, and ``SpanCoreSet`` keeps exactly that: one labelling per
span, from which the nested cores are built on demand.  The seeded route is
one stream of ``(ts, te, coreness)``, which community search reads too.
"""

from __future__ import annotations

import bisect
import json
from itertools import accumulate, chain
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

    Storage is one entry per span: a labelling that maps every member of the
    span's stored cores to the highest stored order whose core contains it,
    plus the ascending list of stored orders.  The stored core of order ``k``
    is the set of members labelled ``k`` or higher, so the cores of one span
    must be nested: each lies inside every stored core of lower order and
    contains every stored core of higher order.  ``add`` rejects a core that
    breaks this, as it rejects a second core for one (order, span).
    ``get``, ``in`` and iteration build ``SpanCore`` objects on demand, while
    ``top_orders`` reads the orders alone; two sets are equal when they hold
    the same cores.  A span stored right after one with the same coreness
    dict shares its entry, so ``add`` stores a new entry, never changes one.
    """

    def __init__(self, cores: Iterable[SpanCore] | None = None):
        self._spans: dict[tuple[int, int], tuple[dict[int, int], list[int]]] = {}
        if cores is not None:
            for core in cores:
                self.add(core)

    def add(self, core: SpanCore) -> None:
        """Merge one core into its span's labelling; a rejected core leaves
        the set unchanged."""
        key = (core.span.start, core.span.end)
        k, members = core.order, core.members
        entry = self._spans.get(key)
        if entry is None:
            self._spans[key] = (dict.fromkeys(members, k), [k])
            return
        labels, orders = entry
        if k in orders:
            raise ValueError(f"duplicate span-core for key {core.key}")
        at = bisect.bisect(orders, k)
        floor = orders[at - 1] if at else 0
        if (any(c > k and u not in members for u, c in labels.items())
                or any(labels.get(u, 0) < floor for u in members)):
            raise ValueError(f"span-core {core.key} is not nested with the stored "
                             "cores of its span")
        labels = dict(labels)
        for u in members:
            if labels.get(u, 0) < k:
                labels[u] = k
        self._spans[key] = (labels, orders[:at] + [k] + orders[at:])

    def _store(self, ts: int, te: int, coreness: dict[int, int]) -> None:
        """Store all cores of one interval graph at once: orders 1 to its
        highest coreness, and ``coreness`` itself, all positive, as the
        labelling; the last stored entry is reused when it holds ``coreness``."""
        last = next(reversed(self._spans.values()), (None,))
        self._spans[(ts, te)] = last if last[0] is coreness else (
            coreness, list(range(1, max(coreness.values()) + 1)))

    def top_orders(self) -> dict[tuple[int, int], int]:
        """``{(ts, te): k}``: each span's highest stored order."""
        return {span: orders[-1] for span, (_, orders) in self._spans.items()}

    def get(self, order: int, span: Interval) -> SpanCore | None:
        entry = self._spans.get((span.start, span.end))
        if entry is None or order not in entry[1]:
            return None
        members = frozenset({u for u, c in entry[0].items() if c >= order})
        return SpanCore(order=order, span=span, members=members)

    def __len__(self) -> int:
        return sum(len(orders) for _, orders in self._spans.values())

    def __iter__(self) -> Iterator[SpanCore]:
        """Cores ordered by (span start, span end, order) for reproducible
        output, built one at a time: a span's lowest-order core holds all its
        labelled members, and each next order drops one layer."""
        for (ts, te), (labels, orders) in sorted(self._spans.items()):
            span = Interval(ts, te)
            members = set(labels)
            for k, layer in reversed(_layers(labels, orders)):
                yield SpanCore(order=k, span=span, members=frozenset(members))
                members.difference_update(layer)

    def __contains__(self, core: SpanCore) -> bool:
        stored = self.get(core.order, core.span)
        return stored is not None and stored.members == core.members

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanCoreSet):
            return NotImplemented
        return self._spans == other._spans


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
            out._store(ts, te, {u: c for u, c in coreness.items() if c})
            if te == g.t_max:
                break
            te += 1
            edges = edges & g.snapshots[te]
    return out


def _seeded_coreness(g: TemporalGraph, stats: DecompositionStats | None
                     ) -> Iterator[tuple[int, int, dict[int, int]]]:
    """Yield ``(ts, te, coreness)`` for every interval with a nonempty edge
    set, in (start, end) order, recording each peel in ``stats``.

    Per start, the window end walks over the ``edge_shrinkage`` groups; the
    size of ``E[ts, te]`` is a suffix sum of their sizes.  It lies inside
    ``E[ts, te - 1]`` and contains ``E[ts - 1, te]``, so when its size
    equals either one's, it is that set and the neighbour's coreness dict is
    yielded again, the same object.  Any other edge set is built from its
    groups and peeled, seeded with its endpoints: exactly the vertices that
    can have positive coreness there, so every coreness yielded is positive.
    """
    previous: dict[int, tuple[int, dict[int, int]]] = {}  # start ts - 1, per end
    for ts in range(g.t_max + 1):
        current: dict[int, tuple[int, dict[int, int]]] = {}
        groups = g.edge_shrinkage(ts)
        sizes = list(accumulate(map(len, reversed(groups))))[::-1]
        for te, count in enumerate(sizes, ts):
            if te == ts or count != sizes[te - ts - 1]:
                count_left, coreness = previous.get(te, (0, None))
                if count_left != count:
                    edges = frozenset().union(*groups[te - ts:])
                    endpoints = set(chain.from_iterable(edges))
                    if stats is not None:
                        stats.record(len(endpoints))
                    coreness = core_decomposition(endpoints, edges)
            current[te] = (count, coreness)
            yield ts, te, coreness
        previous = current


def span_cores(g: TemporalGraph, stats: DecompositionStats | None = None) -> SpanCoreSet:
    """All span-cores via the seeded per-start enumeration.

    Output is set-equal to ``naive_span_cores``; only edge endpoints are
    peeled, instead of every vertex, and once per distinct interval edge
    set, whose spans share one stored labelling.
    """
    out = SpanCoreSet()
    for ts, te, coreness in _seeded_coreness(g, stats):
        out._store(ts, te, coreness)
    return out


# -- serialization -----------------------------------------------------------------


def write_span_cores(cores: SpanCoreSet, sink, g: TemporalGraph,
                     maximal: bool = False) -> int:
    """Write one JSON record per core to a text stream, sorted by (ts, te, k);
    returns the record count.

    Each line is what ``json.dumps(record, sort_keys=True)`` gives for the
    record with keys ``k``, ``ts``, ``te``, ``size``, ``vertices`` (the
    members' labels, sorted) and, when ``maximal``, ``maximal: true``.  The
    lines come straight from each span's labelling: labels are sorted and
    JSON-encoded once per call, and a span's cores grow from its highest
    order down, one layer of label ranks merged in per order, so no per-core
    member set or record dict is built.  A labelling is rendered once, and
    each later span of the same start or the next that holds it reuses the
    records with only ``ts`` and ``te`` changed: the enumeration shares a
    labelling nowhere else, so it renders each distinct one once.
    """
    by_label = sorted(g.vertices, key=g.labels.__getitem__)
    rank = [0] * g.n
    for position, u in enumerate(by_label):
        rank[u] = position
    encoded = [json.dumps(g.labels[u]) for u in by_label]
    flag = '"maximal": true, ' if maximal else ""
    count = 0
    # per start, id(labelling) -> (labelling, its records); holding the
    # labelling keeps its id from being reused while it is cached
    start, previous, current = None, {}, {}
    try:
        for (ts, te), (labels, orders) in sorted(cores._spans.items()):
            if ts != start:
                start, previous, current = ts, current, {}
            cached = current.get(id(labels)) or previous.get(id(labels))
            if cached is not None and cached[0] is labels:
                records = cached[1]
            else:
                members: list[int] = []
                records = []  # per core, the text before te and after ts
                for k, layer in _layers(labels, orders):
                    members.extend(map(rank.__getitem__, layer))
                    members.sort()
                    records.append((f'{{"k": {k}, {flag}"size": {len(members)}, "te": ',
                                    f', "vertices": [{", ".join([encoded[r] for r in members])}]}}\n'))
                records.reverse()
            current[id(labels)] = (labels, records)
            sink.write("".join([f'{head}{te}, "ts": {ts}{tail}' for head, tail in records]))
            count += len(records)
    except OSError as exc:
        raise OSError(f"failed writing span-cores to {getattr(sink, 'name', sink)}: {exc}") from exc
    return count


def read_span_cores(source, g: TemporalGraph) -> SpanCoreSet:
    """Read back records produced by ``write_span_cores`` from a path (``.gz``
    included), bytes or an open text stream."""
    out = SpanCoreSet()
    with _opened(source) as stream:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            members = frozenset(g.index_of(lab) for lab in record["vertices"])
            out.add(SpanCore(order=record["k"],
                             span=Interval(record["ts"], record["te"]),
                             members=members))
    return out
