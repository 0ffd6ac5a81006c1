"""Downstream analytics over decomposition outputs: activity summaries,
attribute purity, span-length statistics, anomaly filtering, per-vertex
community-search embeddings, and query sampling.  The activity summary and
the embeddings read one span-core enumeration as it streams, and build no
span-core set."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .community_search import _corner_segmentation, _corners, _validate_h
from .graph import (EdgeListFormatError, Interval, ParameterError, TemporalGraph,
                    UnknownLabelError, _build_adjacency, _opened)
from .maximal_cores import maximal_span_cores
from .span_cores import DecompositionStats, SpanCore, _seeded_coreness

DEFAULT_MIN_SPAN = 2  # single-window cores are short interactions, not structure


class ActivityCell(NamedTuple):
    """Peak order among cores starting at ``start`` with span length ``span_length``."""

    start: int
    span_length: int
    max_order: int


def activity_summary(g: TemporalGraph, min_span: int = DEFAULT_MIN_SPAN,
                     stats: DecompositionStats | None = None) -> list[ActivityCell]:
    """One record per (start, span length) cell holding the highest order
    there, read off the enumeration stream with no core kept: the top
    coreness of a run is taken once, however many spans it has.
    ``stats`` records the enumeration's peels."""
    cells = []
    for ts, first, last, labels, _ in _seeded_coreness(g, stats):
        top = max(labels.values())
        cells.extend(ActivityCell(ts, te - ts + 1, top)
                     for te in range(max(first, ts + min_span - 1), last + 1))
    return cells


def purity(core: SpanCore, attributes: Mapping[int, str]) -> float:
    """Fraction of the core's labeled members carrying the most common label."""
    labels = [attributes[u] for u in core.members if u in attributes]
    if not labels:
        raise ValueError("purity undefined: no labeled member in the core")
    (_, top_count), = Counter(labels).most_common(1)
    return top_count / len(labels)


def purity_timeline(cores: Iterable[SpanCore], attributes: Mapping[int, str],
                    t_max: int) -> list[float | None]:
    """Per-timestamp mean purity over the cores whose span covers the timestamp.

    Timestamps covered by no core yield ``None``; cores without any labeled
    member are skipped with a warning.
    """
    scored: list[tuple[Interval, float]] = []
    for core in cores:
        try:
            scored.append((core.span, purity(core, attributes)))
        except ValueError:
            import logging  # only when warning: importing the package does not load it
            logging.getLogger(__name__).warning("skipping core %s/%s: no labeled member",
                                                core.order, core.span)
    timeline: list[float | None] = []
    for t in range(t_max + 1):
        values = [p for span, p in scored if span.covers(t)]
        timeline.append(sum(values) / len(values) if values else None)
    return timeline


class SpanLengthBin(NamedTuple):
    length: int
    count: int
    percent: float


def span_length_distribution(cores: Iterable[SpanCore]) -> list[SpanLengthBin]:
    """Histogram of span lengths with percentages."""
    counts = Counter(core.span.length for core in cores)
    total = sum(counts.values())
    return [SpanLengthBin(length=length, count=count, percent=100.0 * count / total)
            for length, count in sorted(counts.items())]


# -- anomaly detection ---------------------------------------------------------


class AnomalyReport(NamedTuple):
    """Output of the two-stage anomaly filter.

    ``filtered`` is the graph after removing edges incident to flagged
    vertices and emptying flagged timestamps.  ``edge_counts[t]`` holds
    (original, after the vertex filter alone, final) counts.
    """

    flagged_vertex_steps: tuple[tuple[int, int], ...]
    flagged_timestamps: tuple[int, ...]
    filtered: TemporalGraph
    edge_counts: tuple[tuple[int, int, int], ...]


def detect_anomalies(g: TemporalGraph, tr: int, ratio: float,
                     stats: DecompositionStats | None = None) -> AnomalyReport:
    """Flag steady long-lived group contacts and filter them out.

    Maximal cores with span longer than ``tr`` mark anomalously persistent
    activity; within each such span, every vertex of the span's order-1 core
    is flagged at every covered timestamp and its edges removed there.
    Timestamps whose original-to-filtered edge-count ratio then exceeds
    ``ratio`` are emptied entirely (a filtered count of zero with a nonzero
    original counts as an infinite ratio).  ``stats`` receives the maximal
    scan's work.
    """
    if tr < 1:
        raise ParameterError("span threshold tr must be at least 1")
    if not ratio > 1:  # NaN included
        raise ParameterError("edge-count ratio threshold must exceed 1")

    long_spans = [core.span for core in maximal_span_cores(g, stats)
                  if core.span.length > tr]

    flagged: dict[int, set[int]] = {}
    for span in long_spans:
        endpoints = set(chain.from_iterable(g.interval_edges(span)))
        for t in span:
            flagged.setdefault(t, set()).update(endpoints)

    flagged_timestamps = []
    final: list = []
    counts = []
    for t, snapshot in enumerate(g.snapshots):
        bad = flagged.get(t)
        kept = [e for e in snapshot if e[0] not in bad and e[1] not in bad] if bad else snapshot
        original = len(snapshot)
        if original > 0 and (len(kept) == 0 or original / len(kept) > ratio):
            flagged_timestamps.append(t)
            final.append(())
        else:
            final.append(kept)
        counts.append((original, len(kept), len(final[t])))

    vertex_steps = tuple((t, u) for t in sorted(flagged) for u in sorted(flagged[t]))
    return AnomalyReport(
        flagged_vertex_steps=vertex_steps,
        flagged_timestamps=tuple(flagged_timestamps),
        filtered=TemporalGraph(final, g.labels),
        edge_counts=tuple(counts),
    )


# -- embeddings ------------------------------------------------------------------


def tcs_embeddings(g: TemporalGraph, h: int,
                   stats: DecompositionStats | None = None) -> list[list[int]]:
    """Per-vertex embedding: the temporally ordered minimum degrees of that
    vertex's own h-segment community-search solution.

    Row order is vertex index order.  Rows equal those of ``tcs_efficient``
    run once per vertex, from one seeded span-core enumeration that yields
    each vertex's query-constrained maximal cores, with no re-peel: a row is
    the segment scores of its reduced-domain DP over those cores.  ``stats``
    records the enumeration's peels and every row's DP work.
    """
    _validate_h(g, h)
    return [[score for _, score in _corner_segmentation(corners, g.t_max, h, stats)]
            for corners in _corners(g, stats)]


# -- query sampling ------------------------------------------------------------------


def sample_query_vertices(g: TemporalGraph, q_size: int, p: float = 0.8,
                          pool_size: int | None = None, seed: int | None = 0) -> set[int]:
    """Sample query vertices that plausibly interact, via a temporal random walk.

    A single query vertex is drawn uniformly from the whole vertex set.  For
    larger queries a walker starts at timestamp 0 at a uniform vertex among
    those with an edge; with probability ``p`` it moves to a neighbor in the
    current snapshot (jumping forward, wrapping at the domain end, to the next
    timestamp where the current vertex has a neighbor), otherwise it stays
    and time advances; ``p`` lies strictly between 0 and 1.
    Visits accumulate until ``pool_size`` distinct vertices (default
    ``3 * q_size``, capped at the vertices with an edge) are seen, then
    ``q_size`` of them are drawn with probability proportional to visit count.
    A walk that sees its start's whole component (in the union of the
    snapshots) before the pool fills stops there with a warning, or raises
    ``ParameterError`` if the component is smaller than ``q_size``.
    """
    if q_size < 1:
        raise ParameterError("q_size must be at least 1")
    if not 0 < p < 1:  # NaN included; at p = 1 time never advances
        raise ParameterError("walk probability p must be within (0, 1)")
    active = g.vertices
    if q_size > 1:  # the union graph's lists, each ascending by id
        adjacency = _build_adjacency(g.vertices, sorted(frozenset().union(*g.snapshots)))
        active = [u for u in g.vertices if adjacency[u]]
    if q_size > len(active):
        raise ParameterError(f"cannot sample {q_size} query vertices from {len(active)}")
    pool = min(3 * q_size, len(active)) if pool_size is None else pool_size
    if not q_size <= pool <= len(active):  # a larger pool could never fill
        raise ParameterError(f"pool size must be within q_size..{len(active)}")
    rng = random.Random(seed)
    if q_size == 1:
        return {rng.randrange(g.n)}

    current = active[rng.randrange(len(active))]
    visits: Counter[int] = Counter({current: 1})
    reach, frontier = {current}, [current]
    while frontier:  # the start's component
        found = set(adjacency[frontier.pop()]) - reach
        reach |= found
        frontier += found
    goal = min(pool, len(reach))

    windows: list[list[int]] = [[] for _ in g.vertices]  # per vertex, where it has an edge
    for t, snapshot in enumerate(g.snapshots):
        for u in set(chain.from_iterable(snapshot)):
            windows[u].append(t)

    t = 0
    for _ in range(max(10_000, 200 * pool * (g.t_max + 1))):  # the step budget
        if len(visits) >= goal:
            break
        if rng.random() < p:
            # the walker starts at a vertex with an edge and moves only along
            # edges, so it has a window with a neighbour: jump to the next one
            times = windows[current]
            t = times[bisect_left(times, t) % len(times)]
            snapshot = g.snapshots[t]
            adjacent = [v for v in adjacency[current]
                        if ((current, v) if current < v else (v, current)) in snapshot]
            current = adjacent[rng.randrange(len(adjacent))]
            visits[current] += 1
        else:
            t = 0 if t == g.t_max else t + 1
    if len(visits) < pool:
        if len(visits) < q_size:
            raise ParameterError("random walk could not reach enough distinct vertices")
        import logging
        logging.getLogger(__name__).warning(
            "query sampling stopped early with %d of %d pool vertices", len(visits), pool)

    chosen: set[int] = set()
    candidates = sorted(visits)
    weights = [visits[v] for v in candidates]
    for _ in range(q_size):
        i = rng.choices(range(len(weights)), weights)[0]
        chosen.add(candidates.pop(i))
        del weights[i]
    return chosen


# -- attribute ingestion ---------------------------------------------------------------


def read_attribute_table(source, g: TemporalGraph) -> dict[int, str]:
    """Read a two-column ``vertex_label attribute_value`` table keyed to graph
    vertices from a path (``.gz`` included), bytes or an open text stream.

    Unknown vertex labels are warned about and skipped; a line with fewer
    than two fields, or text that is not UTF-8, raises ``EdgeListFormatError``.
    """
    attributes: dict[int, str] = {}
    unknown = 0
    with _opened(source) as stream:
        for lineno, line in enumerate(stream, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.replace(",", " ").split()
            if len(parts) < 2:
                raise EdgeListFormatError("expected 'vertex_label value'", lineno)
            label, value = parts[0], parts[1]
            try:
                attributes[g.index_of(label)] = value
            except UnknownLabelError:
                unknown += 1
    if unknown:
        import logging
        logging.getLogger(__name__).warning(
            "skipped %d attribute rows with unknown vertex labels", unknown)
    return attributes
