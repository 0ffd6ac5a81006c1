"""Downstream analytics over decomposition outputs: activity summaries,
attribute purity, span-length statistics, anomaly filtering, per-vertex
community-search embeddings, and query sampling.

The activity summary reads each span's top stored order without building
cores.  The embeddings fold one span-core enumeration into every vertex's
maximal cores, followed by a small segmentation DP per vertex."""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

from .community_search import (_best_segmentation, _corners, _dominance_profile,
                               _validate_h, reduced_time_domain)
from .graph import (EdgeListFormatError, Interval, ParameterError, TemporalGraph,
                    UnknownLabelError, _opened)
from .maximal_cores import maximal_span_cores
from .span_cores import DecompositionStats, SpanCore, SpanCoreSet

DEFAULT_MIN_SPAN = 2  # single-window cores are short interactions, not structure


class ActivityCell(NamedTuple):
    """Peak order among cores starting at ``start`` with span length ``span_length``."""

    start: int
    span_length: int
    max_order: int


def activity_summary(cores: SpanCoreSet,
                     min_span: int = DEFAULT_MIN_SPAN) -> list[ActivityCell]:
    """One record per (start, span length) cell holding the highest order
    there, read from each span's top stored order."""
    return [ActivityCell(start=ts, span_length=te - ts + 1, max_order=k)
            for (ts, te), k in sorted(cores.top_orders().items()) if te - ts + 1 >= min_span]


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
    each vertex's query-constrained maximal cores, with no re-peel and no
    per-vertex score table: a row costs only its reduced-domain DP over their
    profile.  ``stats`` records the enumeration's peels and every row's DP work.
    """
    _validate_h(g, h)
    rows = []
    for corners in _corners(g, stats):
        profile = _dominance_profile(corners)
        ends = reduced_time_domain(g.t_max, h, [Interval(s, e) for s, e, _ in corners])
        segments, _ = _best_segmentation(ends.timestamps, profile, h, stats)
        rows.append([profile(s.end, [s.start])[0][1] for s in segments])
    return rows


# -- query sampling ------------------------------------------------------------------


def sample_query_vertices(g: TemporalGraph, q_size: int, p: float = 0.8,
                          pool_size: int | None = None, seed: int | None = 0) -> set[int]:
    """Sample query vertices that plausibly interact, via a temporal random walk.

    A single query vertex is drawn uniformly from the whole vertex set.  For
    larger queries a walker starts at a uniform vertex and timestamp 0; with
    probability ``p`` it moves to a neighbor in the current snapshot (jumping
    forward, wrapping at the domain end, to the next timestamp where the
    current vertex has a neighbor), otherwise it stays and time advances.
    Visits accumulate until ``pool_size`` distinct vertices (default
    ``3 * q_size``, capped at ``g.n``) are seen, then ``q_size`` distinct
    vertices are drawn with probability proportional to visit frequency.
    """
    if q_size < 1:
        raise ParameterError("q_size must be at least 1")
    if q_size > g.n:
        raise ParameterError(f"cannot sample {q_size} query vertices from {g.n}")
    if not 0 < p <= 1:  # NaN included
        raise ParameterError("walk probability p must be within (0, 1]")
    pool = min(3 * q_size, g.n) if pool_size is None else pool_size
    if not q_size <= pool <= g.n:  # a larger pool could never fill
        raise ParameterError(f"pool size must be within q_size..{g.n}")
    rng = random.Random(seed)
    if q_size == 1:
        return {rng.randrange(g.n)}
    if g.temporal_edge_count() == 0:
        raise ParameterError("cannot sample interacting vertices from an edgeless graph")

    step_limit = max(10_000, 200 * pool * (g.t_max + 1))

    current = rng.randrange(g.n)
    visits: Counter[int] = Counter({current: 1})
    t = 0
    for _ in range(step_limit):
        if len(visits) >= pool:
            break
        if rng.random() < p:
            neighbors = g.neighbors(t, current)
            if not neighbors:
                t = _next_active_timestamp(g, current, t)
                neighbors = g.neighbors(t, current)
            current = neighbors[rng.randrange(len(neighbors))]
            visits[current] += 1
        else:
            t = 0 if t == g.t_max else t + 1
    else:
        if len(visits) < q_size:
            raise ParameterError("random walk could not reach enough distinct vertices")
        import logging
        logging.getLogger(__name__).warning(
            "query sampling stopped early with %d of %d pool vertices", len(visits), pool)

    chosen: set[int] = set()
    candidates = sorted(visits)
    weights = [visits[v] for v in candidates]
    for _ in range(q_size):
        total = sum(weights)
        mark = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if mark < acc:
                chosen.add(candidates[i])
                del candidates[i]
                del weights[i]
                break
    return chosen


def _next_active_timestamp(g: TemporalGraph, vertex: int, t: int) -> int:
    """First timestamp after ``t`` (wrapping, inclusive of ``t`` after a full
    cycle) where ``vertex`` has a neighbor."""
    span = g.t_max + 1
    for step in range(1, span + 1):
        candidate = (t + step) % span
        if g.neighbors(candidate, vertex):
            return candidate
    raise ValueError(f"vertex {vertex} is isolated at every timestamp")


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
