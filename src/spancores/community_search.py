"""Temporal community search: segment the time domain into h intervals, each
carrying a subgraph that contains the query vertices, maximizing the summed
minimum degree.

The per-interval subproblem is solved by the highest-order core containing the
query, whose order acts as the interval's score.  Segmenting the domain is
then classic optimal sequence segmentation by dynamic programming over one
score profile: ``profile(te, starts)`` gives the scores of ``[a, te]`` for
each start ``a``, and the DP asks it at the exact start of every candidate
segment.  The basic route (the test oracle) reads a table of every interval's
score and runs the DP over every timestamp; the efficient route answers by
dominance lookup over the query-constrained maximal cores and runs the DP only
over a reduced set of candidate segment ends, which is sufficient for
optimality.  Both share one solver body and differ only in the profile and
the candidate ends they hand it.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Collection, Sequence

from .graph import Interval, TemporalGraph
from .maximal_cores import _undominated, _validate_query, query_constrained_scan
from .span_cores import DecompositionStats, SpanCore, _seeded_coreness
from .static_core import core_decomposition


@dataclass(frozen=True)
class Segment:
    """One community: its interval, member set, and minimum interval degree."""

    span: Interval
    members: frozenset[int]
    min_degree: int


@dataclass(frozen=True)
class Segmentation:
    """An ordered partition of the time domain into scored communities."""

    segments: tuple[Segment, ...]
    objective: int

    def spans(self) -> list[Interval]:
        return [seg.span for seg in self.segments]


def single_tcs(g: TemporalGraph, query: Collection[int],
               interval: Interval) -> tuple[int, set[int]]:
    """Best community for one fixed interval: the highest-order core of the
    interval graph that still contains every query vertex.

    Returns order 0 with the full vertex set when the query is not jointly
    inside any core; an empty query yields the unconstrained innermost core.
    """
    qs = _validate_query(g, query)
    coreness = core_decomposition(g.vertices, g.interval_edges(interval))
    order = min(coreness[q] for q in qs) if qs else max(coreness.values(), default=0)
    if order == 0:
        return 0, set(g.vertices)
    return order, {u for u, c in coreness.items() if c >= order}


# profile(te, starts): the scores of [a, te] for each start a, starts ascending
Profile = Callable[[int, Sequence[int]], list[int]]


def _table_profile(scores: dict[tuple[int, int], int]) -> Profile:
    """The profile of a ``{(ts, te): score}`` table; missing intervals score 0."""
    return lambda te, starts: [scores.get((a, te), 0) for a in starts]


def _dominance_profile(cores: Collection[SpanCore]) -> Profile:
    """The profile answered from the query-constrained maximal cores.

    The score of an interval is the highest order among the cores whose span
    contains it (0 if none), so no per-interval table is materialized: per
    end, a running maximum over the cores reaching it, by start, answers
    each start by bisection.
    """
    spans = sorted((c.span.start, c.span.end, c.order) for c in cores)

    def profile(te: int, starts: Sequence[int]) -> list[int]:
        eligible = [(s, k) for s, e, k in spans if e >= te]
        firsts = [s for s, _ in eligible]
        peaks = list(accumulate((k for _, k in eligible), max, initial=0))
        return [peaks[bisect_right(firsts, a)] for a in starts]

    return profile


def penalty_table_full(g: TemporalGraph, query: Collection[int],
                       stats: DecompositionStats | None = None) -> dict[tuple[int, int], int]:
    """``{(ts, te): score}`` for every interval with a positive score, by one
    seeded enumeration pass.

    Each interval's peel is seeded exactly as in the full span-core
    enumeration; the interval's score is the smallest coreness among the query
    vertices there (0 when some query vertex is missing or isolated).
    Intervals never reached by the enumeration keep score 0.
    """
    qs = _validate_query(g, query)
    values: dict[tuple[int, int], int] = {}
    for ts, te, coreness in _seeded_coreness(g, stats):
        v = min(coreness.get(q, 0) for q in qs) if qs else max(coreness.values())
        if v > 0:
            values[(ts, te)] = v
    return values


def _vertex_score_tables(g: TemporalGraph) -> list[dict[tuple[int, int], int]]:
    """``penalty_table_full(g, {u})``'s scores for every vertex u at once.

    One seeded enumeration pass keeps, per vertex, its coreness on each
    interval the enumeration reaches; entry u of the result is that vertex's
    score table.  Every peeled vertex is an endpoint of an interval edge, so
    every coreness kept is positive.
    """
    tables: list[dict[tuple[int, int], int]] = [{} for _ in g.vertices]
    for ts, te, coreness in _seeded_coreness(g, None):
        key = (ts, te)  # one key object shared by every vertex's table
        for u, c in coreness.items():
            tables[u][key] = c
    return tables


@dataclass(frozen=True)
class ReducedDomain:
    """Candidate segment-boundary timestamps.

    ``timestamps`` is sorted ascending, always contains the last timestamp,
    and has at least ``min(h + 1, |T|)`` entries.
    """

    timestamps: tuple[int, ...]


def reduced_time_domain(t_max: int, h: int, spans: Collection[Interval]) -> ReducedDomain:
    """Timestamps sufficient for an optimal segmentation: every timestamp under
    some maximal span, the immediate flanks of each span, the domain end, and
    enough early filler timestamps to allow h nonempty segments."""
    chosen = {t_max}
    for span in spans:
        chosen.update(range(max(span.start - 1, 0), min(span.end + 1, t_max) + 1))
    for t in range(t_max + 1):
        if len(chosen) > h:
            break
        chosen.add(t)
    return ReducedDomain(timestamps=tuple(sorted(chosen)))


def _segment_dp(ends: Sequence[int], profile: Profile, h: int):
    """Optimal segmentation DP over candidate end timestamps.

    ``P[r][i]`` is the least cost (negated summed score) of splitting the
    prefix ending at ``ends[r]`` into ``i + 1`` nonempty segments; ``R[r][i]``
    records the chosen previous end index.  The segment after end index
    ``split`` starts at ``ends[split] + 1``.  Ties go to the smallest split
    index, making reconstruction deterministic.
    """
    n = len(ends)
    starts = [0] + [e + 1 for e in ends[:-1]]
    P: list[list[int | None]] = [[None] * h for _ in range(n)]
    R: list[list[int]] = [[-1] * h for _ in range(n)]
    for r in range(n):
        scores = profile(ends[r], starts[:r + 1])
        P[r][0] = -scores[0]
        for i in range(1, min(h, r + 1)):
            best = None
            best_split = -1
            for split in range(i - 1, r):
                prev = P[split][i - 1]
                if prev is None:
                    continue
                cost = prev - scores[split + 1]
                if best is None or cost < best:
                    best = cost
                    best_split = split
            P[r][i] = best
            R[r][i] = best_split
    return P, R


def _best_segmentation(ends: Sequence[int], profile: Profile,
                       h: int) -> tuple[list[Interval], int]:
    """The spans and objective of the DP's optimal h-segmentation over ``ends``."""
    n = len(ends)
    P, R = _segment_dp(ends, profile, h)
    objective = P[n - 1][h - 1]
    if objective is None:
        raise RuntimeError(f"internal: no feasible {h}-segmentation over {n} boundaries")

    spans = []
    idx = n - 1
    for i in range(h - 1, -1, -1):
        split = R[idx][i]  # -1 for the first segment
        spans.append(Interval(ends[split] + 1 if split >= 0 else 0, ends[idx]))
        idx = split
    return spans[::-1], -objective


def _materialize(g: TemporalGraph, query: frozenset[int], spans: Sequence[Interval],
                 objective: int) -> Segmentation:
    """Each span's community, checked against the DP's objective."""
    segments: list[Segment] = []
    for span in spans:
        order, members = single_tcs(g, query, span)
        if order == 0:
            # any vertex set scores 0 here; the query itself is the least misleading
            members = set(query)
        segments.append(Segment(span=span, members=frozenset(members), min_degree=order))

    if sum(seg.min_degree for seg in segments) != objective:
        raise RuntimeError("internal: segmentation objective does not match its segments")
    return Segmentation(segments=tuple(segments), objective=objective)


def _validate_h(g: TemporalGraph, h: int) -> None:
    if h < 1:
        raise ValueError("segment count h must be at least 1")
    if h > g.t_max + 1:
        raise ValueError(f"cannot split {g.t_max + 1} timestamps into {h} nonempty segments")


def _solve(g: TemporalGraph, query: Collection[int], h: int, timings: dict | None,
           prepare: Callable[[frozenset[int]], tuple[Profile, Sequence[int]]]) -> Segmentation:
    """Shared solver body: ``prepare`` validates the query and returns the
    score profile plus the ascending candidate segment ends (always
    including the last timestamp); the DP and materialization follow."""
    _validate_h(g, h)
    qs = frozenset(query)
    tick = time.perf_counter()
    profile, ends = prepare(qs)
    tock = time.perf_counter()
    result = _materialize(g, qs, *_best_segmentation(ends, profile, h))
    if timings is not None:
        timings["precompute"] = tock - tick
        timings["solve"] = time.perf_counter() - tock
    return result


def tcs_basic(g: TemporalGraph, query: Collection[int], h: int,
              stats: DecompositionStats | None = None,
              timings: dict | None = None) -> Segmentation:
    """Temporal community search with the DP over every timestamp of the domain."""
    return _solve(g, query, h, timings,
                  lambda qs: (_table_profile(penalty_table_full(g, qs, stats)),
                              range(g.t_max + 1)))


def tcs_efficient(g: TemporalGraph, query: Collection[int], h: int,
                  stats: DecompositionStats | None = None,
                  timings: dict | None = None) -> Segmentation:
    """Temporal community search over the reduced boundary domain.

    Interval scores are answered by dominance lookup over the
    query-constrained maximal cores.  The objective always equals
    ``tcs_basic``'s; the chosen segmentation may differ where ties exist.
    """
    def prepare(qs: frozenset[int]):
        cores = query_constrained_scan(g, qs, stats)
        domain = reduced_time_domain(g.t_max, h, [core.span for core in cores])
        return _dominance_profile(cores), domain.timestamps

    return _solve(g, query, h, timings, prepare)


def _tcs_every_vertex(g: TemporalGraph, h: int) -> list[list[int]]:
    """The segment scores of ``tcs_efficient(g, {u}, h)`` for every vertex u,
    in index order, from one enumeration pass shared by all of them.

    A vertex's undominated positive scores are exactly the spans of
    ``query_constrained_scan(g, {u})``, so each DP sees the same candidate
    ends and the same interval scores as ``tcs_efficient``'s; a row reads
    its segments' scores from the vertex's table, with no re-peel.
    """
    rows = []
    for scores in _vertex_score_tables(g):
        spans = [Interval(ts, te) for ts, te in _undominated(scores)]
        ends = reduced_time_domain(g.t_max, h, spans).timestamps
        segments, _ = _best_segmentation(ends, _table_profile(scores), h)
        rows.append([scores.get((s.start, s.end), 0) for s in segments])
    return rows
