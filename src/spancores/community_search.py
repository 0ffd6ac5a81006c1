"""Temporal community search: segment the time domain into h intervals, each
carrying a subgraph that contains the query vertices, maximizing the summed
minimum degree.

The per-interval subproblem is solved by the highest-order core containing the
query, whose order acts as the interval's score.  Segmenting the domain is
then classic optimal sequence segmentation by dynamic programming over one
score profile: ``profile(te, starts)`` gives the scores of ``[a, te]`` at the
exact start ``a`` of every candidate segment ending at ``te``, as runs of
equal score.  The score never falls as ``a`` grows, so each score value
forms one run at most, and the DP answers each run with one range-minimum
query (see ``_segment_dp``).  The basic route (the test
oracle) reads a table of every interval's score and runs the DP over every
timestamp; the efficient route answers by dominance lookup over the
query-constrained maximal cores and runs the DP only over a reduced set of
candidate segment ends, which is sufficient for optimality.  Each route
builds its own profile and candidate ends, then runs the same DP and
materializes the segments the same way.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .graph import Interval, ParameterError, TemporalGraph
from .maximal_cores import _undominated, _validate_query, query_constrained_scan
from .span_cores import DecompositionStats, SpanCore, _seeded_coreness
from .static_core import core_decomposition


class Segment(NamedTuple):
    """One community: its interval, member set, and minimum interval degree."""

    span: Interval
    members: frozenset[int]
    min_degree: int


class Segmentation(NamedTuple):
    """An ordered partition of the time domain into scored communities."""

    segments: tuple[Segment, ...]
    objective: int


def single_tcs(g: TemporalGraph, query: Collection[int], interval: Interval,
               stats: DecompositionStats | None = None) -> tuple[int, set[int]]:
    """Best community for one fixed interval: the highest-order core of the
    interval graph that still contains every query vertex.

    Returns order 0 with the full vertex set when the query is not jointly
    inside any core; an empty query yields the unconstrained innermost core.
    Only the interval edges' endpoints are peeled, and recorded in ``stats``:
    any other vertex has coreness 0.
    """
    qs = _validate_query(g, query)
    edges = g.interval_edges(interval)
    endpoints = {u for edge in edges for u in edge}
    if stats is not None:
        stats.record(len(endpoints))
    coreness = core_decomposition(endpoints, edges)
    order = min(coreness.get(q, 0) for q in qs) if qs else max(coreness.values(), default=0)
    if order == 0:
        return 0, set(g.vertices)
    return order, {u for u, c in coreness.items() if c >= order}


# profile(te, starts) -> runs: the scores of [a, te] for the ascending starts
# a, as (first start index, value) pairs with nondecreasing values; the first
# run begins at index 0 and each run lasts until the next one begins
Profile = Callable[[int, Sequence[int]], list[tuple[int, int]]]


def _runs(steps: Iterable[tuple[int, int]], starts: Sequence[int]) -> list[tuple[int, int]]:
    """The runs over ``starts`` of a step function of the start that is 0
    before its first step and takes each ``(first start, value)`` step's value
    from that start on; the steps ascend in start and never fall in value."""
    runs = [(0, 0)]
    for a, value in steps:
        if value <= runs[-1][1]:
            continue
        j = bisect_left(starts, a)
        if j == len(starts):
            break
        if runs[-1][0] == j:  # the previous step covers no asked start
            runs[-1] = (j, value)
        else:
            runs.append((j, value))
    return runs


def _table_profile(scores: dict[tuple[int, int], int]) -> Profile:
    """The profile of a ``{(ts, te): score}`` table; missing intervals score 0.

    The table must be anti-monotone in the span, as every score table of
    span-cores is: then each end's stored starts run contiguously up to the
    end with nondecreasing scores, and its runs are read off its stored
    entries alone, whatever the starts asked.
    """
    by_end: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for (ts, te), value in scores.items():
        by_end[te].append((ts, value))
    return lambda te, starts: _runs(sorted(by_end.get(te, ())), starts)


def _dominance_profile(cores: Collection[SpanCore]) -> Profile:
    """The profile answered from the query-constrained maximal cores.

    The score of an interval is the highest order among the cores whose span
    contains it (0 if none), so no per-interval table is materialized: per
    end, the running maximum by start over the cores reaching it steps up
    exactly where a core beats every earlier one.
    """
    spans = sorted((c.span.start, c.span.end, c.order) for c in cores)

    def profile(te: int, starts: Sequence[int]) -> list[tuple[int, int]]:
        steps = []
        peak = 0
        for s, e, k in spans:
            if e >= te and k > peak:
                peak = k
                steps.append((s, k))
        return _runs(steps, starts)

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


class ReducedDomain(NamedTuple):
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


def _segment_dp(ends: Sequence[int], profile: Profile, h: int,
                stats: DecompositionStats | None = None):
    """Optimal segmentation DP over candidate end timestamps.

    ``P[r][i]`` is the least cost (negated summed score) of splitting the
    prefix ending at ``ends[r]`` into ``i + 1`` nonempty segments (``None``
    when ``i > r``); ``R[r][i]`` records the chosen previous end index.  The
    segment after end index ``split`` starts at ``ends[split] + 1``.  Ties go
    to the smallest split index, making reconstruction deterministic.

    The DP fills one column i at a time.  Within one run of end r's profile
    the segment score is fixed, so the best split there is the leftmost
    minimum of column i - 1 over the run's range: a sparse table of
    ``(cost, split)`` pairs over that column answers it with two lookups,
    tuple order giving the leftmost split on ties, and the runs are tried
    from the left, a later one winning only when strictly cheaper.  With
    ``|D| = len(ends)`` the cost is O(h * |D| * (runs + log |D|)) instead of
    the O(h * |D|^2) of trying every split.  ``stats`` counts the candidate
    ends and the range queries answered (``dp_runs``).
    """
    n = len(ends)
    starts = [0] + [e + 1 for e in ends[:-1]]
    # per end r: (first start index, last start index, score) of each run
    ranges = []
    for r in range(n):
        runs = profile(ends[r], starts[:r + 1])
        lasts = [j - 1 for j, _ in runs[1:]] + [r]
        ranges.append([(j, last, value) for (j, value), last in zip(runs, lasts)])
    column: list[int | None] = [-first_run[2] for first_run, *_ in ranges]
    P: list[list[int | None]] = [[cost] + [None] * (h - 1) for cost in column]
    R: list[list[int]] = [[-1] * h for _ in range(n)]
    log2 = [0, 0]  # log2[m]: the table level whose two windows cover m splits
    while len(log2) <= n:
        log2.append(log2[len(log2) // 2] + 1)
    queries = 0
    for i in range(1, min(h, n)):
        # level k holds the least (cost, split) of column[split : split + 2**k],
        # for split = i - 1, i, ...; the segment starting at start index j
        # follows split j - 1
        level = list(zip(column[i - 1:n - 1], range(i - 1, n - 1)))
        table = [level]
        width = 1
        while len(level) > width:
            level = list(map(min, level, level[width:]))
            table.append(level)
            width *= 2
        column = [None] * n
        for r in range(i, n):
            best = None
            for first, last, value in ranges[r]:
                if last < i:
                    continue
                # the run's splits, as offsets into the table's levels
                lo = first - i if first > i else 0
                hi = last - i
                k = log2[hi - lo + 1]
                a, b = table[k][lo], table[k][hi + 1 - (1 << k)]
                cost, split = a if a < b else b
                cost -= value
                if best is None or cost < best:
                    best, best_split = cost, split
                queries += 1
            column[r] = P[r][i] = best
            R[r][i] = best_split
    if stats is not None:
        stats.candidate_ends += n
        stats.dp_runs += queries
    return P, R


def _best_segmentation(ends: Sequence[int], profile: Profile, h: int,
                       stats: DecompositionStats | None) -> tuple[list[Interval], int]:
    """The spans and objective of the DP's optimal h-segmentation over ``ends``."""
    n = len(ends)
    P, R = _segment_dp(ends, profile, h, stats)
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
                 objective: int, stats: DecompositionStats | None) -> Segmentation:
    """Each span's community, checked against the DP's objective; ``stats``
    records its peels."""
    segments: list[Segment] = []
    for span in spans:
        order, members = single_tcs(g, query, span, stats)
        if order == 0:
            # any vertex set scores 0 here; the query itself is the least misleading
            members = set(query)
        segments.append(Segment(span=span, members=frozenset(members), min_degree=order))

    if sum(seg.min_degree for seg in segments) != objective:
        raise RuntimeError("internal: segmentation objective does not match its segments")
    return Segmentation(segments=tuple(segments), objective=objective)


def _validate_h(g: TemporalGraph, h: int) -> None:
    if h < 1:
        raise ParameterError("segment count h must be at least 1")
    if h > g.t_max + 1:
        raise ParameterError(f"cannot split {g.t_max + 1} timestamps into {h} nonempty segments")


def tcs_basic(g: TemporalGraph, query: Collection[int], h: int,
              stats: DecompositionStats | None = None) -> Segmentation:
    """Temporal community search with the DP over every timestamp of the domain."""
    _validate_h(g, h)
    qs = frozenset(query)
    profile = _table_profile(penalty_table_full(g, qs, stats))
    return _materialize(g, qs, *_best_segmentation(range(g.t_max + 1), profile, h, stats), stats)


def tcs_efficient(g: TemporalGraph, query: Collection[int], h: int,
                  stats: DecompositionStats | None = None) -> Segmentation:
    """Temporal community search over the reduced boundary domain.

    Interval scores are answered by dominance lookup over the
    query-constrained maximal cores.  The objective always equals
    ``tcs_basic``'s; the chosen segmentation may differ where ties exist.
    """
    _validate_h(g, h)
    qs = frozenset(query)
    cores = query_constrained_scan(g, qs, stats)
    ends = reduced_time_domain(g.t_max, h, [core.span for core in cores]).timestamps
    return _materialize(g, qs, *_best_segmentation(ends, _dominance_profile(cores), h, stats),
                        stats)


def _tcs_every_vertex(g: TemporalGraph, h: int,
                      stats: DecompositionStats | None) -> list[list[int]]:
    """The segment scores of ``tcs_efficient(g, {u}, h)`` for every vertex u,
    in index order, from one enumeration pass shared by all of them.

    The pass keeps, per vertex, its coreness on each interval it reaches:
    the vertex's ``penalty_table_full(g, {u})`` score table, all positive,
    since every peeled vertex is an endpoint of an interval edge.  A
    vertex's undominated positive scores are exactly the spans of
    ``query_constrained_scan(g, {u})``, so each per-vertex DP sees the same
    candidate ends and the same interval scores as ``tcs_efficient``'s; a
    row reads its segments' scores from the vertex's table, with no re-peel.
    ``stats`` records the enumeration's peels and every row's DP work.
    """
    tables: list[dict[tuple[int, int], int]] = [{} for _ in g.vertices]
    for ts, te, coreness in _seeded_coreness(g, stats):
        key = (ts, te)  # one key object shared by every vertex's table
        for u, c in coreness.items():
            tables[u][key] = c
    rows = []
    for scores in tables:
        spans = [Interval(ts, te) for ts, te in _undominated(scores)]
        ends = reduced_time_domain(g.t_max, h, spans).timestamps
        segments, _ = _best_segmentation(ends, _table_profile(scores), h, stats)
        rows.append([scores.get((s.start, s.end), 0) for s in segments])
    return rows
