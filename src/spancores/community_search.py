"""Temporal community search: segment the time domain into h intervals, each
carrying a subgraph that contains the query vertices, maximizing the summed
minimum degree.

The per-interval subproblem is solved by the highest-order core containing the
query, whose order acts as the interval's score.  Segmenting the domain is
then classic optimal sequence segmentation by dynamic programming over one
score profile: ``profile(te, starts)`` gives the scores of ``[a, te]`` at the
exact start ``a`` of every candidate segment ending at ``te``, as runs of
equal score.  The score never falls as ``a`` grows, so each score value
forms one run at most, and the DP answers each run with one lookup in a
stack of suffix minima (see ``_segment_dp``).  The basic route (the test
oracle) reads a table of every interval's score and runs the DP over every
timestamp.  The fast routes, ``tcs_efficient`` and the embeddings
(``_corners``), look each score up in the query-constrained maximal cores
and run the DP only over a reduced set of candidate segment ends, which
suffices for optimality.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import chain, pairwise
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .graph import Interval, ParameterError, TemporalGraph
from .maximal_cores import _validate_query, query_constrained_scan
from .span_cores import DecompositionStats, _seeded_coreness
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


def _dominance_profile(corners: Collection[tuple[int, int, int]]) -> Profile:
    """The profile of the query-constrained maximal cores' ``(start, end, order)``.

    The score of an interval is the highest order among the cores whose span
    contains it (0 if none), so no per-interval table is materialized: per
    end, the running maximum by start over the cores reaching it steps up
    exactly where a core beats every earlier one.
    """
    spans = sorted(corners)

    def profile(te: int, starts: Sequence[int]) -> list[tuple[int, int]]:
        steps = []
        peak = 0
        for s, e, k in spans:
            if e >= te and k > peak:
                peak = k
                steps.append((s, k))
        return _runs(steps, starts)

    return profile


def _corners(g: TemporalGraph, stats: DecompositionStats | None
             ) -> list[list[tuple[int, int, int]]]:
    """Per vertex u, the ``(ts, te, order)`` of ``query_constrained_scan``'s
    cores for ``{u}``, from one enumeration recorded in ``stats``: the spans
    where u's coreness beats that of ``[ts, te + 1]``, the next span if it
    has the same start, and that of ``[ts - 1, te]``, held in ``left`` (a
    start before ``ts`` that reaches ``te`` has ``ts - 1`` reach it).  A span
    sharing its labelling with either is skipped whole.
    """
    corners: list[list[tuple[int, int, int]]] = [[] for _ in g.vertices]
    left: dict[int, dict[int, int]] = {}  # per end, the last start's labelling
    spans = chain(_seeded_coreness(g, stats), [(None, None, {})])
    for (ts, te, labels), (start, _, following) in pairwise(spans):
        right = following if start == ts else {}
        wider = left.get(te, {})
        left[te] = labels
        left.pop(ts - 1, None)  # no start from ts on reaches end ts - 1
        if labels is not right and labels is not wider:
            for u, c in labels.items():
                if c > right.get(u, 0) and c > wider.get(u, 0):
                    corners[u].append((ts, te, c))
    return corners


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

    The DP fills one column i at a time.  Within end r's profile the score
    only rises from one run to the next, so a run may price every split from
    its own first one up to ``r - 1`` at its value: that overstates the later
    splits, which their own runs price exactly.  A run's best split is then
    the leftmost minimum of column i - 1 over a suffix, read from a stack of
    the column's suffix minima up to ``r - 1`` (an entry is popped only by a
    strictly cheaper later split, so ties keep the leftmost).  The runs are
    tried from the left, a later one winning only when strictly cheaper.
    With ``|D| = len(ends)`` the cost is O(h * |D| * runs * log |D|) instead
    of the O(h * |D|^2) of trying every split.  ``stats`` counts the
    candidate ends and the runs answered (``dp_runs``).
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
    queries = 0
    for i in range(1, min(h, n)):
        previous, column = column, [None] * n
        splits: list[int] = []  # the suffix minima of previous[i - 1:r]
        costs: list[int] = []
        for r in range(i, n):
            cost = previous[r - 1]
            while costs and costs[-1] > cost:
                splits.pop()
                costs.pop()
            splits.append(r - 1)
            costs.append(cost)
            best = None
            for first, last, value in ranges[r]:
                if last < i:
                    continue
                # the segment starting at start index j follows split j - 1
                k = bisect_left(splits, first - 1)
                cost = costs[k] - value
                if best is None or cost < best:
                    best, best_split = cost, splits[k]
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
    profile = _dominance_profile([(c.span.start, c.span.end, c.order) for c in cores])
    return _materialize(g, qs, *_best_segmentation(ends, profile, h, stats), stats)
