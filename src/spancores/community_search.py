"""Temporal community search: segment the time domain into h intervals, each
carrying a subgraph that contains the query vertices, maximizing the summed
minimum degree.

The per-interval subproblem is solved by the highest-order core containing the
query, whose order acts as the interval's score.  Segmenting the domain is
then classic optimal sequence segmentation by dynamic programming over the
query's corners, the ``(start, end, order)`` of its undominated cores: an
interval scores the highest order among the corners whose span contains it
(see ``_segment_dp``), and each chosen segment's score is read back off the
DP.  The basic route (the test oracle) takes its corners from a table of
every interval's score and runs the DP over every timestamp.  The fast
routes, ``tcs_efficient`` and the embeddings, take the query-constrained
maximal cores as corners and run the DP only over a reduced set of candidate
segment ends, which suffices for optimality (``_corner_segmentation``).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, pairwise
from typing import Collection, NamedTuple, Sequence

from .graph import Interval, ParameterError, TemporalGraph
from .maximal_cores import _undominated, _validate_query, query_constrained_scan
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


def _corners(g: TemporalGraph, stats: DecompositionStats | None
             ) -> list[list[tuple[int, int, int]]]:
    """Per vertex u, the ``(ts, te, order)`` of ``query_constrained_scan``'s
    cores for ``{u}``, from one enumeration recorded in ``stats``: the spans
    where u's coreness beats that of ``[ts, te + 1]`` (``right``, the next
    run of the start: inside a run it has the same labelling, so only a
    run's last end qualifies) and that of ``[ts - 1, te]`` (``wider``).
    ``left`` holds, per run end, the latest start's run ending there.  If no
    run of ``ts - 1`` ends at ``te``, either no start before ``ts`` reaches
    ``te``, so there is no entry, or ``E[ts - 1, te] = E[ts - 1, te + 1]``,
    inside ``E[ts, te + 1]``: then ``right`` bounds the corenesses of
    ``[ts - 1, te]`` and of any older ``left[te]``, so the test is unchanged.
    """
    corners: list[list[tuple[int, int, int]]] = [[] for _ in g.vertices]
    left: dict[int, dict[int, int]] = {}  # per run end, the latest start's labelling
    runs = chain(_seeded_coreness(g, stats), [(None, None, None, {})])
    for (ts, _, te, labels), (start, _, _, following) in pairwise(runs):
        right = following if start == ts else {}
        wider = left.get(te, {})
        left[te] = labels
        left.pop(ts - 1, None)  # no start from ts on reaches end ts - 1
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
    for ts, first, last, coreness in _seeded_coreness(g, stats):
        v = min(coreness.get(q, 0) for q in qs) if qs else max(coreness.values())
        if v > 0:
            values.update(dict.fromkeys([(ts, te) for te in range(first, last + 1)], v))
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


def _segment_dp(ends: Sequence[int], corners: Collection[tuple[int, int, int]], h: int,
                stats: DecompositionStats | None = None):
    """Optimal segmentation DP over candidate end timestamps, an interval
    scoring the highest order among the ``(start, end, order)`` corners whose
    span contains it (0 if none).

    ``P[r][i]`` is the least cost (negated summed score) of splitting the
    prefix ending at ``ends[r]`` into ``i + 1`` nonempty segments (``None``
    when ``i > r``); ``R[r][i]`` records the chosen previous end index.  The
    segment after end index ``split`` starts at ``ends[split] + 1``.  Ties go
    to the smallest split index, making reconstruction deterministic.

    Per end r, the corners reaching it become, by start, runs of candidate
    start indices: a corner that beats the last run's score opens a run at the
    first start it reaches, replacing a run that reached no start.  The score
    only rises from run to run, so a run may price every split from its own
    first one up to ``r - 1`` at its value; that understates the later splits'
    scores, but their own runs price them exactly and strictly cheaper, so
    every chosen split is priced exactly.  The DP fills one column i at a
    time; a run's best split is the leftmost minimum of column i - 1 over a
    suffix, read from a stack of the column's suffix minima up to ``r - 1``
    (an entry is popped only by a strictly cheaper later split, so ties keep
    the leftmost).  The runs are tried from the left, a later one winning only
    when strictly cheaper.  With ``|D| = len(ends)`` the cost is
    O(h * |D| * runs * log |D|) instead of the O(h * |D|^2) of trying every
    split.  ``stats`` counts the candidate ends and the runs answered
    (``dp_runs``).
    """
    n = len(ends)
    starts = [0] + [e + 1 for e in ends[:-1]]
    corners = sorted(corners)
    # per end r: (first start index, last start index, score) of each run
    ranges = []
    for r in range(n):
        runs = [(0, 0)]  # (first start index, score)
        for s, e, value in corners:
            if e >= ends[r] and value > runs[-1][1]:
                j = bisect_left(starts, s, 0, r + 1)
                if j > r:
                    break
                if runs[-1][0] == j:  # the last run reaches no start
                    runs[-1] = (j, value)
                else:
                    runs.append((j, value))
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


def _best_segmentation(ends: Sequence[int], corners: Collection[tuple[int, int, int]], h: int,
                       stats: DecompositionStats | None) -> list[tuple[Interval, int]]:
    """The ``(span, score)`` of each segment of the DP's optimal
    h-segmentation over ``ends``, in order; a score is the cost its split
    saves, which ``_segment_dp`` prices exactly."""
    n = len(ends)
    P, R = _segment_dp(ends, corners, h, stats)
    if P[n - 1][h - 1] is None:
        raise RuntimeError(f"internal: no feasible {h}-segmentation over {n} boundaries")

    segments = []
    idx = n - 1
    for i in range(h - 1, -1, -1):
        split = R[idx][i]  # -1 for the first segment
        start, before = (ends[split] + 1, P[split][i - 1]) if split >= 0 else (0, 0)
        segments.append((Interval(start, ends[idx]), before - P[idx][i]))
        idx = split
    return segments[::-1]


def _materialize(g: TemporalGraph, query: frozenset[int],
                 scored: Sequence[tuple[Interval, int]],
                 stats: DecompositionStats | None) -> Segmentation:
    """Each segment's community, its order checked against the DP's score;
    ``stats`` records its peels."""
    segments: list[Segment] = []
    for span, score in scored:
        order, members = single_tcs(g, query, span, stats)
        if order != score:
            raise RuntimeError(f"internal: {span} has order {order}, not its DP score {score}")
        if order == 0:
            # any vertex set scores 0 here; the query itself is the least misleading
            members = set(query)
        segments.append(Segment(span=span, members=frozenset(members), min_degree=order))
    return Segmentation(segments=tuple(segments), objective=sum(score for _, score in scored))


def _corner_segmentation(corners: Collection[tuple[int, int, int]], t_max: int, h: int,
                         stats: DecompositionStats | None) -> list[tuple[Interval, int]]:
    """``_best_segmentation`` over the reduced domain of the query-constrained
    maximal cores' ``(start, end, order)``."""
    ends = reduced_time_domain(t_max, h, [Interval(s, e) for s, e, _ in corners]).timestamps
    return _best_segmentation(ends, corners, h, stats)


def _validate_h(g: TemporalGraph, h: int) -> None:
    if h < 1:
        raise ParameterError("segment count h must be at least 1")
    if h > g.t_max + 1:
        raise ParameterError(f"cannot split {g.t_max + 1} timestamps into {h} nonempty segments")


def tcs_basic(g: TemporalGraph, query: Collection[int], h: int) -> Segmentation:
    """Temporal community search with the DP over every timestamp of the
    domain, its corners the undominated spans of ``penalty_table_full``: the
    table is anti-monotone in the span, so they score every interval as the
    table does."""
    _validate_h(g, h)
    qs = frozenset(query)
    table = penalty_table_full(g, qs)
    corners = [(ts, te, table[ts, te]) for ts, te in _undominated(table)]
    return _materialize(g, qs, _best_segmentation(range(g.t_max + 1), corners, h, None), None)


def tcs_efficient(g: TemporalGraph, query: Collection[int], h: int,
                  stats: DecompositionStats | None = None) -> Segmentation:
    """Temporal community search over the reduced boundary domain.

    The query-constrained maximal cores are the DP's corners.  The objective
    always equals ``tcs_basic``'s; the chosen segmentation may differ where
    ties exist.
    """
    _validate_h(g, h)
    qs = frozenset(query)
    corners = [(c.span.start, c.span.end, c.order) for c in query_constrained_scan(g, qs, stats)]
    return _materialize(g, qs, _corner_segmentation(corners, g.t_max, h, stats), stats)
