"""Property tests over wider random corpora than the fixed one: graphs of up
to 20 vertices and 30 timestamps built from persistent group contacts, checked
for embeddings and against the span-core definition, segmentations checked
against an exhaustive search over definitional scores, the segmentation DP
checked against the quadratic one over random step profiles, and raw
edge-list files checked against a plain reference loader."""

from itertools import accumulate, combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from spancores import (TemporalGraph, load_edge_list, maximal_span_cores, query_constrained_scan,
                       span_cores, tcs_basic, tcs_efficient, tcs_embeddings)
from spancores import graph as graph_module
from spancores.community_search import _best_segmentation, _segment_dp

from conftest import (as_definitional, definitional_span_cores, loaded, per_vertex_rows,
                      quadratic_segment_dp, reference_load, score_at)


@st.composite
def persistent_graph(draw, max_t=30):
    """A graph of up to ``max_t`` timestamps whose contacts are groups of 2-5
    vertices, each kept for a run of timestamps."""
    n = draw(st.integers(2, 20))
    t = draw(st.integers(1, max_t))
    contacts = draw(st.lists(
        st.tuples(st.sets(st.integers(0, n - 1), min_size=2, max_size=5),
                  st.integers(0, t - 1), st.integers(1, t)),
        max_size=25))
    snapshots = [[] for _ in range(t)]
    for members, start, length in contacts:
        group = sorted(members)
        pairs = [(u, v) for i, u in enumerate(group) for v in group[i + 1:]]
        for s in range(start, min(t, start + length)):
            snapshots[s].extend(pairs)
    return TemporalGraph(snapshots, [f"v{i}" for i in range(n)])


@st.composite
def persistent_graph_and_h(draw):
    """A ``persistent_graph`` plus a valid segment count h."""
    graph = draw(persistent_graph())
    return graph, draw(st.integers(1, graph.t_max + 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(persistent_graph_and_h())
def test_embedding_rows_match_per_vertex_search(case):
    g, h = case
    assert tcs_embeddings(g, h) == per_vertex_rows(g, h)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(persistent_graph())
def test_span_cores_match_the_definition(g):
    assert as_definitional(span_cores(g)) == definitional_span_cores(g)


@st.composite
def persistent_graph_and_query(draw):
    """A ``persistent_graph`` plus a nonempty query of up to 3 vertices."""
    graph = draw(persistent_graph())
    return graph, draw(st.frozensets(st.integers(0, graph.n - 1), min_size=1, max_size=3))


def undominated(cores):
    """The entries of a ``{(k, ts, te): members}`` map that no other entry
    dominates with an order at least as high over a span containing theirs."""
    return {key: members for key, members in cores.items()
            if not any(other != key and other[0] >= key[0] and other[1] <= key[1] <= key[2] <= other[2]
                       for other in cores)}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(persistent_graph_and_query())
def test_maximal_scans_match_the_definition(case):
    g, query = case
    cores = definitional_span_cores(g)
    assert as_definitional(maximal_span_cores(g)) == undominated(cores)
    # per span, the core of highest order that contains the query
    containing: dict[tuple[int, int], tuple[int, frozenset[int]]] = {}
    for (k, ts, te), members in cores.items():
        if query <= members and k > containing.get((ts, te), (0,))[0]:
            containing[(ts, te)] = (k, members)
    expected = undominated({(k, ts, te): members for (ts, te), (k, members) in containing.items()})
    assert as_definitional(query_constrained_scan(g, query)) == expected


@st.composite
def short_graph_query_and_h(draw):
    """A ``persistent_graph`` of at most 7 timestamps, a nonempty query of up
    to 3 vertices and a segment count h of at most 3."""
    graph = draw(persistent_graph(max_t=7))
    query = draw(st.frozensets(st.integers(0, graph.n - 1), min_size=1, max_size=3))
    return graph, query, draw(st.integers(1, min(3, graph.t_max + 1)))


def exhaustive_objective(cores, t_max, query, h):
    """The best summed score over every split of 0..t_max into h segments,
    where a segment scores the highest order of a definitional core on
    exactly its span that contains the query, or 0 if there is none."""
    def score(ts, te):
        return max((k for (k, s, e), members in cores.items()
                    if (s, e) == (ts, te) and query <= members), default=0)

    best = 0
    for cut in combinations(range(t_max), h - 1):
        starts = (0,) + tuple(end + 1 for end in cut)
        best = max(best, sum(score(ts, te) for ts, te in zip(starts, cut + (t_max,))))
    return best


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(short_graph_query_and_h())
def test_segmentations_match_exhaustive_search(case):
    g, query, h = case
    cores = definitional_span_cores(g)
    expected = exhaustive_objective(cores, g.t_max, query, h)
    assert tcs_basic(g, query, h).objective == expected
    assert tcs_efficient(g, query, h).objective == expected
    for u, row in zip(g.vertices, tcs_embeddings(g, h)):
        assert sum(row) == exhaustive_objective(cores, g.t_max, {u}, h)


@st.composite
def step_profiles(draw):
    """Up to 70 ascending candidate ends, a segment count h of at most their
    number, and per end te the steps of a nondecreasing score profile: up to
    5 first starts anywhere in ``0..te``, plus 0 in about half the ends, so
    steps fall between candidate starts, several reach the same one, and some
    reach none.  Scores rise by
    0, 1 or 2 from step to step, so equal neighbouring steps and equal costs
    within the DP's columns are common."""
    n = draw(st.integers(1, 70))
    ends = list(accumulate(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                           initial=-1))[1:]
    steps = {}
    for te in ends:
        firsts = sorted(draw(st.sets(st.integers(0, te), max_size=5))
                        | draw(st.sampled_from([set(), {0}])))
        rises = draw(st.lists(st.integers(0, 2), min_size=len(firsts), max_size=len(firsts)))
        steps[te] = list(zip(firsts, accumulate(rises)))
    return ends, steps, draw(st.integers(1, n))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(step_profiles())
def test_segment_dp_matches_the_quadratic_one(case):
    ends, steps, h = case
    expected = quadratic_segment_dp(ends, steps.get, h)
    assert _segment_dp(ends, steps.get, h) == expected
    # each segment's score is read off the DP, and they sum to the objective
    segments = _best_segmentation(ends, steps.get, h, None)
    assert [score for _, score in segments] == \
        [score_at(steps[span.end], span.start) for span, _ in segments]
    assert sum(score for _, score in segments) == -expected[0][-1][h - 1]


LABELS = ("a", "b", "c", "d", "e", "f")
# whitespace to str.split and str.strip, but no line end when a stream is iterated
ODD_WHITESPACE = ("\x0c", "\x1c", "\x85", "\u2028", "\xa0")


@st.composite
def raw_edge_list(draw):
    """An edge-list text with repeated, reversed and self-loop records in one
    window, a label seen only in self-loops, unsorted times and empty windows;
    plus the loader arguments to read it with.

    Half of the texts are uniform rows of 3 or 5 fields separated by a space
    or a tab, the layout the loader splits column-wise.  The other half mix
    in comma separators and what sends a chunk line by line: comments, blank
    lines, extra columns, and separators or a second record after whitespace
    that ends no line (form feed, NEL, U+2028, ...).  Lines end in LF or
    CRLF, and the last one may lack its line end."""
    label = st.sampled_from(LABELS)
    records = draw(st.lists(st.tuples(st.integers(0, 60), label, label), min_size=1, max_size=40))
    repeats = draw(st.lists(st.tuples(st.sampled_from(records), st.booleans()), max_size=15))
    records += [(t, v, u) if flip else (t, u, v) for (t, u, v), flip in repeats]
    if draw(st.booleans()):
        records += [(draw(st.integers(0, 60)), "solo", "solo")] * draw(st.integers(1, 3))
    records = draw(st.permutations(records))
    lines = []
    if draw(st.booleans()):
        sep = draw(st.sampled_from([" ", "\t"]))
        extra = draw(st.sampled_from(["", f"{sep}1A{sep}2B"]))
        lines = [f"{t}{sep}{u}{sep}{v}{extra}" for t, u, v in records]
    else:
        for t, u, v in records:
            sep = draw(st.sampled_from([" ", "\t", ",", " , ", *ODD_WHITESPACE]))
            odd = draw(st.sampled_from(ODD_WHITESPACE))
            extra = draw(st.sampled_from(["", f"{sep}meta", f"{sep}x{sep}7",
                                          f"{odd}{t + 1} {draw(label)} {draw(label)}"]))
            lines.append(draw(st.sampled_from(["", "# a comment", "   "])))
            lines.append(f"{t}{sep}{u}{sep}{v}{extra}")
    if draw(st.booleans()):
        kwargs = {"window": 1, "pre_windowed": True}
    else:
        low = min(t for t, _, _ in records)
        kwargs = {"window": draw(st.integers(1, 7)),
                  "time_origin": draw(st.sampled_from([None, low, max(0, low - 3)]))}
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), kwargs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw_edge_list())
def test_loader_matches_reference(case):
    text, kwargs = case
    expected = reference_load(text, **kwargs)
    assert loaded(load_edge_list(text.encode(), **kwargs)) == expected
    if kwargs.get("pre_windowed"):
        # pre-windowed means window 1 from origin 0
        assert loaded(load_edge_list(text.encode(), window=1, time_origin=0)) == expected
    # chunks of a line or two: column-wise and line-by-line chunks in one text
    with mock.patch.object(graph_module, "CHUNK_CHARS", 24):
        assert loaded(load_edge_list(text.encode(), **kwargs)) == expected
