"""Property tests over a wider random corpus than the fixed one: graphs of up
to 20 vertices and 30 timestamps built from persistent group contacts."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from spancores import TemporalGraph, tcs_embeddings

from conftest import per_vertex_rows


@st.composite
def persistent_graph_and_h(draw):
    """A graph whose contacts are groups of 2-5 vertices, each kept for a run
    of timestamps, plus a valid segment count h."""
    n = draw(st.integers(2, 20))
    t = draw(st.integers(1, 30))
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
    graph = TemporalGraph(snapshots, [f"v{i}" for i in range(n)])
    return graph, draw(st.integers(1, t))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(persistent_graph_and_h())
def test_embedding_rows_match_per_vertex_search(case):
    g, h = case
    assert tcs_embeddings(g, h) == per_vertex_rows(g, h)
