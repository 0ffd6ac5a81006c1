import random

import pytest

from spancores import (
    Interval,
    core_decomposition,
    query_constrained_decomposition,
)

from conftest import random_temporal_graph


def brute_force_core(vertices, edges, k):
    """Fixed point of deleting vertices with fewer than k surviving neighbors."""
    alive = set(vertices)
    while True:
        degree = {u: 0 for u in alive}
        for u, v in edges:
            if u in alive and v in alive:
                degree[u] += 1
                degree[v] += 1
        doomed = {u for u in alive if degree[u] < k}
        if not doomed:
            return alive
        alive -= doomed


class TestCoreDecomposition:
    def test_fix1_snapshot(self, fix1):
        g = fix1
        labeling = core_decomposition(g.vertices, g.snapshots[0])
        by_label = {g.label_of(u): c for u, c in labeling.coreness.items()}
        assert by_label == {"a": 2, "b": 2, "c": 2, "d": 1}

    def test_triangle(self):
        labeling = core_decomposition({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
        assert labeling.coreness == {0: 2, 1: 2, 2: 2}

    def test_isolated_vertices(self):
        labeling = core_decomposition({0, 1}, [])
        assert labeling.coreness == {0: 0, 1: 0}
        assert labeling.k_max == 0

    def test_endpoint_outside_vertices(self):
        with pytest.raises(ValueError):
            core_decomposition({0, 1}, [(0, 2)])

    def test_matches_fixed_point_oracle(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(3, 12)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.35]
            labeling = core_decomposition(range(n), edges)
            for k in range(0, labeling.k_max + 2):
                assert labeling.core(k) == brute_force_core(range(n), edges, k)

    def test_matches_networkx_core_number(self, corpus):
        nx = pytest.importorskip("networkx")
        for g in corpus[:40]:
            edge_sets = list(g.snapshots)
            edge_sets += [g.interval_edges(Interval(ts, min(ts + 1, g.t_max)))
                          for ts in range(0, g.t_max + 1, 2)]
            edge_sets.append(g.interval_edges(Interval(0, g.t_max)))
            for edges in edge_sets:
                reference = nx.Graph()
                reference.add_nodes_from(g.vertices)
                reference.add_edges_from(edges)
                assert core_decomposition(g.vertices, edges).coreness == \
                    nx.core_number(reference)

    def test_nestedness(self):
        rng = random.Random(9)
        g = random_temporal_graph(rng, 10, 1, 0.5)
        labeling = core_decomposition(g.vertices, g.snapshots[0])
        for k in range(labeling.k_max):
            assert labeling.core(k + 1) <= labeling.core(k)

    def test_coreness_bounded_by_degree(self):
        rng = random.Random(13)
        g = random_temporal_graph(rng, 9, 1, 0.5)
        labeling = core_decomposition(g.vertices, g.snapshots[0])
        degree = {u: 0 for u in g.vertices}
        for u, v in g.snapshots[0]:
            degree[u] += 1
            degree[v] += 1
        assert all(labeling.coreness[u] <= degree[u] for u in g.vertices)


class TestInnermostCore:
    def test_fix1(self, fix1):
        g = fix1
        order, members = query_constrained_decomposition(g.vertices, g.snapshots[0], ())
        assert order == 2
        assert members == {g.index_of(x) for x in "abc"}

    def test_star_is_its_own_one_core(self):
        order, members = query_constrained_decomposition(
            {0, 1, 2, 3}, [(0, 1), (0, 2), (0, 3)], ())
        assert (order, members) == (1, {0, 1, 2, 3})

    def test_single_edge(self, fix1):
        from spancores import Interval
        order, members = query_constrained_decomposition(
            fix1.vertices, fix1.interval_edges(Interval(0, 2)), ())
        assert order == 1
        assert members == {fix1.index_of("a"), fix1.index_of("b")}

    def test_edgeless_convention(self):
        assert query_constrained_decomposition({3, 7}, [], ()) == (0, {3, 7})


class TestQueryConstrained:
    def test_fix1_examples(self, fix1):
        g = fix1
        a, d = g.index_of("a"), g.index_of("d")
        edges0 = g.snapshots[0]
        assert query_constrained_decomposition(g.vertices, edges0, {d}) == (
            1, {0, 1, 2, 3})
        assert query_constrained_decomposition(g.vertices, edges0, {a}) == (
            2, {g.index_of(x) for x in "abc"})
        from spancores import Interval
        edges01 = g.interval_edges(Interval(0, 1))
        assert query_constrained_decomposition(g.vertices, edges01, {d}) == (
            0, {0, 1, 2, 3})

    def test_empty_query_is_unconstrained_innermost(self, fix1):
        g = fix1
        # the innermost core of snapshot 0 is the triangle abc
        assert query_constrained_decomposition(g.vertices, g.snapshots[0], set()) == (
            2, {g.index_of(x) for x in "abc"})

    def test_query_outside_vertices(self):
        with pytest.raises(ValueError):
            query_constrained_decomposition({0, 1}, [(0, 1)], {5})

    def test_order_is_min_query_coreness(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(4, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            labeling = core_decomposition(range(n), edges)
            q = {rng.randrange(n), rng.randrange(n)}
            order, members = query_constrained_decomposition(range(n), edges, q)
            assert order == min(labeling.coreness[x] for x in q)
            if order > 0:
                assert members == labeling.core(order)
            else:
                assert members == set(range(n))
