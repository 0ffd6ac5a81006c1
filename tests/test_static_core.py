import random

import pytest

from spancores import Interval, TemporalGraph, core_decomposition, single_tcs

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


def wide_degree_spreads(rng):
    """Stars, hubs joined to cliques and cliques chained by paths (n <= 60):
    peeling moves their vertices across many degree buckets."""
    cases = []
    for n in (2, 5, 30, 60):
        cases.append((n, [(0, v) for v in range(1, n)]))  # a star
    for _ in range(8):  # hubs joined to most vertices of some cliques, and to leaves
        hubs = rng.randint(1, 3)
        edges, n = [], hubs
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(2, 8)
            clique = range(n, n + size)
            edges += [(u, v) for u in clique for v in clique if u < v]
            edges += [(hub, u) for hub in range(hubs) for u in clique if rng.random() < 0.8]
            n += size
        leaves = rng.randint(0, 60 - n)
        edges += [(rng.randrange(hubs), u) for u in range(n, n + leaves)]
        cases.append((n + leaves, edges))
    for _ in range(8):  # cliques of different sizes chained by paths
        edges, n = [], 0
        while True:
            size = rng.randint(2, 9)
            path = rng.randint(0, 4)
            if n + path + size > 60:
                break
            if n:  # a path from the last vertex so far to the next clique
                link = [n - 1, *range(n, n + path), n + path]
                edges += list(zip(link, link[1:]))
                n += path
            clique = range(n, n + size)
            edges += [(u, v) for u in clique for v in clique if u < v]
            n += size
        cases.append((n, edges))
    return cases


def k_core(coreness, k):
    return {u for u, c in coreness.items() if c >= k}


def one_snapshot(n, edges):
    return TemporalGraph([edges], [str(u) for u in range(n)])


class TestCoreDecomposition:
    def test_fix1_snapshot(self, fix1):
        g = fix1
        coreness = core_decomposition(g.vertices, g.snapshots[0])
        by_label = {g.label_of(u): c for u, c in coreness.items()}
        assert by_label == {"a": 2, "b": 2, "c": 2, "d": 1}

    def test_triangle(self):
        coreness = core_decomposition({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
        assert coreness == {0: 2, 1: 2, 2: 2}

    def test_isolated_vertices(self):
        assert core_decomposition({0, 1}, []) == {0: 0, 1: 0}

    def test_endpoint_outside_vertices(self):
        with pytest.raises(ValueError):
            core_decomposition({0, 1}, [(0, 2)])

    def test_matches_fixed_point_oracle(self):
        rng = random.Random(42)
        cases = []
        for _ in range(60):
            n = rng.randint(3, 12)
            cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < 0.35]))
        cases += wide_degree_spreads(random.Random(43))
        for n, edges in cases:
            coreness = core_decomposition(range(n), edges)
            for k in range(0, max(coreness.values()) + 2):
                assert k_core(coreness, k) == brute_force_core(range(n), edges, k)

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
                assert core_decomposition(g.vertices, edges) == nx.core_number(reference)

    def test_nestedness(self):
        rng = random.Random(9)
        g = random_temporal_graph(rng, 10, 1, 0.5)
        coreness = core_decomposition(g.vertices, g.snapshots[0])
        for k in range(max(coreness.values())):
            assert k_core(coreness, k + 1) <= k_core(coreness, k)

    def test_coreness_bounded_by_degree(self):
        rng = random.Random(13)
        g = random_temporal_graph(rng, 9, 1, 0.5)
        coreness = core_decomposition(g.vertices, g.snapshots[0])
        degree = {u: 0 for u in g.vertices}
        for u, v in g.snapshots[0]:
            degree[u] += 1
            degree[v] += 1
        assert all(coreness[u] <= degree[u] for u in g.vertices)


class TestInnermostCore:
    """``single_tcs`` with an empty query: the interval's innermost core."""

    def test_fix1(self, fix1):
        g = fix1
        order, members = single_tcs(g, (), Interval(0, 0))
        assert order == 2
        assert members == {g.index_of(x) for x in "abc"}

    def test_star_is_its_own_one_core(self):
        g = one_snapshot(4, [(0, 1), (0, 2), (0, 3)])
        assert single_tcs(g, (), Interval(0, 0)) == (1, {0, 1, 2, 3})

    def test_single_edge(self, fix1):
        order, members = single_tcs(fix1, (), Interval(0, 2))
        assert order == 1
        assert members == {fix1.index_of("a"), fix1.index_of("b")}

    def test_edgeless_convention(self):
        assert single_tcs(one_snapshot(2, []), (), Interval(0, 0)) == (0, {0, 1})


class TestQueryConstrained:
    """``single_tcs`` with a query: the highest-order core containing it."""

    def test_fix1_examples(self, fix1):
        g = fix1
        a, d = g.index_of("a"), g.index_of("d")
        assert single_tcs(g, {d}, Interval(0, 0)) == (1, {0, 1, 2, 3})
        assert single_tcs(g, {a}, Interval(0, 0)) == (2, {g.index_of(x) for x in "abc"})
        assert single_tcs(g, {d}, Interval(0, 1)) == (0, {0, 1, 2, 3})

    def test_empty_query_is_unconstrained_innermost(self, corpus):
        for g in corpus[:40]:
            for ts in range(g.t_max + 1):
                span = Interval(ts, g.t_max)
                coreness = core_decomposition(g.vertices, g.interval_edges(span))
                top = max(coreness.values())
                expected = (top, k_core(coreness, top)) if top else (0, set(g.vertices))
                assert single_tcs(g, set(), span) == expected

    def test_query_outside_vertices(self):
        with pytest.raises(ValueError):
            single_tcs(one_snapshot(2, [(0, 1)]), {5}, Interval(0, 0))

    def test_order_is_min_query_coreness(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(4, 10)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            coreness = core_decomposition(range(n), edges)
            q = {rng.randrange(n), rng.randrange(n)}
            order, members = single_tcs(one_snapshot(n, edges), q, Interval(0, 0))
            assert order == min(coreness[x] for x in q)
            if order > 0:
                assert members == k_core(coreness, order)
            else:
                assert members == set(range(n))
