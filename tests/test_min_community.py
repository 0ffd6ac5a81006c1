import random
from itertools import combinations

import pytest

from spancores import (
    Interval,
    greedy_minimum_community,
    single_tcs,
    tcs_efficient,
)
from spancores.min_community import _score
from spancores.graph import _build_adjacency


def min_induced_degree(g, interval, members):
    return min(g.induced_degree(interval, members, u) for u in members)


def candidate_score(g, interval, universe, selected, candidate, target):
    """The greedy's admission score of ``candidate`` against ``selected``."""
    adj = _build_adjacency(universe, [(u, v) for u, v in g.interval_edges(interval)
                                      if u in universe and v in universe])
    degree = {u: sum(1 for w in adj[u] if w in selected) for u in adj}
    return _score(adj, set(selected), degree, candidate, target)


class TestCandidateScore:
    def test_one_helped_one_missing(self, fix1):
        g = fix1
        a, b, c = (g.index_of(x) for x in "abc")
        assert candidate_score(g, Interval(0, 0), {a, b, c}, {a}, b, 2) == 0

    def test_completes_both(self, fix1):
        g = fix1
        a, b, c = (g.index_of(x) for x in "abc")
        assert candidate_score(g, Interval(0, 0), {a, b, c}, {a, b}, c, 2) == 2

    def test_pure_penalty_without_selected_neighbors(self, fix1):
        g = fix1
        a, b, d = g.index_of("a"), g.index_of("b"), g.index_of("d")
        assert candidate_score(g, Interval(0, 0), set(g.vertices), {a, b}, d, 2) == -2


class TestGreedy:
    def test_fix1_triangle(self, fix1):
        g = fix1
        universe = {g.index_of(x) for x in "abc"}
        result = greedy_minimum_community(g, {g.index_of("a")}, Interval(0, 0),
                                          universe, 2)
        assert result == universe

    def test_fix1_pendant(self, fix1):
        g = fix1
        result = greedy_minimum_community(g, {g.index_of("d")}, Interval(0, 0),
                                          set(g.vertices), 1)
        assert result == {g.index_of("c"), g.index_of("d")}

    def test_zero_target_returns_query(self, fix1):
        assert greedy_minimum_community(fix1, {3}, Interval(0, 0), set(range(4)), 0) == {3}

    def test_query_outside_universe(self, fix1):
        with pytest.raises(ValueError):
            greedy_minimum_community(fix1, {3}, Interval(0, 0), {0, 1}, 1)

    def test_empty_query_with_positive_target(self, fix1):
        with pytest.raises(ValueError):
            greedy_minimum_community(fix1, set(), Interval(0, 0), {0, 1, 2}, 1)

    def test_infeasible_universe_raises(self, fix1):
        with pytest.raises(RuntimeError):
            greedy_minimum_community(fix1, {0}, Interval(0, 0), {0, 1}, 5)

    def test_feasibility_on_corpus(self, corpus):
        rng = random.Random(61)
        checked = 0
        for g in corpus[:40]:
            query = {rng.randrange(g.n)}
            result = tcs_efficient(g, query, min(2, g.t_max + 1))
            for seg in result.segments:
                if seg.min_degree == 0:
                    continue
                small = greedy_minimum_community(
                    g, query, seg.span, seg.members, seg.min_degree)
                assert query <= small <= seg.members
                assert len(small) <= len(seg.members)
                assert min_induced_degree(g, seg.span, small) >= seg.min_degree
                checked += 1
        assert checked > 20

    def test_determinism(self, corpus):
        checked = 0
        for g in corpus:
            query = {0}
            interval = Interval(0, 0)
            order, universe = single_tcs(g, query, interval)
            if order == 0:
                continue
            first = greedy_minimum_community(g, query, interval, universe, order)
            second = greedy_minimum_community(g, query, interval, universe, order)
            assert first == second
            checked += 1
            if checked >= 10:
                break
        assert checked >= 10


class TestContainmentOfAllSolutions:
    def test_every_feasible_set_lives_inside_the_core(self, corpus):
        # brute force over small instances: any query-containing set meeting the
        # degree target is a subset of the highest-order query-constrained core
        rng = random.Random(67)
        instances = 0
        for g in corpus:
            if g.n > 8 or instances >= 10:
                if instances >= 10:
                    break
                continue
            query = {rng.randrange(g.n)}
            interval = Interval(0, g.t_max)
            target, universe = single_tcs(g, query, interval)
            if target == 0:
                continue
            instances += 1
            others = [u for u in g.vertices if u not in query]
            for size in range(len(others) + 1):
                for extra in combinations(others, size):
                    candidate = set(query) | set(extra)
                    if min_induced_degree(g, interval, candidate) >= target:
                        assert candidate <= universe
