import random
from itertools import combinations

import pytest

from spancores import (
    DecompositionStats,
    Interval,
    query_constrained_scan,
    reduced_time_domain,
    single_tcs,
    span_cores,
    tcs_basic,
    tcs_efficient,
    tcs_embeddings,
)
from spancores.community_search import _corners, _segment_dp, penalty_table_full
from spancores.maximal_cores import _undominated

from conftest import long_lived_graphs, score_at, stress_cases, wide_domain_graphs


def brute_force_objective(g, query, h):
    """Exhaustive segmentation search, scoring each segment independently."""
    best = None
    for splits in combinations(range(g.t_max), h - 1):
        bounds = list(splits) + [g.t_max]
        start = 0
        total = 0
        for end in bounds:
            order, _ = single_tcs(g, query, Interval(start, end))
            total += order
            start = end + 1
        best = total if best is None else max(best, total)
    return best


def assert_partition(segmentation, t_max):
    spans = [seg.span for seg in segmentation.segments]
    assert spans[0].start == 0
    assert spans[-1].end == t_max
    for left, right in zip(spans, spans[1:]):
        assert right.start == left.end + 1


class TestSingleTcs:
    def test_fix1_examples(self, fix1):
        g = fix1
        a, d = g.index_of("a"), g.index_of("d")
        assert single_tcs(g, {a}, Interval(0, 0)) == (2, {g.index_of(x) for x in "abc"})
        assert single_tcs(g, {a}, Interval(1, 2)) == (1, {g.index_of("a"), g.index_of("b")})
        assert single_tcs(g, {d}, Interval(0, 1)) == (0, set(g.vertices))

    def test_query_validation(self, fix1):
        with pytest.raises(ValueError):
            single_tcs(fix1, {99}, Interval(0, 0))

    def test_records_its_peel(self, fix1):
        # [1, 2] has the edge set {ab}: one peel of its two endpoints
        stats = DecompositionStats()
        single_tcs(fix1, {fix1.index_of("a")}, Interval(1, 2), stats)
        assert stats == DecompositionStats(intervals_processed=1, peel_vertices=2)

    def test_search_counts_each_segment_peel(self, corpus):
        for g in corpus[:30]:
            query = {0}
            h = min(2, g.t_max + 1)
            scan, search = DecompositionStats(), DecompositionStats()
            query_constrained_scan(g, frozenset(query), scan)
            solution = tcs_efficient(g, query, h, search)
            segments = sum(len({u for e in g.interval_edges(seg.span) for u in e})
                           for seg in solution.segments)
            assert search.peel_vertices == scan.peel_vertices + segments


class TestFullPenaltyTable:
    def test_fix1_query_a(self, fix1):
        g = fix1
        table = penalty_table_full(g, {g.index_of("a")})
        assert table.get((0, 0), 0) == 2
        assert table.get((0, 1), 0) == 2
        assert table.get((0, 2), 0) == 1
        assert table.get((0, 1), 0) >= table.get((0, 2), 0)

    def test_fix1_query_d(self, fix1):
        g = fix1
        table = penalty_table_full(g, {g.index_of("d")})
        assert table.get((0, 0), 0) == 1
        for ts in range(3):
            for te in range(ts, 3):
                if (ts, te) != (0, 0):
                    assert table.get((ts, te), 0) == 0

    def test_anti_monotone_in_span(self, corpus):
        rng = random.Random(3)
        for g in corpus[:15]:
            query = {rng.randrange(g.n)}
            table = penalty_table_full(g, query)
            for ts in range(g.t_max + 1):
                for te in range(ts, g.t_max + 1):
                    wider = table.get((max(0, ts - 1), te), 0)
                    assert table.get((ts, te), 0) >= wider

    def test_empty_query_scores_are_the_span_core_top_orders(self, corpus):
        # both routes read one seeded stream, so they peel the same intervals
        for g in corpus:
            table_stats, enum_stats = DecompositionStats(), DecompositionStats()
            assert penalty_table_full(g, set(), table_stats) == \
                span_cores(g, enum_stats).top_orders()
            assert table_stats == enum_stats


class TestQueryConstrainedMaximal:
    def test_fix1_query_a(self, fix1):
        g = fix1
        cores = query_constrained_scan(g, {g.index_of("a")})
        corners = [(c.span.start, c.span.end, c.order) for c in cores]
        keys = {(c.order, c.span.start, c.span.end) for c in cores}
        assert keys == {(2, 0, 1), (1, 0, 2)}
        # dominance lookup through a span that strictly contains the probe
        assert score_at(corners, 1, 1) == 2

    def test_fix1_query_d(self, fix1):
        g = fix1
        cores = query_constrained_scan(g, {g.index_of("d")})
        corners = [(c.span.start, c.span.end, c.order) for c in cores]
        found = list(cores)
        assert len(found) == 1
        assert (found[0].order, found[0].span) == (1, Interval(0, 0))
        assert found[0].members == frozenset(g.vertices)
        assert score_at(corners, 0, 0) == 1
        assert score_at(corners, 1, 1) == 0

    def test_table_agrees_with_full_and_single(self, corpus):
        rng = random.Random(17)
        probes = 0
        for g in corpus:
            if probes >= 100:
                break
            query = {rng.randrange(g.n)}
            corners = [(c.span.start, c.span.end, c.order)
                       for c in query_constrained_scan(g, query)]
            full = penalty_table_full(g, query)
            for _ in range(4):
                ts = rng.randint(0, g.t_max)
                te = rng.randint(ts, g.t_max)
                expected, _ = single_tcs(g, query, Interval(ts, te))
                assert score_at(corners, ts, te) == expected
                assert full.get((ts, te), 0) == expected
                probes += 1

    def test_spans_are_the_undominated_positive_scores(self, corpus):
        # the scan's spans are exactly the intervals whose full-table score is
        # positive and strictly above every superinterval's, found by brute force
        rng = random.Random(19)
        cases = [(g, {rng.randrange(g.n)}) for g in corpus] + list(stress_cases())
        for g, query in cases:
            full = penalty_table_full(g, query)
            spans = [(ts, te) for ts in range(g.t_max + 1) for te in range(ts, g.t_max + 1)]
            expected = {
                (ts, te) for ts, te in spans
                if full.get((ts, te), 0) > 0 and not any(
                    full.get((a, b), 0) >= full.get((ts, te), 0)
                    for a, b in spans if a <= ts and b >= te and (a, b) != (ts, te))
            }
            found = {(c.span.start, c.span.end) for c in query_constrained_scan(g, query)}
            assert found == expected


class TestCorners:
    def test_corners_are_each_vertexs_query_constrained_maximal_cores(self, corpus):
        # the fold reads one enumeration, peeling exactly what span_cores peels
        for g in (corpus + [g for g, _ in stress_cases()] + long_lived_graphs()
                  + wide_domain_graphs()):
            fold_stats, enum_stats = DecompositionStats(), DecompositionStats()
            corners = _corners(g, fold_stats)
            span_cores(g, enum_stats)
            assert fold_stats == enum_stats
            for u in g.vertices:
                expected = [(c.span.start, c.span.end, c.order)
                            for c in query_constrained_scan(g, {u})]
                assert sorted(corners[u]) == sorted(expected)


class TestReducedDomain:
    def test_fix1_query_a(self, fix1):
        g = fix1
        cores = query_constrained_scan(g, {g.index_of("a")})
        domain = reduced_time_domain(g.t_max, 2, [c.span for c in cores])
        assert domain.timestamps == (0, 1, 2)

    def test_fix1_query_d(self, fix1):
        g = fix1
        cores = query_constrained_scan(g, {g.index_of("d")})
        domain = reduced_time_domain(g.t_max, 2, [c.span for c in cores])
        assert domain.timestamps == (0, 1, 2)

    def test_padding_fills_empty_core_set(self):
        domain = reduced_time_domain(9, 2, [])
        assert domain.timestamps == (0, 1, 9)

    def test_always_large_enough(self, corpus):
        rng = random.Random(23)
        for g in corpus[:30]:
            query = {rng.randrange(g.n)}
            cores = query_constrained_scan(g, query)
            for h in range(1, g.t_max + 2):
                domain = reduced_time_domain(g.t_max, h, [c.span for c in cores])
                assert len(domain.timestamps) >= min(h + 1, g.t_max + 1)
                assert g.t_max in domain.timestamps


class TestBasicSearch:
    def test_fix1_objectives(self, fix1):
        g = fix1
        a = g.index_of("a")
        one = tcs_basic(g, {a}, 1)
        assert one.objective == 1
        assert [seg.span for seg in one.segments] == [Interval(0, 2)]
        assert one.segments[0].members == frozenset({0, 1})

        two = tcs_basic(g, {a}, 2)
        assert two.objective == 3
        assert [seg.span for seg in two.segments] == [Interval(0, 0), Interval(1, 2)]
        assert two.segments[0].min_degree == 2
        assert two.segments[1].min_degree == 1

        three = tcs_basic(g, {a}, 3)
        assert three.objective == 5

    def test_h_out_of_range(self, fix1):
        with pytest.raises(ValueError):
            tcs_basic(fix1, {0}, 4)
        with pytest.raises(ValueError):
            tcs_basic(fix1, {0}, 0)

    def test_fallback_community_is_query(self, fix1):
        g = fix1
        d = g.index_of("d")
        result = tcs_efficient(g, {d}, 2)
        assert result.objective == 1
        assert [seg.span for seg in result.segments] == [Interval(0, 0), Interval(1, 2)]
        assert result.segments[1].min_degree == 0
        assert result.segments[1].members == frozenset({d})

    def test_partition_and_containment(self, corpus):
        rng = random.Random(31)
        for g in corpus[:20]:
            query = {rng.randrange(g.n)}
            for h in range(1, min(3, g.t_max + 1) + 1):
                result = tcs_basic(g, query, h)
                assert_partition(result, g.t_max)
                assert len(result.segments) == h
                for seg in result.segments:
                    assert query <= seg.members
                    if seg.min_degree > 0:
                        observed = min(
                            g.induced_degree(seg.span, seg.members, u)
                            for u in seg.members)
                        assert observed == seg.min_degree

    def test_objective_consistency(self, corpus):
        rng = random.Random(37)
        for g in corpus[:20]:
            query = {rng.randrange(g.n)}
            h = min(2, g.t_max + 1)
            result = tcs_basic(g, query, h)
            recomputed = 0
            for seg in result.segments:
                if seg.min_degree > 0:
                    recomputed += min(
                        g.induced_degree(seg.span, seg.members, u)
                        for u in seg.members)
            assert recomputed == result.objective

    def test_matches_brute_force(self, corpus):
        rng = random.Random(41)
        for g in corpus[:25]:
            query = {rng.randrange(g.n)}
            for h in range(1, min(3, g.t_max + 1) + 1):
                assert tcs_basic(g, query, h).objective == \
                    brute_force_objective(g, query, h)


class TestEfficientSearch:
    def test_fix1_matches_basic(self, fix1):
        g = fix1
        a = g.index_of("a")
        for h in (1, 2, 3):
            assert tcs_efficient(g, {a}, h).objective == tcs_basic(g, {a}, h).objective

    def test_paired_objectives_on_corpus(self, corpus):
        rng = random.Random(43)
        for g in corpus[:40]:
            query = {rng.randrange(g.n)}
            for h in range(1, min(3, g.t_max + 1) + 1):
                assert tcs_efficient(g, query, h).objective == \
                    tcs_basic(g, query, h).objective
        for g in wide_domain_graphs():
            for h in (1, 3, 10):
                for query in ({0}, {0, 1}):
                    assert tcs_efficient(g, query, h).objective == \
                        tcs_basic(g, query, h).objective
                for u, row in zip(g.vertices, tcs_embeddings(g, h)):
                    assert sum(row) == tcs_basic(g, {u}, h).objective

    def test_h_equals_domain_size_forces_singletons(self, corpus):
        rng = random.Random(53)
        for g in corpus[:10]:
            query = {rng.randrange(g.n)}
            h = g.t_max + 1
            result = tcs_efficient(g, query, h)
            assert all(seg.span.length == 1 for seg in result.segments)

    def test_partition_holds(self, corpus):
        rng = random.Random(59)
        for g in corpus[:20]:
            query = {rng.randrange(g.n)}
            result = tcs_efficient(g, query, min(2, g.t_max + 1))
            assert_partition(result, g.t_max)

    def test_reduced_domain_stress(self):
        reduced_somewhere = False
        for g, query in stress_cases():
            cores = query_constrained_scan(g, query)
            domain = reduced_time_domain(g.t_max, 4, [c.span for c in cores])
            if len(domain.timestamps) < g.t_max + 1:
                reduced_somewhere = True
            for h in (1, 2, 4):
                basic = tcs_basic(g, query, h)
                efficient = tcs_efficient(g, query, h)
                assert efficient.objective == basic.objective
                assert_partition(efficient, g.t_max)
        assert reduced_somewhere


class TestDpState:
    def test_first_layer_and_monotonicity(self, fix1):
        g = fix1
        table = penalty_table_full(g, {g.index_of("a")})
        ends = list(range(g.t_max + 1))
        P, _ = _segment_dp(ends, [(ts, te, v) for (ts, te), v in table.items()], 3)
        for t in ends:
            assert P[t][0] == -table.get((0, t), 0)
        for t in ends:
            for i in range(2):
                if P[t][i] is not None and P[t][i + 1] is not None:
                    assert P[t][i + 1] <= P[t][i]

    def test_earliest_split_tie_rule(self, fix1):
        # both 2-splits of FIX-1 for query a score 3; the earlier split wins
        g = fix1
        result = tcs_basic(g, {g.index_of("a")}, 2)
        assert result.segments[0].span == Interval(0, 0)

    def test_undominated_corners_give_the_table_dp(self, corpus):
        # tcs_basic's corners: the table is anti-monotone, so its undominated
        # spans run the DP exactly as every one of its entries does
        graphs = [*corpus, *(g for g, _ in stress_cases()), *long_lived_graphs(),
                  *wide_domain_graphs()]
        for g in graphs:
            ends = range(g.t_max + 1)
            for query in ({0}, {0, 1}):
                if max(query) >= g.n:
                    continue
                table = penalty_table_full(g, query)
                every = [(ts, te, v) for (ts, te), v in table.items()]
                undominated = [(ts, te, table[ts, te]) for ts, te in _undominated(table)]
                for h in (1, 3, 10):
                    every_stats, undominated_stats = DecompositionStats(), DecompositionStats()
                    assert _segment_dp(ends, every, h, every_stats) == \
                        _segment_dp(ends, undominated, h, undominated_stats)
                    assert every_stats == undominated_stats
