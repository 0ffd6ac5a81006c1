import gc
import random
import tracemalloc
from itertools import combinations

from spancores import (
    DecompositionStats,
    Interval,
    SpanCore,
    SpanCoreSet,
    TemporalGraph,
    filter_maximal,
    maximal_span_cores,
    naive_span_cores,
    span_cores,
)
from spancores import maximal_cores, query_constrained_scan, single_tcs, static_core
from spancores.static_core import core_decomposition

from conftest import definitional_span_cores, long_lived_graphs, stress_cases, wide_domain_graphs


def definitional_query_maximal(g, query):
    """``filter_maximal`` over the definitional span-cores that contain ``query``."""
    return filter_maximal(SpanCoreSet(
        SpanCore(k, Interval(ts, te), members)
        for (k, ts, te), members in definitional_span_cores(g).items() if query <= members))


class TestFilterBaseline:
    def test_fix1_two_survivors(self, fix1):
        g = fix1
        result = filter_maximal(naive_span_cores(g))
        assert len(result) == 2
        top = result.get(2, Interval(0, 1))
        low = result.get(1, Interval(0, 2))
        assert top is not None and top.members == frozenset(
            {g.index_of(x) for x in "abc"})
        assert low is not None and low.members == frozenset(
            {g.index_of("a"), g.index_of("b")})

    def test_single_core_survives(self):
        cores = SpanCoreSet([SpanCore(1, Interval(0, 0), frozenset({0, 1}))])
        assert filter_maximal(cores) == cores

    def test_same_span_higher_order_dominates(self):
        cores = SpanCoreSet([
            SpanCore(1, Interval(0, 0), frozenset({0, 1, 2})),
            SpanCore(2, Interval(0, 0), frozenset({0, 1, 2})),
        ])
        survivors = list(filter_maximal(cores))
        assert len(survivors) == 1 and survivors[0].order == 2


class TestDirectScan:
    def test_fix1_exact(self, fix1):
        assert maximal_span_cores(fix1) == filter_maximal(naive_span_cores(fix1))

    def test_equivalence_on_corpus(self, corpus):
        for g in corpus[:60]:
            assert maximal_span_cores(g) == filter_maximal(span_cores(g))

    def test_antichain(self, corpus):
        for g in corpus[:40]:
            found = list(maximal_span_cores(g))
            for x in found:
                for y in found:
                    if x is not y:
                        assert not x.dominates(y) and not y.dominates(x)

    def test_each_output_is_a_true_innermost_core(self, corpus):
        for g in corpus[:40]:
            for core in maximal_span_cores(g):
                order, members = single_tcs(g, (), core.span)
                assert (order, members) == (core.order, set(core.members))

    def test_per_span_uniqueness(self, corpus):
        for g in corpus[:40]:
            spans = [core.span for core in maximal_span_cores(g)]
            assert len(spans) == len(set(spans))

    def test_work_bound_vs_filtering_baseline(self, corpus):
        for g in corpus[:60]:
            direct = DecompositionStats()
            baseline = DecompositionStats()
            maximal_span_cores(g, direct)
            filter_maximal(span_cores(g, baseline))
            assert direct.peel_vertices <= baseline.peel_vertices

    def test_empty_start_snapshots_skipped(self):
        g = TemporalGraph([[], [(0, 1), (1, 2), (0, 2)], []], ["a", "b", "c"])
        result = maximal_span_cores(g)
        assert len(result) == 1
        core = next(iter(result))
        assert (core.order, core.span) == (2, Interval(1, 1))

    def test_peak_memory_does_not_grow_with_the_time_domain(self):
        # one edge in every window: each start is one run, so the scan holds
        # one run end per start, whatever the domain's length
        peaks = []
        for t in (250, 1000):
            g = TemporalGraph([[(0, 1)]] * t, ["a", "b"])
            maximal_span_cores(g)  # builds the run index outside the measurement
            gc.collect()
            tracemalloc.start()
            try:
                result = maximal_span_cores(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert [(c.order, c.span) for c in result] == [(1, Interval(0, t - 1))]
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2048, peaks

    def test_fix1_scan_trace(self, fix1):
        # hand-derived walkthrough: start 0 peels [0,2] with seed {a,b}, then
        # [0,1] with seed {a,b,c}; at [0,0] the bound already reached 2 and
        # only c keeps degree above it, and one vertex cannot hold a 3-core,
        # so it is settled without a peel; later starts find empty seeds
        stats = DecompositionStats()
        result = maximal_span_cores(fix1, stats)
        assert stats.intervals_processed == 6
        assert stats.peel_vertices == 2 + 3
        assert len(result) == 2

    def test_fix1_peels_only_above_the_bound(self, fix1, monkeypatch):
        # only start 0's [0,2] and [0,1] peel: [0,0]'s seed {c} at bound 2
        # is too small for a 3-core, and at every later start no vertex's
        # degree exceeds the bound set by the cores already found
        peeled = []

        def counting(vertices, edges):
            peeled.append(len(vertices))
            return core_decomposition(vertices, edges)

        for module in (static_core, maximal_cores):
            monkeypatch.setattr(module, "core_decomposition", counting)
        maximal_span_cores(fix1)
        assert peeled == [2, 3]

    def test_repeated_snapshot_skips_the_dominated_peels(self, fix1, monkeypatch):
        # FIX-1's first snapshot twice: the triangle abc with pendant cd.
        # [0,1] peels all four vertices; [0,0] refills no edge and [1,1] has
        # as many edges as [0,1], so neither peels, although c's degree 3
        # is above their bound 2
        g = TemporalGraph([fix1.snapshots[0], fix1.snapshots[0]], fix1.labels)
        peeled = []

        def counting(vertices, edges):
            peeled.append(len(vertices))
            return core_decomposition(vertices, edges)

        monkeypatch.setattr(maximal_cores, "core_decomposition", counting)
        stats = DecompositionStats()
        result = maximal_span_cores(g, stats)
        assert peeled == [4]
        assert (stats.intervals_processed, stats.peel_vertices) == (3, 4)
        assert [(c.order, c.span) for c in result] == [(2, Interval(0, 1))]


def clique_episodes(seed):
    """A graph of K3-K6 clique episodes over up to 40 timestamps, with a few
    background pairs per timestamp, and a query of 1-3 vertices."""
    rng = random.Random(seed)
    n, t = rng.randint(6, 16), rng.randint(1, 40)
    snapshots = [[] for _ in range(t)]
    for _ in range(rng.randint(1, 8)):
        members = rng.sample(range(n), rng.randint(3, 6))
        start = rng.randrange(t)
        for s in range(start, min(t, start + rng.randint(1, t))):
            snapshots[s] += combinations(sorted(members), 2)
    for snapshot in snapshots:
        snapshot += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4))]
    g = TemporalGraph(snapshots, [f"v{i}" for i in range(n)])
    return g, frozenset(rng.sample(range(n), rng.randint(1, 3)))


class TestSizePrune:
    """At bound b a core of order b + 1 needs b + 2 vertices of degree above
    b and (b + 1)(b + 2) / 2 edges between them; a seed short of either is
    settled without a peel."""

    @staticmethod
    def peeled_seeds(g, monkeypatch):
        seeds = []

        def recording(vertices, edges):
            seeds.append(set(vertices))
            return core_decomposition(vertices, edges)

        monkeypatch.setattr(maximal_cores, "core_decomposition", recording)
        stats = DecompositionStats()
        assert maximal_span_cores(g, stats) == filter_maximal(naive_span_cores(g))
        return seeds, stats

    def test_too_few_seed_vertices(self, monkeypatch):
        # the triangle 0-1-2 over [0,1] sets bound 2 at [0,0], where a star
        # from 0 gives 0 alone degree above 2: one vertex cannot hold a 3-core
        triangle, star = [(0, 1), (0, 2), (1, 2)], [(0, 3), (0, 4), (0, 5)]
        g = TemporalGraph([[*triangle, *star], triangle],
                          [f"v{i}" for i in range(6)])
        seeds, stats = self.peeled_seeds(g, monkeypatch)
        assert seeds == [{0, 1, 2}]
        assert (stats.intervals_processed, stats.peel_vertices) == (3, 3)

    def test_too_few_seed_edges(self, monkeypatch):
        # the triangle 6-7-8 over [0,1] sets bound 2 at [0,0], where the
        # 4-cycle 0-1-2-3 with a leaf on each vertex gives all four degree 3:
        # enough vertices for a 3-core, but 4 edges between them, not 6
        triangle, cycle = [(6, 7), (6, 8), (7, 8)], [(0, 1), (1, 2), (2, 3), (0, 3)]
        leaves = [(0, 10), (1, 11), (2, 12), (3, 13)]
        g = TemporalGraph([[*triangle, *cycle, *leaves], triangle],
                          [f"v{i}" for i in range(14)])
        seeds, stats = self.peeled_seeds(g, monkeypatch)
        assert seeds == [{6, 7, 8}]
        assert (stats.intervals_processed, stats.peel_vertices) == (3, 3)

    def test_clique_episodes_over_wide_domains(self):
        cases = [clique_episodes(seed) for seed in range(100)]
        cases += [(g, frozenset({0, 1})) for g in wide_domain_graphs()]
        # starts with run ends their predecessor lacks: the bound of such an
        # end is read from the rolling order alone
        cases += [(g, frozenset({0, 1})) for g in long_lived_graphs()]
        cases += [(g, frozenset(query)) for g, query in stress_cases()]
        for seed, (g, query) in enumerate(cases):
            assert maximal_span_cores(g) == filter_maximal(naive_span_cores(g)), seed
            assert SpanCoreSet(iter(query_constrained_scan(g, query))) == \
                definitional_query_maximal(g, query), seed


class TestQueryScan:
    def test_starts_without_the_query_are_skipped(self, monkeypatch):
        # a triangle 1-2-3 throughout, and vertex 0 joined to it only at
        # timestamps 1, 2 and 4: the query {0, 1} lacks 0 at every other start
        triangle = [(1, 2), (1, 3), (2, 3)]
        joined = triangle + [(0, 1), (0, 2)]
        g = TemporalGraph([triangle, joined, joined, triangle, joined, triangle],
                          [f"v{i}" for i in range(4)])
        starts = []
        shrink = TemporalGraph.edge_shrinkage

        def recording(self, start):
            starts.append(start)
            return shrink(self, start)

        monkeypatch.setattr(TemporalGraph, "edge_shrinkage", recording)
        stats = DecompositionStats()
        found = query_constrained_scan(g, {0, 1}, stats)
        assert starts == [1, 2, 4]
        # each start visits every end up to the last timestamp
        assert stats.intervals_processed == 5 + 4 + 2
        assert SpanCoreSet(iter(found)) == definitional_query_maximal(g, frozenset({0, 1}))
        assert {(c.order, c.span) for c in found} == {(2, Interval(1, 2)), (2, Interval(4, 4))}
