import gc
import gzip
import logging
import random
import statistics
import tracemalloc
from itertools import combinations

import pytest

from spancores import (
    DecompositionStats,
    EdgeListFormatError,
    Interval,
    SpanCore,
    TemporalGraph,
    activity_summary,
    detect_anomalies,
    maximal_span_cores,
    naive_span_cores,
    purity,
    purity_timeline,
    read_attribute_table,
    rewire_null_model,
    sample_query_vertices,
    span_cores,
    span_length_distribution,
    tcs_embeddings,
)

import spancores.analytics as analytics_module
from spancores.graph import ParameterError

from conftest import (long_lived_graphs, per_vertex_rows, random_temporal_graph,
                      stress_cases, wide_domain_graphs)


def fix1_attributes(g):
    return {g.index_of("a"): "F", g.index_of("b"): "F",
            g.index_of("c"): "M", g.index_of("d"): "M"}


class TestActivitySummary:
    def test_fix1_cells(self, fix1):
        cells = {(cell.start, cell.span_length): cell.max_order
                 for cell in activity_summary(fix1)}
        assert cells == {(0, 2): 2, (0, 3): 1, (1, 2): 1}

    def test_min_span_filter(self, fix1):
        cells = activity_summary(fix1, min_span=1)
        assert (0, 1, 2) in {(c.start, c.span_length, c.max_order) for c in cells}

    def test_corpus_cells_are_the_top_order_per_start_and_length(self, corpus):
        for g in corpus + wide_domain_graphs():
            cores = list(naive_span_cores(g))
            for min_span in (1, 2):
                # the highest order over the oracle's cores of each (start, length)
                peaks: dict[tuple[int, int], int] = {}
                for core in cores:
                    if core.span.length >= min_span:
                        key = (core.span.start, core.span.length)
                        peaks[key] = max(peaks.get(key, 0), core.order)
                stats, expected_stats = DecompositionStats(), DecompositionStats()
                cells = activity_summary(g, min_span, stats)
                assert [(c.start, c.span_length, c.max_order) for c in cells] == \
                    [(s, w, k) for (s, w), k in sorted(peaks.items())]
                span_cores(g, expected_stats)
                assert stats == expected_stats

    def test_peak_memory_is_about_the_cells_it_returns(self):
        # one edge in every window: 80,200 spans, each its own cell, and no
        # core kept beyond the two starts' labellings the stream holds
        g = TemporalGraph([[(0, 1)]] * 400, ["a", "b"])
        gc.collect()
        tracemalloc.start()
        try:
            cells = activity_summary(g, min_span=1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == 400 * 401 // 2
        assert peak <= 1.5 * retained, (peak, retained)


class TestPurity:
    def test_two_of_three(self):
        core = SpanCore(1, Interval(0, 0), frozenset({0, 1, 2}))
        assert purity(core, {0: "F", 1: "F", 2: "M"}) == pytest.approx(2 / 3)

    def test_homogeneous(self):
        core = SpanCore(1, Interval(0, 0), frozenset({0, 1, 2}))
        assert purity(core, {0: "F", 1: "F", 2: "F"}) == 1.0

    def test_tie(self):
        core = SpanCore(1, Interval(0, 0), frozenset({0, 1}))
        assert purity(core, {0: "F", 1: "M"}) == 0.5

    def test_no_labeled_member(self):
        core = SpanCore(1, Interval(0, 0), frozenset({0, 1}))
        with pytest.raises(ValueError):
            purity(core, {7: "F"})

    def test_single_member_is_pure(self):
        core = SpanCore(1, Interval(0, 0), frozenset({0}))
        assert purity(core, {0: "M"}) == 1.0


class TestPurityTimeline:
    def test_fix1(self, fix1):
        g = fix1
        timeline = purity_timeline(maximal_span_cores(g), fix1_attributes(g), g.t_max)
        assert timeline[0] == pytest.approx((2 / 3 + 1.0) / 2)
        assert timeline[1] == pytest.approx((2 / 3 + 1.0) / 2)
        assert timeline[2] == pytest.approx(1.0)

    def test_uncovered_timestamp_missing(self):
        g = TemporalGraph([[(0, 1)], []], ["a", "b"])
        timeline = purity_timeline(maximal_span_cores(g), {0: "F", 1: "M"}, g.t_max)
        assert timeline == [0.5, None]


class TestSpanLengthDistribution:
    def test_fix1(self, fix1):
        rows = span_length_distribution(maximal_span_cores(fix1))
        assert {row.length: row.count for row in rows} == {2: 1, 3: 1}
        assert sum(row.percent for row in rows) == pytest.approx(100.0)

    def test_empty(self):
        assert span_length_distribution([]) == []


def planted_anomaly_graph(t=80, n=30, window_start=20, window_length=30, seed=5):
    """Short-lived background pairs over vertices 2..n-1 plus one pair (0, 1)
    connected through an anomalously long window."""
    rng = random.Random(seed)
    snapshots = [[] for _ in range(t)]
    for _ in range(900):
        u = rng.randrange(2, n)
        v = rng.randrange(2, n)
        if u == v:
            continue
        start = rng.randrange(t)
        for s in range(start, min(t, start + rng.randint(1, 2))):
            snapshots[s].append((u, v))
    planted = []
    for s in range(window_start, window_start + window_length):
        snapshots[s].append((0, 1))
        planted.append((s, (0, 1)))
    return TemporalGraph(snapshots, [str(i) for i in range(n)]), planted


class TestAnomalyDetection:
    def test_fix1_is_identity_for_large_threshold(self, fix1):
        report = detect_anomalies(fix1, tr=5, ratio=1.5)
        assert report.flagged_vertex_steps == ()
        assert report.flagged_timestamps == ()
        assert report.filtered.snapshots == fix1.snapshots

    def test_planted_pair_removed_everywhere(self):
        g, planted = planted_anomaly_graph()
        report = detect_anomalies(g, tr=10, ratio=1.5)
        removed = []
        for t in range(g.t_max + 1):
            removed.extend((t, e) for e in g.snapshots[t] - report.filtered.snapshots[t])
        assert sorted(removed) == sorted(planted)

    def test_filter_only_touches_flagged_vertices_or_timestamps(self, corpus):
        for g in corpus[:15]:
            report = detect_anomalies(g, tr=1, ratio=1.5)
            flagged_at = {}
            for t, u in report.flagged_vertex_steps:
                flagged_at.setdefault(t, set()).add(u)
            wiped = set(report.flagged_timestamps)
            for t in range(g.t_max + 1):
                bad = flagged_at.get(t, ())
                untouched = {(u, v) for u, v in g.snapshots[t] if u not in bad and v not in bad}
                if t in wiped:
                    assert report.filtered.snapshots[t] == frozenset()
                    assert report.edge_counts[t][1] == len(untouched)
                else:
                    assert report.filtered.snapshots[t] == untouched
                if not bad and t not in wiped and g.snapshots[t]:
                    # an untouched snapshot is shared, not copied
                    assert report.filtered.snapshots[t] is g.snapshots[t]

    def test_counts_never_increase(self, corpus):
        for g in corpus[:10]:
            report = detect_anomalies(g, tr=1, ratio=1.5)
            for original, intermediate, final in report.edge_counts:
                assert original >= intermediate >= final

    def test_parameter_validation(self, fix1):
        with pytest.raises(ValueError):
            detect_anomalies(fix1, tr=0, ratio=1.5)
        with pytest.raises(ValueError):
            detect_anomalies(fix1, tr=5, ratio=1.0)

    def test_nan_ratio_rejected(self, fix1):
        with pytest.raises(ParameterError, match="ratio"):
            detect_anomalies(fix1, tr=5, ratio=float("nan"))


class TestEmbeddings:
    def test_fix1_rows(self, fix1):
        g = fix1
        rows = tcs_embeddings(g, 2)
        assert rows[g.index_of("a")] == [2, 1]
        assert rows[g.index_of("d")] == [1, 0]

    def test_entries_bounded_by_max_coreness(self, fix1):
        from spancores import core_decomposition
        g = fix1
        rows = tcs_embeddings(g, 2)
        for u in g.vertices:
            peak = max(core_decomposition(g.vertices, g.snapshots[t])[u]
                       for t in range(g.t_max + 1))
            assert all(x <= peak for x in rows[u])

    def test_relabeling_permutes_rows_only(self, fix1):
        g = fix1
        relabeled = TemporalGraph(
            [sorted(s) for s in fix1.snapshots], ["w", "x", "y", "z"])
        assert tcs_embeddings(relabeled, 2) == tcs_embeddings(g, 2)

    def test_h_validation(self, fix1):
        for h in (0, fix1.t_max + 2):
            with pytest.raises(ParameterError):
                tcs_embeddings(fix1, h)

    def test_rows_match_per_vertex_search(self, corpus):
        for g in corpus + [g for g, _ in stress_cases()] + long_lived_graphs():
            for h in {1, 2, g.t_max + 1}:
                if h <= g.t_max + 1:
                    assert tcs_embeddings(g, h) == per_vertex_rows(g, h)

    def test_memory_does_not_grow_with_spans_times_members(self):
        """A 12-clique present in all 200 windows lies in each of the 20,100
        spans; the rows keep each vertex's corners, not a score per span."""
        rng = random.Random(5)
        clique = list(combinations(range(12), 2))
        g = TemporalGraph([clique + [tuple(rng.sample(range(12, 212), 2)) for _ in range(40)]
                           for _ in range(200)], [f"v{i}" for i in range(212)])
        gc.collect()
        tracemalloc.start()
        try:
            rows = tcs_embeddings(g, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows[0] == [11] * 5
        assert peak <= 4_000_000, peak


class TestQuerySampling:
    def test_single_vertex_uniform_support(self, fix1):
        seen = set()
        for seed in range(200):
            (v,) = sample_query_vertices(fix1, 1, seed=seed)
            seen.add(v)
        assert seen == set(fix1.vertices)

    def test_single_vertex_drawn_without_the_union_graph(self, fix1, monkeypatch):
        def refuse(*args):
            raise AssertionError("union graph built for a single query vertex")

        monkeypatch.setattr(analytics_module, "_build_adjacency", refuse)
        for seed in range(20):
            assert sample_query_vertices(fix1, 1, seed=seed) == {
                random.Random(seed).randrange(fix1.n)}
        with pytest.raises(ParameterError, match="pool size"):
            sample_query_vertices(fix1, 1, pool_size=fix1.n + 1)

    def test_pairs_touch_edges(self, fix1):
        active = {u for s in fix1.snapshots for e in s for u in e}
        for seed in range(20):
            chosen = sample_query_vertices(fix1, 2, seed=seed)
            assert len(chosen) == 2
            assert chosen <= active

    def test_walk_starts_at_a_vertex_with_an_edge(self):
        g = TemporalGraph([[(0, 1)], [(0, 1)]], ["a", "b", "c"])  # "c" has no edge
        for seed in range(50):
            assert sample_query_vertices(g, 2, seed=seed) <= {0, 1}

    def test_fixed_seed_reproducible(self, fix1):
        assert sample_query_vertices(fix1, 2, seed=99) == \
            sample_query_vertices(fix1, 2, seed=99)

    def test_draws_are_pinned(self):
        # three groups over six timestamps, bridged at t=2 and t=4; the draws
        # for each seed are those of the walk and the weighted draw as written
        groups = [((0, 1, 2, 3), range(0, 4)), ((4, 5, 6), range(2, 6)),
                  ((7, 8, 9, 10, 11), range(1, 5))]
        snapshots = [[] for _ in range(6)]
        for members, span in groups:
            for t in span:
                snapshots[t] += combinations(members, 2)
        snapshots[2].append((3, 4))
        snapshots[4].append((6, 7))
        g = TemporalGraph(snapshots, "abcdefghijkl")
        expected = {
            2: "fg bd dg cd bc il ij fg ab hk hl kl ik jl bc be fg hj ad kl il bf bd dg jl "
               "fg hl il ad hk hj ab bd jk fg jl eg hl ij ad gi de ik bc bd fg ac eg il ad",
            3: "hil ceg deg bch abc fjl dfj hjl acg fhj ghj fgj hkl hik acf abc bde ikl abc "
               "jkl hjk aeg bde dfg fhi acd hik efk aef hkl gij abd bcd ikl egh egh fjl hkl "
               "ehj efi hil def gil bcd abc acd abc ceg ehk acd",
            4: "ehjl bcfg efhk befg adhi efhj aefi eghl abcd hikl fhij efgi eijl ghjk abdg "
               "abcd abde ijkl abde fhjl ehik acfh abef abde dijk abcd cekl afil abef achk "
               "efgk bcde abcd ijkl acdk efkl efik fhil ehjk acdh hjkl adeg fhil acef abdj "
               "abej abck befg bcfg abde",
        }
        for q_size, draws in expected.items():
            assert " ".join("".join(sorted(g.labels[v] for v in
                                           sample_query_vertices(g, q_size, seed=seed)))
                            for seed in range(50)) == draws

    def test_edgeless_graph_rejected_for_pairs(self):
        g = TemporalGraph([[]], ["a", "b"])
        with pytest.raises(ValueError):
            sample_query_vertices(g, 2, seed=0)
        assert len(sample_query_vertices(g, 1, seed=0)) == 1

    def test_q_size_validation(self, fix1):
        with pytest.raises(ValueError):
            sample_query_vertices(fix1, 0)

    @pytest.mark.parametrize("p", [0, -0.5, 1, 1.5, float("nan")])
    @pytest.mark.parametrize("q_size", [1, 2])
    def test_p_outside_unit_interval_rejected_before_walking(self, fix1, q_size, p):
        with pytest.raises(ParameterError, match="walk probability p"):
            sample_query_vertices(fix1, q_size, p=p)

    @pytest.mark.parametrize("q_size", [1, 2])
    def test_pool_above_vertex_count_rejected_before_walking(self, fix1, monkeypatch, q_size):
        def no_walk(*args):
            raise AssertionError("the walk started")

        # each walk step draws once from rng.random
        monkeypatch.setattr(random.Random, "random", no_walk)
        with pytest.raises(ParameterError, match="pool size"):
            sample_query_vertices(fix1, q_size, pool_size=fix1.n + 1)

    def test_default_pool_capped_at_vertex_count(self, fix1, monkeypatch, caplog):
        # FIX-1 has 4 vertices, fewer than the default pool of 3 * 2: the walk
        # stops once it has seen all 4, not after its 10,000-step budget
        steps = []
        draw = random.Random.random

        def counting(self):  # one per walk step, and one per query vertex drawn
            steps.append(1)
            return draw(self)

        monkeypatch.setattr(random.Random, "random", counting)
        with caplog.at_level(logging.WARNING):
            for seed in range(20):
                assert len(sample_query_vertices(fix1, 2, seed=seed)) == 2
        assert "stopped early" not in caplog.text
        assert len(steps) < 20 * 100

    def test_default_pool_capped_at_vertices_with_an_edge(self, caplog):
        # "c" has no edge, so the walk can see only 2 vertices: the pool is
        # full once it has, and no seed spends the whole step budget
        g = TemporalGraph([[(0, 1)], [(0, 1)]], ["a", "b", "c"])
        with caplog.at_level(logging.WARNING):
            for seed in range(10):
                assert sample_query_vertices(g, 2, seed=seed) == {0, 1}
        assert "stopped early" not in caplog.text
        with pytest.raises(ParameterError, match="cannot sample 3 query vertices from 2"):
            sample_query_vertices(g, 3)

    def test_walk_stops_once_it_has_seen_its_component(self, monkeypatch, caplog):
        # the default pool of 4 spans two components of 2 vertices: a walk
        # sees its start's 2, then stops and warns instead of walking its
        # 10,000-step budget; a query larger than the component is refused
        g = TemporalGraph([[(0, 1), (2, 3)]], list("abcd"))
        steps = []
        draw = random.Random.random

        def counting(self):  # one per walk step, and one per query vertex drawn
            steps.append(1)
            return draw(self)

        monkeypatch.setattr(random.Random, "random", counting)
        with caplog.at_level(logging.WARNING):
            for seed in range(10):
                assert sample_query_vertices(g, 2, seed=seed) in ({0, 1}, {2, 3})
            with pytest.raises(ParameterError, match="could not reach enough"):
                sample_query_vertices(g, 3)
        assert caplog.text.count("stopped early with 2 of 4 pool vertices") == 10
        assert len(steps) < 11 * 100

    def test_a_jump_looks_up_one_snapshot(self, monkeypatch):
        # a path 0-1-2-3 whose edges live in three windows of 2,000: a walk
        # step reads the snapshot it jumps to, not each window it skips
        snapshots = [[] for _ in range(2000)]
        snapshots[500], snapshots[1000], snapshots[1500] = [(0, 1)], [(1, 2)], [(2, 3)]
        lookups, steps = [], []

        class CountingSnapshots(tuple):
            def __getitem__(self, t):
                lookups.append(t)
                return tuple.__getitem__(self, t)

        draw = random.Random.random

        def counting(self):  # one per walk step, and one per query vertex drawn
            steps.append(1)
            return draw(self)

        monkeypatch.setattr(random.Random, "random", counting)
        for seed in range(5):
            g = TemporalGraph(snapshots, list("abcd"))
            g.snapshots = CountingSnapshots(g.snapshots)
            assert len(sample_query_vertices(g, 2, seed=seed)) == 2
        assert steps and len(lookups) <= len(steps)


class TestNullModelContrast:
    def test_reshuffling_shortens_spans_in_distribution(self):
        # planted persistent structure: its long spans should not survive
        # degree-preserving reshuffling on average
        rng = random.Random(2)
        base = random_temporal_graph(rng, 10, 5, 0.25)
        snapshots = [list(s) for s in base.snapshots]
        clique = [0, 1, 2, 3]
        for t in range(5):
            for i in range(len(clique)):
                for j in range(i + 1, len(clique)):
                    snapshots[t].append((clique[i], clique[j]))
        g = TemporalGraph(snapshots, base.labels)

        original_max = max(c.span.length for c in span_cores(g))
        assert original_max == 5
        rewired_maxima = []
        for seed in range(50):
            shuffled = rewire_null_model(g, seed=seed)
            cores = span_cores(shuffled)
            rewired_maxima.append(max((c.span.length for c in cores), default=0))
        assert statistics.mean(rewired_maxima) <= original_max


class TestAttributeTable:
    def test_reads_and_skips_unknown(self, fix1, tmp_path):
        path = tmp_path / "attrs.txt"
        path.write_text("a F\nb F\nc M\nghost X\n")
        table = read_attribute_table(path, fix1)
        assert table == {fix1.index_of("a"): "F", fix1.index_of("b"): "F",
                         fix1.index_of("c"): "M"}

    def test_malformed_row(self, fix1, tmp_path):
        path = tmp_path / "attrs.txt"
        path.write_text("a\n")
        with pytest.raises(ValueError):
            read_attribute_table(path, fix1)

    def test_reads_gzip_and_bytes(self, fix1, tmp_path):
        text = "a F\nb F\nc M\nghost X\n"
        packed = tmp_path / "attrs.txt.gz"
        with gzip.open(packed, "wt") as fh:
            fh.write(text)
        expected = {fix1.index_of("a"): "F", fix1.index_of("b"): "F", fix1.index_of("c"): "M"}
        assert read_attribute_table(packed, fix1) == expected
        assert read_attribute_table(text.encode(), fix1) == expected

    @pytest.mark.parametrize("ending", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_every_source_reads_universal_newlines(self, fix1, tmp_path, ending):
        data = ending.join(["a F", "b F", "c M", ""]).encode()
        plain, packed = tmp_path / "attrs.txt", tmp_path / "attrs.txt.gz"
        plain.write_bytes(data)
        packed.write_bytes(gzip.compress(data))
        expected = {fix1.index_of("a"): "F", fix1.index_of("b"): "F", fix1.index_of("c"): "M"}
        assert [read_attribute_table(source, fix1) for source in (plain, packed, data)] == \
            [expected] * 3

    def test_undecodable_table_is_a_format_error(self, fix1):
        with pytest.raises(EdgeListFormatError, match="not UTF-8 text.*0xff"):
            read_attribute_table(b"a F\nb \xff\n", fix1)
