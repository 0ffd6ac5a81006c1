import gc
import gzip
import importlib
import io
import json
import random
import tracemalloc

import pytest

from spancores import (
    DecompositionStats,
    EdgeListFormatError,
    Interval,
    SpanCore,
    SpanCoreSet,
    TemporalGraph,
    core_decomposition,
    filter_maximal,
    maximal_span_cores,
    naive_span_cores,
    read_span_cores,
    span_cores,
    write_span_cores,
)

from conftest import (as_definitional, definitional_span_cores, long_lived_graphs,
                      wide_domain_graphs)

# the package's ``span_cores`` attribute is the function of the same name
span_cores_module = importlib.import_module("spancores.span_cores")


def members(g, core):
    return sorted(g.label_of(u) for u in core.members)


class TestNaiveEnumeration:
    def test_fix1_has_nine_cores(self, fix1):
        assert len(naive_span_cores(fix1)) == 9

    def test_fix1_specific_cores(self, fix1):
        g = fix1
        cores = naive_span_cores(g)
        triangle = cores.get(2, Interval(0, 1))
        assert triangle is not None and members(g, triangle) == ["a", "b", "c"]
        snapshot_one_core = cores.get(1, Interval(0, 0))
        assert snapshot_one_core is not None
        assert members(g, snapshot_one_core) == ["a", "b", "c", "d"]

    def test_every_member_meets_degree_bound(self, fix1):
        g = fix1
        for core in naive_span_cores(g):
            for u in core.members:
                assert g.induced_degree(core.span, core.members, u) >= core.order

    def test_maximality_of_members(self, fix1):
        g = fix1
        for core in naive_span_cores(g):
            outside = set(g.vertices) - core.members
            for extra in outside:
                grown = core.members | {extra}
                degrees_ok = all(
                    g.induced_degree(core.span, grown, u) >= core.order for u in grown)
                assert not degrees_ok, (core.order, core.span, extra)


class TestSeededEnumeration:
    def test_fix1_matches_oracle(self, fix1):
        assert span_cores(fix1) == naive_span_cores(fix1)

    def test_single_timestamp_graph(self):
        g = TemporalGraph([[(0, 1), (1, 2), (0, 2), (2, 3)]], ["a", "b", "c", "d"])
        cores = span_cores(g)
        coreness = core_decomposition(g.vertices, g.snapshots[0])
        k_max = max(coreness.values())
        for k in range(1, k_max + 1):
            core = cores.get(k, Interval(0, 0))
            assert core is not None and core.members == {u for u, c in coreness.items() if c >= k}
        assert len(cores) == k_max

    def test_disjoint_snapshots_kill_the_branch(self):
        g = TemporalGraph([[(0, 1)], [(2, 3)]], ["a", "b", "c", "d"])
        stats = DecompositionStats()
        cores = span_cores(g, stats)
        assert all(core.span.length == 1 for core in cores)
        # the width-2 interval has an empty edge intersection, so the walk from
        # start 0 stops before reaching it
        assert stats.intervals_processed == 2

    def test_oracle_equivalence_sample(self, corpus):
        for g in corpus[:60] + wide_domain_graphs():
            assert span_cores(g) == naive_span_cores(g)

    def test_containment_property(self, corpus):
        for g in corpus[:25]:
            cores = list(span_cores(g))
            for inner in cores:
                for outer in cores:
                    if outer.order <= inner.order and outer.span.within(inner.span):
                        assert inner.members <= outer.members

    def test_vertical_nesting_per_span(self, corpus):
        for g in corpus[:25]:
            by_span = {}
            for core in span_cores(g):
                by_span.setdefault(core.span, {})[core.order] = core.members
            for orders in by_span.values():
                for k in orders:
                    if k + 1 in orders:
                        assert orders[k + 1] <= orders[k]

    def test_matches_the_definition_on_corpus(self, corpus):
        for g in corpus:
            expected = definitional_span_cores(g)
            cores = span_cores(g)
            assert as_definitional(cores) == expected
            assert len(cores) == len(expected)

    def test_peels_only_edge_endpoints(self, fix1):
        # [0,0] has all four vertices on edges, [0,1] the triangle, [0,2] the
        # edge ab; [1,1] reuses [0,1], and [1,2] and [2,2] reuse [0,2]
        stats = DecompositionStats()
        span_cores(fix1, stats)
        assert stats.intervals_processed == 3
        assert stats.peel_vertices == 4 + 3 + 2

    def test_peels_each_distinct_edge_set_once(self, corpus, monkeypatch):
        # an interval is peeled exactly when its edge set differs from both
        # [ts, te - 1] and [ts - 1, te], the intervals it can reuse
        peeled = []

        def recording(vertices, edges):
            peeled.append(frozenset(edges))
            return core_decomposition(vertices, edges)

        monkeypatch.setattr(span_cores_module, "core_decomposition", recording)
        for g in corpus[:60] + wide_domain_graphs():
            oracle = naive_span_cores(g)
            peeled.clear()
            stats = DecompositionStats()
            assert span_cores(g, stats) == oracle
            edges = {(ts, te): g.interval_edges(Interval(ts, te))
                     for ts in range(g.t_max + 1) for te in range(ts, g.t_max + 1)}
            expected = [e for (ts, te), e in sorted(edges.items())
                        if e and e != edges.get((ts, te - 1)) and e != edges.get((ts - 1, te))]
            assert peeled == expected
            assert stats.intervals_processed == len(expected)

    def test_never_feeds_more_peel_vertices_than_naive(self, corpus):
        for g in corpus[:60]:
            fast_stats = DecompositionStats()
            naive_stats = DecompositionStats()
            span_cores(g, fast_stats)
            naive_span_cores(g, naive_stats)
            assert fast_stats.peel_vertices <= naive_stats.peel_vertices

    def test_each_start_streams_its_runs(self, corpus):
        # per start, the runs tile the ends up to the last with an edge, in
        # order; a run's spans share one edge set, the next run's differs,
        # and the run's coreness is that edge set's, zeros dropped; ``wider``
        # is the coreness object of the run of ts - 1 ending at the run's
        # last end, and {} where no run of ts - 1 ends there
        for g in corpus + long_lived_graphs() + wide_domain_graphs():
            runs = list(span_cores_module._seeded_coreness(g, None))
            assert [run[:2] for run in runs] == sorted(run[:2] for run in runs)
            ending = {}  # (start, run end) -> the run's coreness
            for ts in range(g.t_max + 1):
                edges = [g.interval_edges(Interval(ts, te)) for te in range(ts, g.t_max + 1)]
                reach = ts + sum(1 for e in edges if e) - 1
                own = [run[1:] for run in runs if run[0] == ts]
                firsts = [ts] + [run[1] + 1 for run in own]
                assert [run[0] for run in own] == firsts[:-1]
                assert firsts[-1] - 1 == reach
                before = None
                for first, last, coreness, wider in own:
                    edge_set, *others = {edges[te - ts] for te in range(first, last + 1)}
                    assert not others and edge_set != before
                    before = edge_set
                    expected = core_decomposition(g.vertices, edge_set)
                    assert coreness == {u: c for u, c in expected.items() if c}
                    if (ts - 1, last) in ending:
                        assert wider is ending[ts - 1, last]
                    else:
                        assert wider == {}
                    ending[ts, last] = coreness

    @pytest.mark.parametrize("t", [200, 400])
    def test_one_item_per_run_with_one_edge_per_window(self, t):
        # every span of a start has the one edge, so each start is one run:
        # |T| items, where a stream of spans has |T|(|T| + 1)/2
        g = TemporalGraph([[(0, 1)]] * t, ["a", "b"])
        runs = [run[:3] for run in span_cores_module._seeded_coreness(g, None)]
        assert runs == [(ts, ts, t - 1) for ts in range(t)]


class TestSerialization:
    def test_fix1_record_count_and_order(self, fix1):
        sink = io.StringIO()
        assert write_span_cores(span_cores(fix1), sink, fix1) == 9
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 9
        import json
        keys = [(r["ts"], r["te"], r["k"]) for r in map(json.loads, lines)]
        assert keys == sorted(keys)

    def test_empty_graph_period(self):
        g = TemporalGraph([[], []], ["a", "b"])
        sink = io.StringIO()
        assert write_span_cores(span_cores(g), sink, g) == 0

    def test_round_trip(self, fix1):
        cores = span_cores(fix1)
        sink = io.StringIO()
        write_span_cores(cores, sink, fix1)
        assert read_span_cores(io.StringIO(sink.getvalue()), fix1) == cores

    def test_reads_paths_gzip_and_bytes(self, fix1, tmp_path):
        cores = span_cores(fix1)
        sink = io.StringIO()
        write_span_cores(cores, sink, fix1)
        text = sink.getvalue()
        plain, packed = tmp_path / "cores.jsonl", tmp_path / "cores.jsonl.gz"
        plain.write_text(text)
        with gzip.open(packed, "wt") as fh:
            fh.write(text)
        for source in (plain, str(packed), text.encode()):
            assert read_span_cores(source, fix1) == cores

    def test_undecodable_records_are_a_format_error(self, fix1):
        with pytest.raises(EdgeListFormatError, match="not UTF-8 text.*0xff"):
            read_span_cores(b'{"k": 1, "ts": 0, "te": 0, "vertices": ["\xff"]}\n', fix1)

    def test_maximal_flag_present(self, fix1):
        import json
        from spancores import maximal_span_cores
        sink = io.StringIO()
        write_span_cores(maximal_span_cores(fix1), sink, fix1, maximal=True)
        for line in sink.getvalue().strip().splitlines():
            assert json.loads(line)["maximal"] is True

    def test_matches_json_dumps_of_each_record(self):
        # labels that JSON escapes, and ones that sort differently once quoted
        labels = ['a"b', "a", "a!", "\u00e9t\u00e9", "x\\y", "a b", "10", "9", "\u2603"]
        triangle_plus = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4), (5, 6), (7, 8), (0, 8)]
        g = TemporalGraph([triangle_plus, triangle_plus[:6], [(0, 1)]], labels)
        # the naive oracle shares no labelling between spans, so no cached
        # records are reused for it
        for maximal, cores in ((False, span_cores(g)), (False, naive_span_cores(g)),
                               (True, maximal_span_cores(g)),
                               (True, filter_maximal(span_cores(g)))):
            expected = []
            for core in cores:
                record = {"k": core.order, "ts": core.span.start, "te": core.span.end,
                          "size": len(core.members),
                          "vertices": sorted(g.label_of(u) for u in core.members)}
                if maximal:
                    record["maximal"] = True
                expected.append(json.dumps(record, sort_keys=True) + "\n")
            sink = io.StringIO()
            assert write_span_cores(cores, sink, g, maximal=maximal) == len(expected)
            assert sink.getvalue() == "".join(expected)

    def test_each_labelling_rendered_once(self, fix1, corpus, monkeypatch):
        # a labelling shared across starts, as FIX-1's [0,2], [1,2] and [2,2]
        # share one, is grouped and rendered at its first span only
        rendered = []
        layers = span_cores_module._layers

        def spy(labels, orders):
            rendered.append(labels)
            return layers(labels, orders)

        shared = [labels for _, first, last, labels, _ in span_cores(fix1)._runs
                  if first <= 2 <= last]
        assert len(shared) == 3 and shared[0] is shared[1] is shared[2]
        monkeypatch.setattr(span_cores_module, "_layers", spy)
        for g in [fix1] + corpus[:40]:
            cores = span_cores(g)
            rendered.clear()
            write_span_cores(cores, io.StringIO(), g)
            distinct = {id(labels): labels for *_, labels, _ in cores._runs}
            assert len(rendered) == len(distinct)
            assert {id(labels) for labels in rendered} == set(distinct)

    def test_duplicate_key_rejected(self):
        stored = SpanCore(1, Interval(0, 0), frozenset({0, 1}))
        for members in ({0, 2}, {0, 1}):
            with pytest.raises(ValueError, match="duplicate"):
                SpanCoreSet([stored, SpanCore(1, Interval(0, 0), frozenset(members))])


def span_core(k, ts, te, members):
    return SpanCore(k, Interval(ts, te), frozenset(members))


class TestSpanCoreSetContract:
    def test_add_enumeration_and_reading_agree(self, corpus):
        for i, g in enumerate(corpus[:80]):
            for enumerated in (span_cores(g), maximal_span_cores(g)):
                cores = list(enumerated)
                shuffled = cores[:]
                random.Random(i).shuffle(shuffled)
                sink = io.StringIO()
                write_span_cores(enumerated, sink, g)
                for other in (SpanCoreSet(iter(shuffled)),
                              read_span_cores(io.StringIO(sink.getvalue()), g)):
                    assert other == enumerated
                    assert len(other) == len(enumerated) == len(cores)
                    assert list(other) == list(enumerated) == cores
                    for core in cores:
                        assert core in other
                        assert other.get(core.order, core.span) == core
                        assert other.get(core.order + 1, core.span) == enumerated.get(
                            core.order + 1, core.span)
                        if len(core.members) > 1:
                            assert SpanCore(core.order, core.span,
                                            core.members - {min(core.members)}) not in other

    def test_equal_however_spans_are_grouped_into_runs(self):
        # one edge in 3 windows: the seeded set keeps one run per start, the
        # naive one a run per span; a trailing span more makes them unequal
        g = TemporalGraph([[(0, 1)]] * 3, ["a", "b"])
        seeded, naive = span_cores(g), naive_span_cores(g)
        assert (len(seeded._runs), len(naive._runs)) == (3, 6)
        assert seeded == naive and naive == seeded
        longer = SpanCoreSet([*naive, span_core(1, 3, 3, {0, 1})])
        shorter = SpanCoreSet(list(naive)[:-1])
        for one, other in ((seeded, longer), (naive, longer), (seeded, shorter)):
            assert one != other and other != one
        for g in wide_domain_graphs():
            seeded, naive = span_cores(g), naive_span_cores(g)
            assert len(seeded._runs) < len(naive._runs)
            assert seeded == naive and naive == seeded

    def test_memory_is_about_one_entry_per_run(self):
        # one edge in each of 400 windows: every one of the 80,200 spans has
        # that edge set, but there are only 400 runs, one per start, so the
        # set should cost a small part of what a key per span costs, and
        # iterating it should hold one span's cores at a time
        g = TemporalGraph([[(0, 1)]] * 400, ["a", "b"])

        def peak(build):
            gc.collect()
            tracemalloc.start()
            try:
                return build(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, keys = peak(lambda: {(ts, te): None for ts in range(400) for te in range(ts, 400)})
        cores, stored = peak(lambda: span_cores(g))
        count, iterated = peak(lambda: sum(1 for _ in cores))
        assert count == len(cores) == 80_200
        assert stored <= keys / 20, (stored, keys)
        assert iterated <= stored, (iterated, stored)

    def test_missing_orders_and_spans(self):
        cores = SpanCoreSet([span_core(1, 0, 0, {0, 1, 2, 3}), span_core(3, 0, 0, {0, 1})])
        assert len(cores) == 2
        assert cores.get(2, Interval(0, 0)) is None
        assert cores.get(4, Interval(0, 0)) is None
        assert cores.get(1, Interval(0, 1)) is None
        assert cores.get(3, Interval(0, 0)).members == frozenset({0, 1})
        assert span_core(2, 0, 0, {0, 1}) not in cores
        # spans before, between and after the stored ones, and an empty set
        later = SpanCoreSet([span_core(1, 0, 1, {0, 1}), span_core(1, 0, 3, {0, 1})])
        for te in (0, 2, 4):
            assert later.get(1, Interval(0, te)) is None
        assert later.get(1, Interval(1, 1)) is None
        assert SpanCoreSet().get(1, Interval(0, 0)) is None

    def test_cores_added_between_stored_orders(self):
        cores = SpanCoreSet([span_core(3, 0, 0, {0, 1}), span_core(1, 0, 0, {0, 1, 2, 3}),
                             span_core(2, 0, 0, {0, 1, 2})])
        assert [(c.order, sorted(c.members)) for c in cores] == [
            (1, [0, 1, 2, 3]), (2, [0, 1, 2]), (3, [0, 1])]
        assert cores == SpanCoreSet([span_core(k, 0, 0, range(5 - k)) for k in (2, 1, 3)])

    @pytest.mark.parametrize("order,members", [
        (2, {0, 1, 4}),  # not inside the order-1 core
        (4, {0, 2}),  # not inside the order-3 core
        (2, {0}),  # does not contain the order-3 core
        (5, {0, 1, 2}),  # larger than the order-3 core
        (2, {0, 1, 2, 3, 4}),  # larger than the order-1 core
    ])
    def test_core_not_nested_with_its_span_rejected(self, order, members):
        stored = [span_core(1, 0, 0, {0, 1, 2, 3}), span_core(3, 0, 0, {0, 1})]
        rejected = span_core(order, 0, 0, members)
        for given in (stored + [rejected], [rejected] + stored[::-1]):
            with pytest.raises(ValueError, match="not nested"):
                SpanCoreSet(iter(given))
        elsewhere = span_core(order, 0, 1, members)  # another span is unconstrained
        assert list(SpanCoreSet([elsewhere] + stored)) == stored + [elsewhere]
