import importlib
import io
import json
import random

import pytest

from spancores import (
    DecompositionStats,
    Interval,
    SpanCore,
    SpanCoreSet,
    TemporalGraph,
    core_decomposition,
    maximal_span_cores,
    naive_span_cores,
    read_span_cores,
    span_cores,
    write_span_cores,
)

from conftest import as_definitional, definitional_span_cores

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
        for g in corpus[:60]:
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
        for g in corpus[:60]:
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
        for maximal, cores in ((False, span_cores(g)), (True, maximal_span_cores(g))):
            expected = []
            for core in cores.sorted_cores():
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

        spans = span_cores(fix1)._spans
        assert spans[(0, 2)][0] is spans[(1, 2)][0] is spans[(2, 2)][0]
        monkeypatch.setattr(span_cores_module, "_layers", spy)
        for g in [fix1] + corpus[:40]:
            cores = span_cores(g)
            rendered.clear()
            write_span_cores(cores, io.StringIO(), g)
            distinct = {id(labels): labels for labels, _ in cores._spans.values()}
            assert len(rendered) == len(distinct)
            assert {id(labels) for labels in rendered} == set(distinct)

    def test_duplicate_key_rejected(self, fix1):
        cores = SpanCoreSet()
        cores.add(SpanCore(1, Interval(0, 0), frozenset({0, 1})))
        with pytest.raises(ValueError, match="duplicate"):
            cores.add(SpanCore(1, Interval(0, 0), frozenset({0, 2})))
        with pytest.raises(ValueError, match="duplicate"):
            cores.add(SpanCore(1, Interval(0, 0), frozenset({0, 1})))


def span_core(k, ts, te, members):
    return SpanCore(k, Interval(ts, te), frozenset(members))


class TestSpanCoreSetContract:
    def test_add_enumeration_and_reading_agree(self, corpus):
        for i, g in enumerate(corpus[:80]):
            for enumerated in (span_cores(g), maximal_span_cores(g)):
                cores = enumerated.sorted_cores()
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

    def test_add_to_a_span_sharing_its_labelling(self, fix1):
        # [0,2], [1,2] and [2,2] all have the edge set {ab} and share one
        # stored labelling; a core added to one of them, or rejected there,
        # leaves the other two as they were
        cores = span_cores(fix1)
        shared = cores._spans[(0, 2)][0]
        assert cores._spans[(1, 2)][0] is shared and cores._spans[(2, 2)][0] is shared
        before = io.StringIO()
        write_span_cores(cores, before, fix1)
        with pytest.raises(ValueError, match="not nested"):
            cores.add(span_core(2, 0, 2, {0, 2}))
        cores.add(span_core(2, 0, 2, {0, 1}))
        assert cores.get(2, Interval(0, 2)) == span_core(2, 0, 2, {0, 1})
        for ts in (1, 2):
            assert cores.get(2, Interval(ts, 2)) is None
            assert cores.get(1, Interval(ts, 2)) == span_core(1, ts, 2, {0, 1})
        after = io.StringIO()
        write_span_cores(cores, after, fix1)
        stored = '{"k": 1, "size": 2, "te": 2, "ts": 0, "vertices": ["a", "b"]}\n'
        added = stored.replace('"k": 1', '"k": 2')
        assert stored in before.getvalue()
        assert after.getvalue() == before.getvalue().replace(stored, stored + added)

    def test_missing_orders_and_spans(self):
        cores = SpanCoreSet([span_core(1, 0, 0, {0, 1, 2, 3}), span_core(3, 0, 0, {0, 1})])
        assert len(cores) == 2
        assert cores.get(2, Interval(0, 0)) is None
        assert cores.get(4, Interval(0, 0)) is None
        assert cores.get(1, Interval(0, 1)) is None
        assert cores.get(3, Interval(0, 0)).members == frozenset({0, 1})
        assert span_core(2, 0, 0, {0, 1}) not in cores

    def test_cores_added_between_stored_orders(self):
        cores = SpanCoreSet([span_core(3, 0, 0, {0, 1}), span_core(1, 0, 0, {0, 1, 2, 3})])
        cores.add(span_core(2, 0, 0, {0, 1, 2}))
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
        cores = SpanCoreSet(iter(stored))
        with pytest.raises(ValueError, match="not nested"):
            cores.add(span_core(order, 0, 0, members))
        assert cores == SpanCoreSet(iter(stored)) and list(cores) == stored
        cores.add(span_core(order, 0, 1, members))  # another span is unconstrained
