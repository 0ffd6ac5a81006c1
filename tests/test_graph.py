import gc
import gzip
import random
import tracemalloc
from collections import Counter

import pytest

from spancores import (
    EdgeListFormatError,
    Interval,
    TemporalGraph,
    load_edge_list,
    maximal_span_cores,
    naive_span_cores,
    rewire_null_model,
    span_cores,
    tcs_efficient,
    write_edge_list,
)
from spancores import graph as graph_module
from spancores.graph import MAX_TIMESTAMPS, UnknownLabelError

from conftest import (FIX1_SNAPSHOTS, forward_interval_edges, loaded, long_lived_graphs,
                      random_temporal_graph, reference_load, wide_domain_graphs)


def edges_by_labels(g, pairs):
    return frozenset(
        tuple(sorted((g.index_of(a), g.index_of(b)))) for a, b in pairs
    )


class TestInterval:
    def test_length_and_containment(self):
        assert Interval(2, 5).length == 4
        assert Interval(2, 3).within(Interval(1, 4))
        assert Interval(2, 3).within(Interval(2, 3))
        assert not Interval(1, 4).within(Interval(2, 3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interval(3, 2)
        with pytest.raises(ValueError):
            Interval(-1, 0)


class TestLoader:
    def test_bucket_arithmetic(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 a b\n3 a b\n7 b c\n")
        g = load_edge_list(path, window=5)
        assert g.t_max == 1
        assert g.snapshots[0] == edges_by_labels(g, [("a", "b")])
        assert g.snapshots[1] == edges_by_labels(g, [("b", "c")])

    def test_duplicates_within_window_counted_once(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 a b\n1 a b\n")
        g = load_edge_list(path, window=5)
        assert g.t_max == 0
        assert len(g.snapshots[0]) == 1

    def test_self_loops_dropped_with_counter(self):
        g = load_edge_list(b"0 a a\n0 a b\n", window=1, pre_windowed=True)
        assert g.dropped_self_loops == 1
        assert len(g.snapshots[0]) == 1

    def test_fix1_fixture(self, fix1):
        # labels are interned in first appearance, snapshot by snapshot
        assert fix1.labels == ("a", "b", "c", "d")
        assert fix1.snapshots == tuple(edges_by_labels(fix1, pairs) for pairs in FIX1_SNAPSHOTS)
        assert fix1.dropped_self_loops == 0

    def test_empty_buckets_retained(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 a b\n20 a b\n")
        g = load_edge_list(path, window=5)
        assert g.t_max == 4
        assert g.snapshots[1] == frozenset()
        assert g.snapshots[4] == edges_by_labels(g, [("a", "b")])

    def test_comma_separated_and_comments(self):
        g = load_edge_list(b"# header\n0,a,b\n0 b c\n", window=5)
        assert len(g.snapshots[0]) == 2

    def test_extra_columns_ignored(self):
        g = load_edge_list(b"0 a b classA classB\n", window=5)
        assert g.n == 2

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "edges.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("0 a b\n5 b c\n")
        g = load_edge_list(path, window=5)
        assert g.t_max == 1

    def test_pre_windowed(self):
        g = load_edge_list(b"0 a b\n2 b c\n", window=999, pre_windowed=True)
        assert g.t_max == 2
        assert g.snapshots[1] == frozenset()

    def test_malformed_record_reports_line(self):
        with pytest.raises(EdgeListFormatError, match="line 2"):
            load_edge_list(b"0 a b\nnonsense\n", window=5)
        with pytest.raises(EdgeListFormatError, match="line 1"):
            load_edge_list(b"x a b\n", window=5)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            load_edge_list(b"0 a b\n", window=0)

    def test_empty_source_rejected(self):
        with pytest.raises(EdgeListFormatError):
            load_edge_list(b"", window=5)

    def test_explicit_time_origin(self):
        g = load_edge_list(b"10 a b\n14 b c\n", window=5, time_origin=10)
        assert g.t_max == 0
        with pytest.raises(EdgeListFormatError):
            load_edge_list(b"3 a b\n", window=5, time_origin=10)

    def test_time_domain_over_the_cap_rejected(self):
        with pytest.raises(EdgeListFormatError,
                           match=f"{10**12 + 1} windows exceeds the limit of {MAX_TIMESTAMPS}"):
            load_edge_list(b"0 a b\n1000000000000 a b\n", window=1, pre_windowed=True)

    def test_time_domain_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_TIMESTAMPS", 5)
        assert load_edge_list(b"0 a b\n4 a b\n", window=1, pre_windowed=True).t_max == 4
        assert load_edge_list(b"10 a b\n34 a b\n", window=5).t_max == 4
        with pytest.raises(EdgeListFormatError, match="6 windows exceeds the limit of 5"):
            load_edge_list(b"0 a b\n5 a b\n", window=1, pre_windowed=True)
        with pytest.raises(EdgeListFormatError, match="6 windows"):
            load_edge_list(b"10 a b\n35 a b\n", window=5)

    def test_round_trip_via_edge_list(self, fix1, tmp_path):
        path = tmp_path / "out.tsv"
        with open(path, "w") as fh:
            write_edge_list(fix1, fh)
        back = load_edge_list(path, window=1, pre_windowed=True)
        assert back.snapshots == fix1.snapshots

    @pytest.mark.parametrize("bad, message", [
        ("x7 a b", "non-integer timestamp 'x7'"),
        ("-3 a b", "negative timestamp -3"),
        ("12 a", "expected at least 3 fields"),
    ])
    def test_line_number_after_several_chunks(self, monkeypatch, bad, message):
        monkeypatch.setattr(graph_module, "CHUNK_CHARS", 32)
        good = [f"{t} v{t % 7} w{t % 5}" for t in range(40)]
        text = "\n".join(good[:30] + [bad] + good[30:]) + "\n"
        with pytest.raises(EdgeListFormatError, match=f"^line 31: {message}") as raised:
            load_edge_list(text.encode(), window=5)
        assert raised.value.line_number == 31

    @pytest.mark.parametrize("kwargs", [{"window": 1, "time_origin": 10},
                                        {"window": 1, "pre_windowed": True}])
    def test_malformed_line_reported_before_origin_and_domain_errors(self, monkeypatch, kwargs):
        monkeypatch.setattr(graph_module, "CHUNK_CHARS", 32)
        # a record before the origin and a time past the domain cap come first
        good = [f"{t} a b" for t in range(10, 30)]
        text = "\n".join(["3 a b", f"{10**12} a b", *good, "oops"]) + "\n"
        with pytest.raises(EdgeListFormatError, match="^line 23: expected at least 3 fields"):
            load_edge_list(text.encode(), **kwargs)

    @pytest.mark.parametrize("kwargs", [{"window": 1, "time_origin": 0}, {"window": 1},
                                        {"window": 1, "pre_windowed": True}],
                             ids=["origin", "no-origin", "pre-windowed"])
    def test_too_wide_domain_stops_collecting_but_reads_every_line(self, monkeypatch, kwargs):
        monkeypatch.setattr(graph_module, "MAX_TIMESTAMPS", 5)
        monkeypatch.setattr(graph_module, "CHUNK_CHARS", 16)
        placed = []
        collect = graph_module._collect

        def spy(records, *rest):
            records = list(records)
            placed.extend(t for t, _, _ in records)
            collect(records, *rest)

        monkeypatch.setattr(graph_module, "_collect", spy)
        # 16-character chunks: lines 1-3, 4-6 (too wide from line 5) and 7-8
        lines = ["0 a b", "1 b c", "2 c d", "3 a d", "10 a c", "4 b d", "40 d a", "2 a c"]
        text = "\n".join(lines) + "\n"
        with pytest.raises(EdgeListFormatError,
                           match="^time domain of 41 windows exceeds the limit of 5$"):
            load_edge_list(text.encode(), **kwargs)
        # only the first chunk is placed; without an origin nothing is
        assert placed == ([] if kwargs == {"window": 1} else [0, 1, 2])
        with pytest.raises(EdgeListFormatError, match="^line 9: expected at least 3 fields"):
            load_edge_list((text + "9 a\n3 b c\n").encode(), **kwargs)

    def test_epoch_seconds_read_pre_windowed_are_rejected_within_a_chunk(self, tmp_path):
        """Every record in its own window: the load stops collecting at the
        first chunk, so its peak is a chunk's, not the records'."""
        path = tmp_path / "contacts.txt"
        path.write_text("".join(f"{1_600_000_000 + i} v{i % 50} w{i % 70}\n"
                                for i in range(100_000)))
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListFormatError,
                               match="^time domain of 1600100000 windows exceeds the limit"):
                load_edge_list(path, window=1, pre_windowed=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000, peak

    def test_epoch_seconds_from_bytes_are_rejected_within_a_chunk(self):
        """Bytes are decoded a chunk at a time, so they keep the bound a file
        keeps: the decoded text is never held whole."""
        data = "".join(f"{1_600_000_000 + i} v{i % 50} w{i % 70}\n"
                       for i in range(100_000)).encode()
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(EdgeListFormatError,
                               match="^time domain of 1600100000 windows exceeds the limit"):
                load_edge_list(data, window=1, pre_windowed=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4_000_000, peak

    def test_gzip_loads_like_the_plain_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "CHUNK_CHARS", 256)
        text = "".join(f"{20 * i} v{i % 11} v{i * 7 % 13}\n" for i in range(400))
        text += "# mixed tail\n8000,v1,v2\n8020 v2 v3 meta\n"
        plain, packed = tmp_path / "contacts.txt", tmp_path / "contacts.txt.gz"
        plain.write_text(text)
        with gzip.open(packed, "wt") as fh:
            fh.write(text)
        for kwargs in ({"window": 60}, {"window": 60, "time_origin": 0},
                       {"window": 1, "pre_windowed": True}):
            a, b = load_edge_list(plain, **kwargs), load_edge_list(packed, **kwargs)
            assert (a.labels, a.snapshots, a.dropped_self_loops) == \
                   (b.labels, b.snapshots, b.dropped_self_loops)

    @pytest.mark.parametrize("ending", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_every_source_reads_universal_newlines(self, tmp_path, ending):
        data = ending.join(["0 a b", "1 c d", "1 a c", ""]).encode()
        plain, packed = tmp_path / "contacts.txt", tmp_path / "contacts.txt.gz"
        plain.write_bytes(data)
        packed.write_bytes(gzip.compress(data))
        graphs = [load_edge_list(source, window=1, pre_windowed=True)
                  for source in (plain, packed, data)]
        assert [(g.labels, g.snapshots) for g in graphs] == [
            (("a", "b", "c", "d"), (edges_by_labels(graphs[0], [("a", "b")]),
                                    edges_by_labels(graphs[0], [("c", "d"), ("a", "c")])))] * 3

    def test_only_line_feeds_end_records(self):
        # a form feed is whitespace to split(), not a line end: "1 c d" is extra columns
        g = load_edge_list(b"0 a b\x0c1 c d\n2 e f\n", window=1, pre_windowed=True)
        assert g.labels == ("a", "b", "e", "f")

    @pytest.mark.parametrize("kwargs", [{"window": 2}, {"window": 2, "time_origin": 0},
                                        {"window": 1, "pre_windowed": True}])
    def test_each_distinct_pair_is_one_tuple(self, kwargs):
        # pairs recur across windows, and "b a" repeats "a b" reversed
        text = b"0 a b\n0 b c\n1 a b\n2 b a\n2 c b\n3 c d\n4 a b\n4 d c\n5 b c\n"
        g = load_edge_list(text, **kwargs)
        pairs = [pair for snapshot in g.snapshots for pair in snapshot]
        assert len({id(pair) for pair in pairs}) == len(set(pairs)) == 3

    @pytest.mark.parametrize("text", [b"# ok\n0 a b\n1 b a\n", b"# bad\n0 a b\nx a b\n"],
                             ids=["loads", "raises"])
    def test_collector_paused_then_restored(self, monkeypatch, collector, text):
        seen = []
        parse = graph_module._parse_lines

        def spy(*args):
            seen.append(gc.isenabled())
            return parse(*args)

        monkeypatch.setattr(graph_module, "_parse_lines", spy)
        try:
            load_edge_list(text, window=1, pre_windowed=True)
        except EdgeListFormatError:
            assert b"x" in text
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_peak_memory_is_bounded_by_the_graph(self, tmp_path):
        """Raw contacts recorded about twice per window load within two and a
        half times the memory the graph keeps: the load holds one chunk plus
        the distinct contacts, not every record."""
        rng = random.Random(5)
        origin, width, tick = 1_353_300_000, 300, 20
        lines = []
        for w in range(400):
            pairs = {tuple(sorted(rng.sample(range(1000, 1150), 2))) for _ in range(65)}
            rows = sorted((slot, u, v) for u, v in pairs
                          for slot in rng.sample(range(width // tick), 2))
            lines += [f"{origin + w * width + slot * tick} {u} {v}" for slot, u, v in rows]
        assert len(lines) >= 50_000
        path = tmp_path / "contacts.txt"
        path.write_text("\n".join(lines) + "\n")
        # tuples reused from the free lists go untraced; empty them first
        gc.collect()
        tracemalloc.start()
        try:
            g = load_edge_list(path, window=width, time_origin=origin)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.temporal_edge_count() == len(lines) // 2
        assert peak <= 2.5 * retained, (peak, retained)

    def test_undecodable_bytes_are_a_format_error(self):
        with pytest.raises(EdgeListFormatError, match="not UTF-8 text.*0xff"):
            load_edge_list(b"0 a b\n1 b \xff\n", window=1, pre_windowed=True)


LOAD_KWARGS = [{"window": 2}, {"window": 2, "time_origin": 0},
               {"window": 1, "pre_windowed": True}]


class TestChunkRoutes:
    """A chunk of uniform rows is read column-wise from one ``str.split``;
    any other chunk goes line by line with its original text."""

    @pytest.fixture
    def line_by_line(self, monkeypatch):
        """The first line number of each chunk parsed line by line."""
        calls = []
        parse = graph_module._parse_lines

        def spy(chunk, lineno):
            calls.append(lineno)
            return parse(chunk, lineno)

        monkeypatch.setattr(graph_module, "_parse_lines", spy)
        return calls

    @pytest.mark.parametrize("text", [
        "0,a,b\n1,b,c\n3,c,a\n1,a,a\n",
        "0 a b\r\n1\tb\tc\r\n3 c a\r\n1 a a\r\n",
        "0, a ,b,x\r\n1 ,b, c,y\r\n3,c ,a , z\r\n1,a,a,w",
    ], ids=["comma", "crlf", "both-and-no-final-line-end"])
    @pytest.mark.parametrize("kwargs", LOAD_KWARGS)
    def test_commas_and_crlf_load_column_wise(self, line_by_line, text, kwargs):
        g = load_edge_list(text.encode(), **kwargs)
        assert line_by_line == []
        assert loaded(g) == reference_load(text, **kwargs)

    def test_comma_separated_chunks_load_column_wise(self, line_by_line, monkeypatch):
        monkeypatch.setattr(graph_module, "CHUNK_CHARS", 32)
        text = "".join(f"{20 * i},v{i % 11},v{i * 7 % 13}\r\n" for i in range(200))
        g = load_edge_list(text.encode(), window=60)
        assert line_by_line == []
        assert loaded(g) == reference_load(text, window=60)

    @pytest.mark.parametrize("text, line", [
        ("0 11\n1 12 13 14\n", 1),
        ("".join(f"{t} 11 12\n" for t in range(30)) + "30 11\n31 12 13 14\n", 31),
        ("0 11 12 13\n1 12\n", 2),
    ], ids=["short-first", "after-thirty-lines", "short-last"])
    def test_lines_of_two_and_four_fields_raise_at_the_short_line(self, line_by_line, text,
                                                                  line):
        # three fields a line on average; in the first two cases every fourth
        # token from the first is an integer too, so only the line ends tell
        with pytest.raises(EdgeListFormatError,
                           match=f"^line {line}: expected at least 3 fields"):
            load_edge_list(text.encode(), window=1, pre_windowed=True)
        assert line_by_line == [1]

    @pytest.mark.parametrize("text", [
        "0 a#1 b\n1 b c#\n2 c a #note\n",
        "0 a\0x b\n1 b c\n2 c a\0\n",
    ], ids=["hash-in-label", "nul-in-label"])
    @pytest.mark.parametrize("kwargs", LOAD_KWARGS)
    def test_hash_or_nul_in_a_label_loads_line_by_line(self, line_by_line, text, kwargs):
        g = load_edge_list(text.encode(), **kwargs)
        assert line_by_line == [1]
        assert loaded(g) == reference_load(text, **kwargs)


class TestIntervalEdges:
    def test_fix1_examples(self, fix1):
        g = fix1
        assert g.interval_edges(Interval(0, 0)) == edges_by_labels(
            g, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
        assert g.interval_edges(Interval(0, 1)) == edges_by_labels(
            g, [("a", "b"), ("a", "c"), ("b", "c")])
        assert g.interval_edges(Interval(0, 2)) == edges_by_labels(g, [("a", "b")])

    def test_single_timestamp_is_snapshot(self, fix1):
        for t in range(fix1.t_max + 1):
            assert fix1.interval_edges(Interval(t, t)) == fix1.snapshots[t]

    def test_out_of_range(self, fix1):
        with pytest.raises(ValueError):
            fix1.interval_edges(Interval(0, 3))

    def test_anti_monotone_in_span(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_temporal_graph(rng, 8, 4, 0.4)
            for ts in range(g.t_max + 1):
                for te in range(ts, g.t_max + 1):
                    inner = g.interval_edges(Interval(ts, te))
                    assert inner == forward_interval_edges(g, ts, te)
                    for ts2 in range(0, ts + 1):
                        for te2 in range(te, g.t_max + 1):
                            assert g.interval_edges(Interval(ts2, te2)) <= inner


class TestInducedDegree:
    def test_examples(self, fix1):
        g = fix1
        a, b, c, d = (g.index_of(x) for x in "abcd")
        assert g.induced_degree(Interval(0, 0), {a, b, c, d}, c) == 3
        assert g.induced_degree(Interval(0, 1), {a, b, c}, a) == 2
        assert g.induced_degree(Interval(0, 2), {a, b}, a) == 1

    def test_vertex_must_be_member(self, fix1):
        with pytest.raises(ValueError):
            fix1.induced_degree(Interval(0, 0), {0, 1}, 3)


class TestEdgeShrinkage:
    def test_fix1_start0(self, fix1):
        g = fix1
        groups = g.edge_shrinkage(0)
        assert [(end, frozenset(edges)) for end, edges in groups] == [
            (0, edges_by_labels(g, [("c", "d")])),
            (1, edges_by_labels(g, [("a", "c"), ("b", "c")])),
            (2, edges_by_labels(g, [("a", "b")])),
        ]

    def test_vanishing_sets_disjoint(self, corpus):
        for g in corpus[:40]:
            for ts in range(g.t_max + 1):
                groups = [frozenset(edges) for _, edges in g.edge_shrinkage(ts)]
                for i, group in enumerate(groups):
                    for other in groups[i + 1:]:
                        assert not (group & other)

    def test_storage_bounded_by_first_snapshot(self, corpus):
        # the groups partition the snapshot: no edge is listed twice or left out
        for g in corpus[:40] + long_lived_graphs():
            for ts in range(g.t_max + 1):
                groups = g.edge_shrinkage(ts)
                assert sum(len(edges) for _, edges in groups) == len(g.snapshots[ts])
                assert frozenset().union(*(edges for _, edges in groups)) == \
                    g.snapshots[ts] == forward_interval_edges(g, ts, ts)

    def test_only_nonempty_groups_by_ascending_end(self, corpus):
        for g in corpus[:40] + long_lived_graphs() + wide_domain_graphs():
            for ts in range(g.t_max + 1):
                groups = g.edge_shrinkage(ts)
                ends = [end for end, _ in groups]
                assert all(edges for _, edges in groups)
                assert ends == sorted(set(ends))
                assert all(ts <= end <= g.t_max for end in ends)

    def test_reconstruction_bit_exact(self, corpus):
        for g in corpus[:40] + long_lived_graphs() + wide_domain_graphs():
            for ts in range(g.t_max + 1):
                groups = g.edge_shrinkage(ts)
                if not groups:
                    assert g.snapshots[ts] == frozenset()
                    continue
                last = groups[-1][0]
                for te in range(ts, last + 1):
                    rebuilt = frozenset(e for end, edges in groups if end >= te for e in edges)
                    assert rebuilt == g.interval_edges(Interval(ts, te)) == \
                        forward_interval_edges(g, ts, te)
                if last < g.t_max:
                    assert g.interval_edges(Interval(ts, last + 1)) == frozenset() == \
                        forward_interval_edges(g, ts, last + 1)

    def test_results_do_not_share_what_a_caller_can_change(self, fix1):
        for g in [fix1] + [g for g in long_lived_graphs()[:6] if g.snapshots[0]]:
            first = g.edge_shrinkage(0)
            expected = [(end, list(edges)) for end, edges in first]
            assert first is not g.edge_shrinkage(0)
            for end, edges in first:
                with pytest.raises(TypeError):
                    edges[0] = (0, 1)
                with pytest.raises(AttributeError):
                    edges.append((0, 1))
            first.pop()
            first.append((g.t_max, ((0, 1),)))
            assert [(end, list(edges)) for end, edges in g.edge_shrinkage(0)] == expected

    def test_first_call_memory_is_a_few_bytes_per_temporal_edge(self):
        """The first call builds every start's groups: a group its next
        start holds whole is shared, not copied into a per-start map."""
        rng = random.Random(5)
        clique = [(a, b) for a in range(12) for b in range(a + 1, 12)]
        snapshots = [clique + [tuple(sorted(rng.sample(range(12, 212), 2))) for _ in range(40)]
                     for _ in range(400)]
        g = TemporalGraph(snapshots, [f"v{i}" for i in range(212)])
        assert g.temporal_edge_count() >= 20_000
        # tuples reused from the free lists go untraced; empty them first
        gc.collect()
        tracemalloc.start()
        try:
            g.edge_shrinkage(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * g.temporal_edge_count(), peak

    def test_empty_snapshot_gives_empty_family(self):
        g = TemporalGraph([[], [(0, 1)]], ["a", "b"])
        assert g.edge_shrinkage(0) == []

    @pytest.mark.parametrize("start", [-1, 3])
    def test_start_outside_domain_rejected(self, fix1, start):
        with pytest.raises(ValueError, match="outside time domain"):
            fix1.edge_shrinkage(start)

    def test_only_the_naive_oracle_intersects_snapshots(self, corpus):
        # interval edge sets come from the run-end index; a forward walk of
        # snapshot intersections is left in naive_span_cores alone
        calls = Counter()

        class CountingSnapshot(frozenset):
            def __and__(self, other):
                calls["&"] += 1
                return frozenset(self) & other

            def __sub__(self, other):
                calls["-"] += 1
                return frozenset(self) - other

            __rand__ = __and__

            def __rsub__(self, other):
                calls["-"] += 1
                return other - frozenset(self)

        for g in corpus[:10] + wide_domain_graphs()[:1]:
            g = TemporalGraph(g.snapshots, g.labels)
            g.snapshots = tuple(map(CountingSnapshot, g.snapshots))
            span_cores(g)
            maximal_span_cores(g)
            tcs_efficient(g, {0}, min(3, g.t_max + 1))
            for ts in range(g.t_max + 1):
                for te in range(ts, g.t_max + 1):
                    g.interval_edges(Interval(ts, te))
            assert not calls
        naive_span_cores(g)
        assert calls


class TestConstruction:
    @pytest.mark.parametrize("snapshots", [[[(1, 1)]], [[(0, 1)], [(0, 1), (1, 1), (1, 1)]]])
    def test_self_loop_rejected(self, snapshots):
        with pytest.raises(ValueError, match="self-loop"):
            TemporalGraph(snapshots, ["a", "b"])

    @pytest.mark.parametrize("edge", [(0, 2), (2, 0), (-1, 1), (1, -1), (5, 7)])
    def test_endpoint_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError, match="out of vertex range"):
            TemporalGraph([[(0, 1)], [(0, 1), edge]], ["a", "b"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            TemporalGraph([[(0, 1)]], ["a", "b", "a"])

    def test_no_timestamp_rejected(self):
        with pytest.raises(ValueError, match="at least one timestamp"):
            TemporalGraph([], ["a", "b"])

    def test_snapshots_may_be_generators(self):
        g = TemporalGraph([((u + 1, u) for u in range(3)), iter(())], list("abcd"))
        assert g.snapshots == (frozenset({(0, 1), (1, 2), (2, 3)}), frozenset())

    def test_repeated_and_reversed_edges_collapse_ascending(self):
        g = TemporalGraph([[(2, 1), (3, 1), (0, 1), (1, 2), (1, 0), (3, 2)]], list("abcd"))
        assert g.snapshots[0] == frozenset({(1, 2), (0, 1), (1, 3), (2, 3)})

    def test_canonical_frozenset_snapshot_kept_as_is(self):
        canonical, reversed_ = frozenset({(0, 1), (1, 2)}), frozenset({(1, 0)})
        g = TemporalGraph([canonical, reversed_], list("abc"))
        assert g.snapshots[0] is canonical
        assert g.snapshots[1] == frozenset({(0, 1)})

    def test_unknown_label_raises_its_own_key_error(self):
        g = TemporalGraph([[(0, 1)]], ["a", "b"])
        assert g.index_of("b") == 1
        with pytest.raises(UnknownLabelError, match="2 labels") as caught:
            g.index_of("c")
        assert isinstance(caught.value, KeyError)


class TestRewiring:
    def test_single_edge_unchanged(self):
        g = TemporalGraph([[(0, 1)]], ["a", "b"])
        assert rewire_null_model(g, seed=3).snapshots == g.snapshots

    def test_two_disjoint_edges(self):
        g = TemporalGraph([[(0, 1), (2, 3)]], ["a", "b", "c", "d"])
        for seed in range(10):
            rewired = rewire_null_model(g, seed=seed)
            snapshot = rewired.snapshots[0]
            assert snapshot in (
                frozenset({(0, 1), (2, 3)}),
                frozenset({(0, 3), (1, 2)}),
                frozenset({(0, 2), (1, 3)}),
            )

    def test_degrees_and_counts_preserved(self):
        rng = random.Random(11)
        for seed in range(15):
            g = random_temporal_graph(rng, 10, 4, 0.4)
            rewired = rewire_null_model(g, seed=seed)
            for t in range(g.t_max + 1):
                assert len(rewired.snapshots[t]) == len(g.snapshots[t])
                before = Counter()
                after = Counter()
                for u, v in g.snapshots[t]:
                    before[u] += 1
                    before[v] += 1
                for u, v in rewired.snapshots[t]:
                    after[u] += 1
                    after[v] += 1
                assert before == after
