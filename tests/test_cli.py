import gc
import gzip
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import spancores
from spancores import (analytics, cli, filter_maximal, load_edge_list, naive_span_cores,
                       tcs_basic, write_span_cores)
from spancores.cli import main

from conftest import FIX1_TEXT


@pytest.fixture
def fix1_file(tmp_path):
    path = tmp_path / "fix1.tsv"
    path.write_text(FIX1_TEXT)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestDecompose:
    def test_nine_records(self, fix1_file, tmp_path):
        out = tmp_path / "cores.jsonl"
        assert run(["decompose", fix1_file, "--pre-windowed", "-o", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9
        meta = json.loads((tmp_path / "cores.jsonl.meta.json").read_text())
        assert meta["provenance"]["counters"]["records"] == 9
        assert set(meta["provenance"]["timings_seconds"]) == {"load", "solve", "write", "digest"}

    def test_determinism(self, fix1_file, tmp_path):
        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        run(["decompose", fix1_file, "--pre-windowed", "-o", one])
        run(["decompose", fix1_file, "--pre-windowed", "-o", two])
        assert one.read_bytes() == two.read_bytes()


class TestMaximal:
    def test_direct_and_filter_byte_identical(self, fix1_file, tmp_path):
        # the filtering baseline is a library oracle, written by the same writer
        direct = tmp_path / "direct.jsonl"
        assert run(["maximal", fix1_file, "--pre-windowed", "-o", direct]) == 0
        g = load_edge_list(fix1_file, window=1, pre_windowed=True)
        baseline = io.StringIO()
        write_span_cores(filter_maximal(naive_span_cores(g)), baseline, g, maximal=True)
        assert direct.read_text() == baseline.getvalue()
        assert len(direct.read_text().strip().splitlines()) == 2


class TestTcs:
    def test_basic_and_efficient_agree(self, fix1_file, tmp_path):
        # the basic route is a library oracle; the CLI runs the efficient one
        efficient = tmp_path / "efficient.json"
        assert run(["tcs", fix1_file, "--pre-windowed", "--q", "a", "--h", 2,
                    "-o", efficient]) == 0
        g = load_edge_list(fix1_file, window=1, pre_windowed=True)
        basic = tcs_basic(g, {g.index_of("a")}, 2)
        assert json.loads(efficient.read_text())["objective"] == basic.objective == 3

    def test_minimize_reports_both_sizes(self, fix1_file, tmp_path):
        out = tmp_path / "min.json"
        assert run(["tcs", fix1_file, "--pre-windowed", "--q", "d", "--h", 1,
                    "--minimize", "-o", out]) == 0
        doc = json.loads(out.read_text())
        (segment,) = doc["segments"]
        assert segment["size"] <= segment["full_size"]

    def test_unknown_label_is_input_error(self, fix1_file, tmp_path, capsys):
        code = run(["tcs", fix1_file, "--pre-windowed", "--q", "nope", "--h", 1])
        assert code == 2
        assert capsys.readouterr().err == \
            "input error: unknown vertex label 'nope' (graph has 4 labels)\n"

    def test_h_too_large_is_usage_error(self, fix1_file):
        assert run(["tcs", fix1_file, "--pre-windowed", "--q", "a", "--h", 9]) == 1


class TestOtherCommands:
    def test_anomalies_writes_table_and_graph(self, fix1_file, tmp_path):
        out = tmp_path / "anomalies.tsv"
        assert run(["anomalies", fix1_file, "--pre-windowed", "--tr", 5,
                    "--ratio", 1.5, "-o", out]) == 0
        assert out.read_text().startswith("t\toriginal_edges")
        filtered = out.with_name(out.name + ".filtered.edges")
        g = load_edge_list(filtered, window=1, pre_windowed=True)
        assert g.t_max == 2

    def test_anomalies_reports_its_peel_work(self, fix1_file, tmp_path):
        counters = {}
        for argv in (["anomalies", "--tr", 1, "--ratio", 1.5], ["maximal"]):
            out = tmp_path / f"{argv[0]}.out"
            assert run([argv[0], fix1_file, "--pre-windowed", *argv[1:], "-o", out]) == 0
            meta = json.loads(out.with_name(out.name + ".meta.json").read_text())
            counters[argv[0]] = meta["provenance"]["counters"]
        # anomalies runs one maximal scan, and no other peel
        assert counters["anomalies"]["peel_vertices"] > 0
        assert counters["anomalies"]["peel_vertices"] == counters["maximal"]["peel_vertices"]
        assert "intervals_processed" not in counters["anomalies"]

    def test_anomalies_requires_output(self, fix1_file):
        assert run(["anomalies", fix1_file, "--pre-windowed",
                    "--tr", 5, "--ratio", 1.5]) == 1

    def test_embed(self, fix1_file, tmp_path):
        out = tmp_path / "embed.tsv"
        assert run(["embed", fix1_file, "--pre-windowed", "--h", 2, "-o", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "vertex\tx0\tx1"
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
        assert rows["a"] == ["2", "1"]
        assert rows["d"] == ["1", "0"]

    def test_stats_activity(self, fix1_file, tmp_path):
        out = tmp_path / "activity.tsv"
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "activity",
                    "-o", out]) == 0
        assert out.read_text().splitlines()[0] == "start\tspan_length\tmax_order"

    def test_stats_activity_peak_is_about_the_summary(self, tmp_path):
        # one edge in every window, |T| = 400: each row is formatted as it is
        # written, so the run holds the cells and no list of rows beside them
        path = tmp_path / "one-edge.tsv"
        path.write_text("".join(f"{t} a b\n" for t in range(400)))
        g = load_edge_list(path, window=1, pre_windowed=True)
        peaks = []
        for call in (lambda: analytics.activity_summary(g),
                     lambda: run(["stats", path, "--pre-windowed", "--report", "activity",
                                  "-o", tmp_path / "activity.tsv"])):
            gc.collect()
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0], peaks

    def test_stats_purity_requires_attrs(self, fix1_file):
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "purity"]) == 1

    def test_stats_purity(self, fix1_file, tmp_path):
        attrs = fix1_file.parent / "attrs.txt"
        attrs.write_text("a F\nb F\nc M\nd M\n")
        out = fix1_file.parent / "purity.tsv"
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "purity",
                    "--attrs", attrs, "-o", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t\tmean_purity"
        assert len(lines) == 4

    def test_stats_purity_malformed_attrs_is_input_error(self, fix1_file, tmp_path, capsys):
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("a F\nb\n")
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "purity",
                    "--attrs", attrs, "-o", tmp_path / "purity.tsv"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_stats_span_length(self, fix1_file, tmp_path):
        out = tmp_path / "lengths.tsv"
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "span-length",
                    "-o", out]) == 0
        body = out.read_text().strip().splitlines()[1:]
        assert [line.split("\t")[:2] for line in body] == [["2", "1"], ["3", "1"]]

    def test_reshuffle_round_trips(self, fix1_file, tmp_path):
        out = tmp_path / "shuffled.tsv"
        assert run(["reshuffle", fix1_file, "--pre-windowed", "--seed", 3,
                    "-o", out]) == 0
        g = load_edge_list(out, window=1, pre_windowed=True)
        original = load_edge_list(fix1_file, window=1, pre_windowed=True)
        assert [len(s) for s in g.snapshots] == [len(s) for s in original.snapshots]

    def test_reshuffle_seed_determinism(self, fix1_file, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        run(["reshuffle", fix1_file, "--pre-windowed", "--seed", 5, "-o", a])
        run(["reshuffle", fix1_file, "--pre-windowed", "--seed", 5, "-o", b])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [["reshuffle"], ["sample-queries", "--q-size", 2]],
                             ids=lambda argv: argv[0])
    def test_random_seed_is_recorded_and_repeats_the_run(self, fix1_file, tmp_path, argv):
        drawn = sidecar(fix1_file, tmp_path, [*argv, "--seed", "random"])["parameters"]["seed"]
        assert isinstance(drawn, int)
        first = (tmp_path / "result.txt").read_bytes()
        again = sidecar(fix1_file, tmp_path, [*argv, "--seed", drawn])
        assert again["parameters"]["seed"] == drawn
        assert (tmp_path / "result.txt").read_bytes() == first

    def test_sample_queries(self, fix1_file, tmp_path):
        out = tmp_path / "queries.txt"
        assert run(["sample-queries", fix1_file, "--pre-windowed", "--q-size", 2,
                    "--seed", 1, "-o", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "vertex" and len(lines) == 3


SUBCOMMANDS = [
    ["decompose"],
    ["maximal"],
    ["tcs", "--q", "a", "--h", 2],
    ["anomalies", "--tr", 5, "--ratio", 1.5],
    ["embed", "--h", 2],
    ["stats", "--report", "activity"],
    ["reshuffle", "--seed", 3],
    ["sample-queries", "--q-size", 2],
]


def sidecar(fix1_file, tmp_path, argv):
    out = tmp_path / "result.txt"
    assert run([argv[0], fix1_file, "--pre-windowed", *argv[1:], "-o", out]) == 0
    return json.loads((tmp_path / "result.txt.meta.json").read_text())["provenance"]


class TestProvenance:
    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_sidecar_records_temporal_edges_and_peak_rss(self, fix1_file, tmp_path, argv):
        meta = sidecar(fix1_file, tmp_path, argv)
        g = load_edge_list(fix1_file, window=1, pre_windowed=True)
        assert meta["counters"]["temporal_edges"] == g.temporal_edge_count()
        assert meta["peak_rss_mb"] > 0

    def test_sidecar_records_dropped_self_loops(self, tmp_path):
        # every record is a self-loop: the run writes nothing, and its sidecar says why
        source = tmp_path / "loops.txt"
        source.write_text("0 a a\n1 b b\n")
        out = tmp_path / "result.jsonl"
        assert run(["decompose", source, "--pre-windowed", "-o", out]) == 0
        assert out.read_text() == ""
        counters = json.loads((tmp_path / "result.jsonl.meta.json").read_text())[
            "provenance"]["counters"]
        assert (counters["dropped_self_loops"], counters["temporal_edges"]) == (2, 0)

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_sidecar_times_write_and_digest(self, fix1_file, tmp_path, argv):
        timings = sidecar(fix1_file, tmp_path, argv)["timings_seconds"]
        assert {"load", "write", "digest"} <= set(timings)
        assert all(seconds >= 0 for seconds in timings.values())

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
    def test_sidecar_splits_the_load_and_totals_the_run(self, fix1_file, tmp_path, argv):
        meta = sidecar(fix1_file, tmp_path, argv)
        timings = meta["timings_seconds"]
        assert meta["schema_version"] == 3
        # the import precedes main, so it is a field of its own and no phase
        assert 0 < meta["import_seconds"] < 60
        assert "import" not in timings
        assert set(meta["load_seconds"]) == {"parse", "build"}
        # every value is rounded to the microsecond
        assert sum(meta["load_seconds"].values()) <= timings["load"] + 2e-6
        assert meta["total_seconds"] >= sum(timings.values())

    def test_purity_attrs_read_is_timed(self, fix1_file, tmp_path, monkeypatch):
        read = analytics.read_attribute_table

        def slow_read(*args, **kwargs):
            time.sleep(0.05)
            return read(*args, **kwargs)

        monkeypatch.setattr(analytics, "read_attribute_table", slow_read)
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("a F\nb F\nc M\nd M\n")
        timings = sidecar(fix1_file, tmp_path, ["stats", "--report", "purity",
                                                "--attrs", attrs])["timings_seconds"]
        assert timings["attrs"] >= 0.05

    def test_minimize_is_timed(self, fix1_file, tmp_path, monkeypatch):
        shrink = cli.greedy_minimum_community

        def slow_shrink(*args, **kwargs):
            time.sleep(0.05)
            return shrink(*args, **kwargs)

        monkeypatch.setattr(cli, "greedy_minimum_community", slow_shrink)
        timings = sidecar(fix1_file, tmp_path, ["tcs", "--q", "a", "--h", 2,
                                                "--minimize"])["timings_seconds"]
        assert timings["minimize"] >= 0.05

    @pytest.mark.parametrize("argv", [["tcs", "--q", "a", "--h", 2],
                                      ["embed", "--h", 2]], ids=["tcs", "embed"])
    def test_sidecar_counts_the_segmentation_work(self, fix1_file, tmp_path, argv):
        counters = sidecar(fix1_file, tmp_path, argv)["counters"]
        assert counters["candidate_ends"] > 0
        assert counters["dp_runs"] > 0

    @pytest.mark.parametrize("extra", [[], ["--minimize"]], ids=["tcs", "tcs-minimize"])
    def test_tcs_reports_its_peel_work(self, fix1_file, tmp_path, extra):
        # the scan's peels plus each segment's peel
        counters = sidecar(fix1_file, tmp_path, ["tcs", "--q", "a", "--h", 2, *extra])["counters"]
        assert counters["peel_vertices"] > 0
        assert "intervals_processed" not in counters

    @pytest.mark.parametrize("extra", [[], ["--minimize"]], ids=["tcs", "tcs-minimize"])
    def test_tcs_reports_the_common_phases(self, fix1_file, tmp_path, extra):
        argv = ["tcs", "--q", "a", "--h", 2, *extra]
        timings = sidecar(fix1_file, tmp_path, argv)["timings_seconds"]
        phases = {"load", "solve", "write", "digest"}
        assert set(timings) == (phases | {"minimize"} if "--minimize" in extra else phases)

    @pytest.mark.parametrize("report", ["activity", "purity", "span-length"])
    def test_stats_reports_its_peel_work(self, fix1_file, tmp_path, report):
        attrs = tmp_path / "attrs.txt"
        attrs.write_text("a F\nb F\nc M\nd M\n")
        counters = sidecar(fix1_file, tmp_path, ["stats", "--report", report,
                                                 "--attrs", attrs])["counters"]
        g = load_edge_list(fix1_file, window=1, pre_windowed=True)
        stats = spancores.DecompositionStats()
        if report == "activity":
            spancores.span_cores(g, stats)
            expected = {"intervals_processed": stats.intervals_processed,
                        "peel_vertices": stats.peel_vertices}
        else:
            spancores.maximal_span_cores(g, stats)
            expected = {"peel_vertices": stats.peel_vertices}
        assert stats.peel_vertices > 0
        assert counters == {"dropped_self_loops": 0, "temporal_edges": g.temporal_edge_count(),
                            **expected}

    def test_stats_analytics_are_timed_in_the_solve_phase(self, fix1_file, tmp_path, monkeypatch):
        summarize = analytics.activity_summary

        def slow_summary(*args, **kwargs):
            time.sleep(0.05)
            return summarize(*args, **kwargs)

        monkeypatch.setattr(analytics, "activity_summary", slow_summary)
        timings = sidecar(fix1_file, tmp_path, ["stats", "--report", "activity"])["timings_seconds"]
        assert timings["solve"] >= 0.05


class TestErrorHandling:
    @pytest.mark.parametrize("argv", [["decompose", "--naive"], ["maximal", "--filter"],
                                      ["tcs", "--q", "a", "--h", 2, "--basic"]],
                             ids=lambda argv: argv[0])
    def test_oracle_route_flags_are_gone(self, fix1_file, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run([argv[0], fix1_file, "--pre-windowed", *argv[1:], "-o", out]) == 1
        assert capsys.readouterr().err == \
            f"usage error: unrecognized arguments: {argv[-1]}\n"
        assert not out.exists()

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["decompose", tmp_path / "absent.tsv", "--window", 5]) == 2

    def test_malformed_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not an edge list\n")
        assert run(["decompose", bad, "--window", 5]) == 2

    def test_missing_window_is_usage_error(self, fix1_file):
        assert run(["decompose", fix1_file]) == 1

    def test_nonpositive_window_is_usage_error(self, fix1_file):
        assert run(["decompose", fix1_file, "--window", 0]) == 1

    def test_pre_windowed_rejects_window(self, fix1_file, tmp_path):
        out = tmp_path / "cores.jsonl"
        assert run(["decompose", fix1_file, "--pre-windowed", "--window", 5, "-o", out]) == 1
        assert not out.exists()

    def test_pre_windowed_rejects_time_origin(self, fix1_file, tmp_path):
        out = tmp_path / "cores.jsonl"
        assert run(["decompose", fix1_file, "--pre-windowed", "--time-origin", 0,
                    "-o", out]) == 1
        assert not out.exists()

    def test_time_domain_over_the_cap_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "epoch.tsv"
        path.write_text(f"0 a b\n{10**12} a b\n")
        out = tmp_path / "cores.jsonl"
        assert run(["decompose", path, "--pre-windowed", "-o", out]) == 2
        assert "exceeds the limit" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_key_error_is_internal_error(self, fix1_file, tmp_path, monkeypatch,
                                                  capsys):
        def broken(run, g):
            raise KeyError((0, 5))

        monkeypatch.setitem(cli._HANDLERS, "decompose", broken)
        assert run(["decompose", fix1_file, "--pre-windowed", "-o", tmp_path / "c.jsonl"]) == 3
        assert capsys.readouterr().err == "internal error: (0, 5)\n"

    def test_other_os_error_is_internal_error(self, fix1_file, tmp_path, monkeypatch, capsys):
        def broken(run, g):
            raise OSError("a failure on neither the input nor the output side")

        monkeypatch.setitem(cli._HANDLERS, "decompose", broken)
        assert run(["decompose", fix1_file, "--pre-windowed", "-o", tmp_path / "c.jsonl"]) == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("reader", ["attrs", "digest"])
    def test_input_side_os_error_is_input_error(self, fix1_file, tmp_path, monkeypatch, capsys,
                                                reader):
        attrs = tmp_path / "attrs.txt"
        if reader == "attrs":
            attrs = tmp_path / "absent.txt"
        else:
            attrs.write_text("a F\nb M\n")

            def broken(path):
                raise FileNotFoundError(f"{path} vanished before its digest")

            monkeypatch.setattr(cli, "_digest", broken)
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "purity",
                    "--attrs", attrs, "-o", outdir / "purity.tsv"]) == 2
        assert "input error" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("packing", ["plain", "gzip"])
    def test_undecodable_input_is_input_error(self, tmp_path, capsys, packing):
        data = FIX1_TEXT.encode() + b"3 a \xff\n"
        path = tmp_path / ("bad.tsv" if packing == "plain" else "bad.tsv.gz")
        path.write_bytes(data if packing == "plain" else gzip.compress(data))
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run(["decompose", path, "--pre-windowed", "-o", outdir / "cores.jsonl"]) == 2
        assert "input error" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_undecodable_attrs_is_input_error(self, fix1_file, tmp_path, capsys):
        attrs = tmp_path / "attrs.txt"
        attrs.write_bytes(b"a F\nb \xff\n")
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run(["stats", fix1_file, "--pre-windowed", "--report", "purity",
                    "--attrs", attrs, "-o", outdir / "purity.tsv"]) == 2
        assert "input error" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_collector_paused_then_restored(self, fix1_file, tmp_path, monkeypatch, collector):
        seen = []
        decompose = cli._HANDLERS["decompose"]

        def spy(run, g):
            seen.append(gc.isenabled())
            decompose(run, g)

        monkeypatch.setitem(cli._HANDLERS, "decompose", spy)
        bad = tmp_path / "bad.tsv"
        bad.write_text("not an edge list\n")
        for _ in range(2):
            assert run(["decompose", fix1_file, "--pre-windowed",
                        "-o", tmp_path / "cores.jsonl"]) == 0
            assert gc.isenabled() is collector
            assert run(["decompose", bad, "--window", 5]) == 2
            assert gc.isenabled() is collector
        assert seen == [False, False]

    @pytest.mark.parametrize("argv, writer", [
        (["decompose"], "write_span_cores"),
        (["anomalies", "--tr", 5, "--ratio", 1.5], "write_edge_list"),
        (["anomalies", "--tr", 5, "--ratio", 1.5], "_digest"),
    ], ids=["result", "extra-file", "sidecar"])
    def test_failed_write_leaves_no_file(self, fix1_file, tmp_path, monkeypatch, argv, writer):
        def broken(*args):
            if len(args) > 1:  # a result writer: write part of the file first
                args[1].write("partial\n")
            raise RuntimeError("writer failed part-way")

        monkeypatch.setattr(cli, writer, broken)
        outdir = tmp_path / "out"
        assert run([argv[0], fix1_file, "--pre-windowed", *argv[1:],
                    "-o", outdir / "result.txt"]) == 3
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["embed", "--h", 9],
        ["embed", "--h", 0],
        ["anomalies", "--tr", 0, "--ratio", 1.5],
        ["anomalies", "--tr", 5, "--ratio", 1],
        ["anomalies", "--tr", 5, "--ratio", "nan"],
        ["sample-queries", "--q-size", 0],
        ["sample-queries", "--q-size", 5],
        ["sample-queries", "--q-size", 2, "--pool", 1],
        ["sample-queries", "--q-size", 2, "--pool", 5],
        ["sample-queries", "--q-size", 2, "--p", 0],
        ["sample-queries", "--q-size", 2, "--p", "nan"],
        ["sample-queries", "--q-size", 2, "--p", 1],
    ], ids=["h", "h-zero", "tr", "ratio", "ratio-nan", "q-size", "q-size-over-n", "pool",
            "pool-over-n", "p-zero", "p-nan", "p-one"])
    def test_parameter_out_of_range_is_usage_error(self, fix1_file, tmp_path, argv, capsys):
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run([argv[0], fix1_file, "--pre-windowed", *argv[1:],
                    "-o", outdir / "result.txt"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_other_value_error_is_internal_error(self, fix1_file, tmp_path, monkeypatch,
                                                 capsys):
        def broken(g, stats=None):
            raise ValueError("span-core (1, 0, 0) is not nested with the stored cores")

        monkeypatch.setattr(cli, "span_cores", broken)
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert run(["decompose", fix1_file, "--pre-windowed",
                    "-o", outdir / "result.txt"]) == 3
        assert "internal error" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("blocker", ["parent-is-a-file", "output-is-a-directory",
                                         "sidecar-is-a-directory", "extra-file-is-a-directory"])
    def test_output_failure_is_output_error(self, fix1_file, tmp_path, capsys, blocker):
        afile = tmp_path / "out" / "afile"
        output = afile / "out.jsonl"
        argv = ["decompose"]
        if blocker == "extra-file-is-a-directory":
            argv = ["anomalies", "--tr", 5, "--ratio", 1.5]
        if blocker == "parent-is-a-file":
            afile.parent.mkdir()
            afile.write_text("")
        else:  # the run fails only when it moves its files into place
            suffix = {"output-is-a-directory": "", "sidecar-is-a-directory": ".meta.json",
                      "extra-file-is-a-directory": ".filtered.edges"}[blocker]
            output.with_name(output.name + suffix).mkdir(parents=True)
        before = sorted(afile.parent.rglob("*"))
        assert run([argv[0], fix1_file, "--pre-windowed", *argv[1:], "-o", output]) == 4
        assert "output error" in capsys.readouterr().err
        assert sorted(afile.parent.rglob("*")) == before

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate", "x"]) == 1

    def test_output_dir_env_override(self, fix1_file, tmp_path, monkeypatch):
        outdir = tmp_path / "results"
        monkeypatch.setenv("SPANCORES_OUTPUT_DIR", str(outdir))
        assert run(["decompose", fix1_file, "--pre-windowed", "-o", "cores.jsonl"]) == 0
        assert (outdir / "cores.jsonl").exists()


def test_import_loads_no_introspection_or_logging_module():
    """A fresh ``import spancores.cli`` loads none of these stdlib modules
    beyond what a bare interpreter loads on the same host (its site hooks
    may load some); each would add to every CLI process's start-up."""
    heavy = ["dataclasses", "inspect", "ast", "logging", "traceback"]
    src = str(Path(spancores.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def loaded(statement):
        probe = f"import sys; {statement}; print(*[m for m in {heavy!r} if m in sys.modules])"
        child = subprocess.run([sys.executable, "-c", probe], env=env, check=True, timeout=60,
                               capture_output=True, text=True)
        return set(child.stdout.split())

    assert loaded("import spancores.cli") <= loaded("pass")
