"""Batch command-line front end.

Every subcommand loads a temporal graph from an edge list, runs one pipeline,
and writes line-oriented results plus a provenance sidecar; the README gives
the sidecar's layout and the exit codes.  Results are deterministic for a
fixed configuration and seed; all nondeterministic bookkeeping lives in the
sidecar.  A run leaves either all of its output files or none: each is
written to a temporary file beside it, and none is moved into place until the
sidecar has been written too and no destination is found to be a directory.

``main`` keeps the cyclic garbage collector paused for its whole run and
restores the caller's setting when it returns.  A run loads its graph first
and keeps it to the end, and it leaves no cyclic garbage, so every collection
would only walk the graph again.  ``gc.freeze`` is not used: ``main`` also runs
inside other processes (tests, the benchmark's tracer), where a freeze would
keep the caller's cyclic garbage forever and a matching ``gc.unfreeze`` would
undo the caller's own freeze.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import _IMPORT_STARTED, analytics
from .community_search import tcs_efficient
from .graph import (EdgeListFormatError, ParameterError, TemporalGraph, UnknownLabelError,
                    _collector_paused, load_edge_list, rewire_null_model, write_edge_list)
from .maximal_cores import maximal_span_cores
from .min_community import greedy_minimum_community
from .span_cores import DecompositionStats, span_cores, write_span_cores

OUTPUT_DIR_ENV = "SPANCORES_OUTPUT_DIR"
SCHEMA_VERSION = 3


class InputError(OSError):
    """An ``OSError`` on the input side of a run."""


class OutputError(OSError):
    """An ``OSError`` on the output side of a run."""


@contextmanager
def _side(error: type[OSError]):
    """Re-raise an ``OSError`` of the block as ``error``."""
    try:
        yield
    except OSError as exc:
        raise error(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _seed_value(text: str) -> int:
    if text == "random":  # the sidecar's parameters record the drawn seed
        return random.SystemRandom().randrange(2**32)
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'random', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spancores",
                     description="Span-core decomposition and temporal community search")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="edge-list file (raw 'time u v' records; .gz accepted)")
    common.add_argument("--window", type=int, help="window width for discretizing raw times")
    common.add_argument("--pre-windowed", action="store_true",
                        help="input timestamps are already discrete indices")
    common.add_argument("--time-origin", type=int, default=None,
                        help="raw time of the first window (default: minimum raw time)")
    common.add_argument("-o", "--output", default="-", help="output path ('-' for stdout); "
                        f"relative paths honor ${OUTPUT_DIR_ENV}")

    sub.add_parser("decompose", parents=[common], help="enumerate all span-cores")
    sub.add_parser("maximal", parents=[common], help="extract only the maximal span-cores")

    p = sub.add_parser("tcs", parents=[common], help="temporal community search")
    p.add_argument("--q", required=True,
                   help="comma-separated query vertex labels")
    p.add_argument("--h", dest="segments", type=int, required=True,
                   help="number of output communities")
    p.add_argument("--minimize", action="store_true",
                   help="shrink each community greedily, reporting both sizes")

    p = sub.add_parser("anomalies", parents=[common],
                       help="flag and filter anomalously persistent contacts")
    p.add_argument("--tr", type=int, required=True, help="span-length threshold")
    p.add_argument("--ratio", type=float, required=True,
                   help="original/filtered edge-count ratio flagging a timestamp")

    p = sub.add_parser("embed", parents=[common], help="per-vertex community-search embeddings")
    p.add_argument("--h", dest="segments", type=int, required=True,
                   help="embedding width (number of segments)")

    p = sub.add_parser("stats", parents=[common], help="activity, purity, and span-length tables")
    p.add_argument("--report", choices=["activity", "purity", "span-length"],
                   required=True)
    p.add_argument("--attrs", help="two-column 'vertex_label value' file (purity)")
    p.add_argument("--min-span", type=int, default=analytics.DEFAULT_MIN_SPAN,
                   help="discard cores with spans shorter than this (activity and "
                   "purity; span-length ignores it)")

    p = sub.add_parser("reshuffle", parents=[common],
                       help="degree-preserving per-timestamp null model")
    p.add_argument("--seed", type=_seed_value, default="0")

    p = sub.add_parser("sample-queries", parents=[common], help="sample interacting query vertices")
    p.add_argument("--q-size", type=int, required=True)
    p.add_argument("--p", type=float, default=0.8,
                   help="walk continuation probability, within (0, 1)")
    p.add_argument("--pool", type=int, default=None,
                   help="visited-pool size, at most the vertex count (default 3 * q_size, capped)")
    p.add_argument("--seed", type=_seed_value, default="0")

    return parser


def _resolve_output(raw: str) -> Path | None:
    if raw == "-":
        return None
    path = Path(raw)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _load(args, timings: dict) -> TemporalGraph:
    if args.pre_windowed:
        if args.window is not None or args.time_origin is not None:
            raise ParameterError("--pre-windowed takes neither --window nor --time-origin")
        return load_edge_list(args.input, window=1, pre_windowed=True, timings=timings)
    if args.window is None:
        raise ParameterError("--window is required unless --pre-windowed is given")
    return load_edge_list(args.input, window=args.window,
                          time_origin=args.time_origin, timings=timings)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class _StagedFile(io.TextIOWrapper):
    """A text file written at a temporary path.  Its ``name`` is the path it
    is moved onto when the run commits, so a reader of a sink's name finds
    the output there once the run is over."""

    def __init__(self, temporary: Path, destination: Path):
        super().__init__(open(temporary, "wb"), encoding="utf-8")
        self.destination = destination

    @property
    def name(self) -> str:
        return str(self.destination)


class _Run:
    """Collects results, provenance, and timings for one invocation.

    Every output file is written to a temporary file beside it and moved into
    place by ``commit`` only once the run has written them all, sidecar
    included, and no destination is a directory; ``discard`` deletes what a
    failed run left.  An ``OSError`` in ``writing``, ``commit`` or the sidecar
    write, which are the only callers of ``staged``, is raised as an
    ``OutputError``.  ``stats`` is the run's one work-counter record; ``count``
    copies the fields a handler reports into ``counters``.
    """

    def __init__(self, args, started: float):
        self.args = args
        self.started = started
        self.output = _resolve_output(args.output)
        self.timings: dict[str, float] = {}
        self.load_timings: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.stats = DecompositionStats()
        self._staged: list[tuple[Path, Path]] = []  # (temporary, destination)

    def staged(self, path: Path) -> _StagedFile:
        """An open text file that ``commit`` moves onto ``path``."""
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        self._staged.append((temporary, path))
        return _StagedFile(temporary, path)

    def count(self, *names: str) -> None:
        for name in names:
            self.counters[name] = getattr(self.stats, name)

    def commit(self) -> None:
        with _side(OutputError):
            for _, path in self._staged:
                if path.is_dir():
                    raise IsADirectoryError(f"{path} is a directory")
            for temporary, path in self._staged:
                os.replace(temporary, path)

    def discard(self) -> None:
        """Delete the temporaries that ``commit`` has not moved."""
        for temporary, _ in self._staged:
            temporary.unlink(missing_ok=True)

    @contextmanager
    def writing(self):
        """The result sink (stdout for ``-o -``); everything written inside
        the block, extra files included, is timed as the ``write`` phase."""
        tick = time.perf_counter()
        with _side(OutputError):
            if self.output is None:
                sink = sys.stdout
            else:
                self.output.parent.mkdir(parents=True, exist_ok=True)
                sink = self.staged(self.output)
            try:
                yield sink
            finally:
                if sink is not sys.stdout:
                    sink.close()
                self.timings["write"] = time.perf_counter() - tick

    def table(self, header: str, rows) -> None:
        """Write ``header``, then each row, one line each."""
        with self.writing() as sink:
            sink.write(header + "\n")
            sink.writelines(row + "\n" for row in rows)

    def write_provenance(self):
        args = self.args
        parameters = {k: v for k, v in vars(args).items()
                      if k not in {"command", "input", "output"} and v is not None}
        with _side(InputError):
            digest = _timed(self, "digest", lambda: _digest(args.input))
        meta = {
            "schema_version": SCHEMA_VERSION,
            "import_seconds": round(_IMPORT_SECONDS, 6),
            "command": args.command,
            "input": {"path": args.input, "sha256": digest},
            "parameters": parameters,
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
            "load_seconds": {k: round(v, 6) for k, v in self.load_timings.items()},
            "counters": self.counters,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "total_seconds": round(time.perf_counter() - self.started, 6),
        }
        if self.output is None:
            print(json.dumps({"provenance": meta}, sort_keys=True), file=sys.stderr)
        else:
            path = self.output.with_name(self.output.name + ".meta.json")
            with _side(OutputError), self.staged(path) as fh:
                fh.write(json.dumps({"provenance": meta}, indent=2, sort_keys=True) + "\n")


def _timed(run: _Run, phase: str, fn):
    tick = time.perf_counter()
    result = fn()
    run.timings[phase] = time.perf_counter() - tick
    return result


def _cmd_decompose(run: _Run, g: TemporalGraph):
    cores = _timed(run, "solve", lambda: span_cores(g, run.stats))
    run.count("peel_vertices", "intervals_processed")
    with run.writing() as sink:
        run.counters["records"] = write_span_cores(cores, sink, g)


def _cmd_maximal(run: _Run, g: TemporalGraph):
    cores = _timed(run, "solve", lambda: maximal_span_cores(g, run.stats))
    run.count("peel_vertices")
    with run.writing() as sink:
        run.counters["records"] = write_span_cores(cores, sink, g, maximal=True)


def _cmd_tcs(run: _Run, g: TemporalGraph):
    args = run.args
    query = frozenset(g.index_of(label) for label in args.q.split(",") if label)
    if not query:
        raise ParameterError("--q must name at least one vertex")
    solution = _timed(run, "solve", lambda: tcs_efficient(g, query, args.segments, run.stats))
    run.count("peel_vertices", "candidate_ends", "dp_runs")
    shrunk = {}
    if args.minimize:
        shrunk = _timed(run, "minimize", lambda: {
            i: greedy_minimum_community(g, query, seg.span, seg.members, seg.min_degree)
            for i, seg in enumerate(solution.segments) if seg.min_degree > 0})

    records = []
    for i, segment in enumerate(solution.segments):
        members = shrunk.get(i, segment.members)
        records.append({
            "ts": segment.span.start,
            "te": segment.span.end,
            "min_degree": segment.min_degree,
            "size": len(members),
            "full_size": len(segment.members),
            "vertices": sorted(g.label_of(u) for u in members),
        })
    with run.writing() as sink:
        json.dump({"objective": solution.objective, "segments": records},
                  sink, indent=2, sort_keys=True)
        sink.write("\n")
    run.counters["objective"] = solution.objective


def _cmd_anomalies(run: _Run, g: TemporalGraph):
    if run.output is None:
        raise ParameterError("anomalies requires -o/--output (it writes a table and a graph)")
    report = _timed(run, "solve",
                    lambda: analytics.detect_anomalies(g, run.args.tr, run.args.ratio, run.stats))
    run.count("peel_vertices")
    with run.writing() as sink:
        sink.write("t\toriginal_edges\tvertex_filtered_edges\tfinal_edges\tflagged\n")
        flagged = set(report.flagged_timestamps)
        for t, (orig, mid, fin) in enumerate(report.edge_counts):
            sink.write(f"{t}\t{orig}\t{mid}\t{fin}\t{int(t in flagged)}\n")
        graph_path = run.output.with_name(run.output.name + ".filtered.edges")
        with run.staged(graph_path) as fh:
            write_edge_list(report.filtered, fh)
    run.counters["flagged_timestamps"] = len(report.flagged_timestamps)
    run.counters["flagged_vertex_steps"] = len(report.flagged_vertex_steps)


def _cmd_embed(run: _Run, g: TemporalGraph):
    rows = _timed(run, "solve", lambda: analytics.tcs_embeddings(g, run.args.segments, run.stats))
    run.count("peel_vertices", "candidate_ends", "dp_runs")
    run.table("\t".join(["vertex"] + [f"x{j}" for j in range(run.args.segments)]),
              ("\t".join([g.label_of(u)] + [str(x) for x in row]) for u, row in enumerate(rows)))


def _cmd_stats(run: _Run, g: TemporalGraph):
    args = run.args
    if args.report == "activity":
        header = "start\tspan_length\tmax_order"
        cells = _timed(run, "solve",
                       lambda: analytics.activity_summary(g, args.min_span, run.stats))
        rows = (f"{cell.start}\t{cell.span_length}\t{cell.max_order}" for cell in cells)
        # only the enumeration's count: the maximal scan counts its intervals otherwise
        run.count("intervals_processed")
    elif args.report == "span-length":
        header = "span_length\tcount\tpercent"
        bins = _timed(run, "solve", lambda: analytics.span_length_distribution(
            maximal_span_cores(g, run.stats)))
        rows = (f"{row.length}\t{row.count}\t{row.percent:.4f}" for row in bins)
    else:
        if not args.attrs:
            raise ParameterError("stats --report purity requires --attrs")
        with _side(InputError):
            attributes = _timed(run, "attrs",
                                lambda: analytics.read_attribute_table(args.attrs, g))
        header = "t\tmean_purity"
        timeline = _timed(run, "solve", lambda: analytics.purity_timeline(
            [c for c in maximal_span_cores(g, run.stats) if c.span.length >= args.min_span],
            attributes, g.t_max))
        rows = (f"{t}\t{'nan' if value is None else f'{value:.6f}'}"
                for t, value in enumerate(timeline))
    run.count("peel_vertices")
    run.table(header, rows)


def _cmd_reshuffle(run: _Run, g: TemporalGraph):
    rewired = _timed(run, "solve", lambda: rewire_null_model(g, seed=run.args.seed))
    with run.writing() as sink:
        run.counters["edges"] = write_edge_list(rewired, sink)


def _cmd_sample_queries(run: _Run, g: TemporalGraph):
    args = run.args
    chosen = _timed(run, "solve", lambda: analytics.sample_query_vertices(
        g, args.q_size, p=args.p, pool_size=args.pool, seed=args.seed))
    run.table("vertex", sorted(g.label_of(u) for u in chosen))


_HANDLERS = {
    "decompose": _cmd_decompose,
    "maximal": _cmd_maximal,
    "tcs": _cmd_tcs,
    "anomalies": _cmd_anomalies,
    "embed": _cmd_embed,
    "stats": _cmd_stats,
    "reshuffle": _cmd_reshuffle,
    "sample-queries": _cmd_sample_queries,
}


# (exception types, exit code, message prefix); the first matching row wins,
# and the last row's types cover every earlier row's
_EXITS = (
    (ParameterError, 1, "usage error"),
    ((EdgeListFormatError, UnknownLabelError, InputError), 2, "input error"),
    (OutputError, 4, "output error"),
    ((OSError, ValueError, KeyError, RuntimeError, AssertionError), 3, "internal error"),
)


@_collector_paused()
def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    run = None
    try:
        args = parser.parse_args(argv)
        run = _Run(args, started)
        with _side(InputError):
            graph = _timed(run, "load", lambda: _load(args, run.load_timings))
        run.counters["temporal_edges"] = graph.temporal_edge_count()
        _HANDLERS[args.command](run, graph)
        run.write_provenance()
        run.commit()
        return 0
    except _EXITS[-1][0] as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _EXITS
                            if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    finally:
        if run is not None:
            run.discard()


_IMPORT_SECONDS = time.perf_counter() - _IMPORT_STARTED

if __name__ == "__main__":
    sys.exit(main())
