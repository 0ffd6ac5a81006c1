"""Temporal graph storage, ingestion, and the per-start edge shrinkage.

A temporal graph is a fixed vertex set observed over a contiguous range of
discrete timestamps ``0..t_max``; each timestamp holds an undirected simple
snapshot.  Interval semantics are conjunctive: an edge exists over an interval
only if it exists in every timestamp of the interval.

Instances are immutable after construction, except that the per-timestamp
neighbour index is built on the first ``neighbors`` call.  Instances are safe
to share across threads: two threads racing on that first call only build the
same index twice, and either copy serves every later call.

Contact data meets the same pairs again and again, so a loaded graph shares
one tuple per distinct vertex pair across its snapshots: far fewer objects,
and snapshot intersections match shared pairs by identity before comparing
them.  A load is one pass: each record goes straight into its window's set
of distinct pairs, so it holds one chunk plus the distinct contacts, and it
stops collecting once the records span too many windows to load.  It builds
no reference cycle, so a collection during it could free nothing; the cyclic
collector is paused instead of walking the growing heap hundreds of times.
"""

from __future__ import annotations

import gc
import io
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import total_ordering
from itertools import chain, count, islice, repeat, starmap
from operator import eq, floordiv, le, lt, sub
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

Edge = tuple[int, int]

MAX_TIMESTAMPS = 1_000_000
"""Largest time domain ``load_edge_list`` accepts, in windows.

Every window costs memory even when it holds no edge, and every algorithm
walks the whole domain, so one stray timestamp (an epoch second under
``--pre-windowed``, say) could otherwise demand gigabytes before any check
runs.  A million windows is more than a year of one-minute windows.
"""


class EdgeListFormatError(ValueError):
    """Raised for malformed line-oriented input (an edge list or an attribute
    table); carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ParameterError(ValueError):
    """Raised for an invalid parameter or option; the CLI exits 1 on it."""


class UnknownLabelError(KeyError):
    """Raised by ``TemporalGraph.index_of`` for a label the graph does not have."""


class _Record:
    """An immutable record whose fields read one tuple, ``_values``: records
    of a class compare, hash and print by it, as frozen dataclasses do."""

    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values))
        return f"{type(self).__name__}({fields})"


@total_ordering
class Interval(_Record):
    """Closed interval of timestamps ``[start, end]`` with ``start <= end``,
    ordered by start, then end."""

    __slots__ = ()
    _fields = ("start", "end")
    start = property(lambda self: self._values[0])
    end = property(lambda self: self._values[1])

    def __init__(self, start: int, end: int):
        if start < 0 or end < start:
            raise ValueError(f"invalid interval [{start}, {end}]")
        self._values = (start, end)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values < other._values

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def within(self, other: "Interval") -> bool:
        """True if ``other`` contains this interval."""
        return other.start <= self.start and other.end >= self.end

    def covers(self, t: int) -> bool:
        return self.start <= t <= self.end

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


def _adjacency(edges: Iterable[Edge]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _reject(snapshots: Sequence[Sequence[Edge]], n: int) -> None:
    """Raise for the first self-loop or out-of-range pair among canonical ones."""
    for t, pairs in enumerate(snapshots):
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) at timestamp {t}")
            if u < 0 or v >= n:
                raise ValueError(f"edge ({u},{v}) out of vertex range at timestamp {t}")


class TemporalGraph:
    """Immutable undirected temporal graph over dense integer vertex ids.

    ``snapshots[t]`` is a frozenset of canonically ordered vertex pairs; every
    timestamp in ``0..t_max`` has an entry, possibly empty.  External vertex
    labels map bijectively onto ``0..n-1``.  The per-timestamp neighbour
    index behind ``neighbors`` is built on its first call; each neighbour
    list ascends by id.  A snapshot given as a frozenset of canonical pairs
    is kept as the same object.
    """

    __slots__ = ("n", "t_max", "snapshots", "labels", "dropped_self_loops",
                 "_index", "_adjacency")

    def __init__(self, snapshots: Sequence[Iterable[Edge]], labels: Sequence[str],
                 dropped_self_loops: int = 0):
        if not snapshots:
            raise ValueError("a temporal graph needs at least one timestamp")
        self.n = n = len(labels)
        self.labels = tuple(str(x) for x in labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != n:
            raise ValueError("vertex labels must be unique")
        self.dropped_self_loops = dropped_self_loops

        # one pass checks every pair; if one fails, only the snapshots with
        # pairs not yet canonical are rebuilt, and _reject raises for a bad pair
        empty: frozenset[Edge] = frozenset()
        frozen = [frozenset(snapshot) or empty for snapshot in snapshots]
        if not all(0 <= u < v < n for u, v in chain.from_iterable(frozen)):
            frozen = [pairs if all(starmap(lt, pairs))
                      else frozenset([(u, v) if u < v else (v, u) for u, v in pairs])
                      for pairs in frozen]
            _reject(frozen, n)
        self.snapshots: tuple[frozenset[Edge], ...] = tuple(frozen)
        self._adjacency: tuple[dict[int, list[int]], ...] | None = None
        self.t_max = len(self.snapshots) - 1

    # -- label access ----------------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(
                f"unknown vertex label {label!r} (graph has {self.n} labels)") from None

    def label_of(self, vertex: int) -> str:
        return self.labels[vertex]

    def temporal_edge_count(self) -> int:
        return sum(len(s) for s in self.snapshots)

    # -- interval views ----------------------------------------------------------

    def _check_interval(self, interval: Interval) -> None:
        if interval.end > self.t_max:
            raise ValueError(f"interval {interval} outside time domain [0,{self.t_max}]")

    def interval_edges(self, interval: Interval) -> frozenset[Edge]:
        """Edges existing in every timestamp of ``interval`` (computed on demand)."""
        self._check_interval(interval)
        edges = self.snapshots[interval.start]
        for t in range(interval.start + 1, interval.end + 1):
            if not edges:
                break
            edges = edges & self.snapshots[t]
        return edges

    def neighbors(self, t: int, u: int) -> Sequence[int]:
        """Neighbours of ``u`` at timestamp ``t``, ascending by id."""
        if self._adjacency is None:
            self._adjacency = tuple(_adjacency(sorted(edges)) for edges in self.snapshots)
        return self._adjacency[t].get(u, ())

    def induced_degree(self, interval: Interval, members: frozenset[int] | set[int], u: int) -> int:
        """Number of neighbors of ``u`` inside ``members`` under the interval edge set."""
        if u not in members:
            raise ValueError(f"vertex {u} is not a member of the induced set")
        if interval.length == 1:
            return sum(1 for v in self.neighbors(interval.start, u) if v in members)
        edges = self.interval_edges(interval)
        return sum(1 for a, b in edges if (a == u and b in members) or (b == u and a in members))

    # -- per-start edge shrinkage, replayed backward by the maximal-core scan ----

    def edge_shrinkage(self, start: int) -> tuple[frozenset[Edge], ...]:
        """The edges of the snapshot at ``start``, grouped by how long each
        persists, one group per end.

        Walking the window end forward from ``start``, the interval edge set
        only shrinks.  Group ``i`` holds the edges present through
        ``start + i`` and gone at ``start + i + 1``; the last group holds the
        edges that reach the last nonempty end.  The groups partition the
        snapshot, and the union of ``groups[te - start:]`` is the edge set of
        ``[start, te]``.  An empty snapshot gives ``()``.
        """
        if not 0 <= start <= self.t_max:
            raise ValueError(f"start {start} outside time domain [0,{self.t_max}]")
        current = self.snapshots[start]
        if not current:
            return ()
        groups: list[frozenset[Edge]] = []
        empty: frozenset[Edge] = frozenset()
        for t in range(start + 1, self.t_max + 1):
            shrunk = current & self.snapshots[t]
            if not shrunk:
                break
            groups.append(current - shrunk if len(shrunk) < len(current) else empty)
            current = shrunk
        groups.append(current)
        return tuple(groups)


# -- ingestion ------------------------------------------------------------------


# a chunk's time texts, each distinct one's raw time, and its two label columns
_Columns = tuple[list[str], dict[str, int], list[str], list[str]]

CHUNK_CHARS = 1 << 16
"""Characters ``load_edge_list`` reads at a time; each chunk then runs on to
the end of its last line, so it holds whole lines only.

A load's peak is the distinct contacts plus one chunk's tokens and
columns; larger chunks read no faster, since the per-record work dominates.
"""


@contextmanager
def _opened(source) -> Iterator[IO[str]]:
    """``source`` as a UTF-8 text stream: a path (``.gz`` is decompressed) or
    bytes, decoded as read with universal newlines, or an open text stream,
    left open.  Text that is not UTF-8 raises ``EdgeListFormatError``."""
    try:
        if isinstance(source, (bytes, bytearray)):
            with io.TextIOWrapper(io.BytesIO(source), encoding="utf-8", newline=None) as stream:
                yield stream
        elif not isinstance(source, (str, Path)):
            yield source
        elif Path(source).suffix == ".gz":
            import gzip
            with gzip.open(source, "rt", encoding="utf-8") as stream:
                yield stream
        else:
            with open(source, encoding="utf-8") as stream:
                yield stream
    except UnicodeDecodeError as exc:
        raise EdgeListFormatError(
            f"input is not UTF-8 text: {exc.reason} "
            f"(byte 0x{exc.object[exc.start]:02x})") from None


def _chunks(stream: IO[str]) -> Iterator[tuple[int, str]]:
    """``(first line number, text)`` of consecutive chunks of the stream."""
    lineno = 1
    # a line end is '\n' only, as when iterating the stream
    while chunk := stream.read(CHUNK_CHARS):
        if chunk[-1] != "\n":
            chunk += stream.readline()
        yield lineno, chunk
        lineno += chunk.count("\n")


def _uniform_columns(chunk: str) -> _Columns | None:
    """Time texts, their raw times and the label columns of a chunk whose
    every line holds the same number k >= 3 of fields, with no ``#`` or NUL
    and a nonnegative integer first field; ``None`` for any other chunk.

    One ``str.split`` tokenizes the chunk, with a NUL token after each line:
    the chunk is uniform iff there are ``(k + 1)`` tokens per line and every
    ``(k + 1)``-th one is a NUL.  ``split`` and ``_parse_lines`` break fields
    at the same whitespace and commas, and lines end only at ``'\\n'``, so
    the columns are exactly what the line-by-line parse would read.
    """
    if "#" in chunk or "\0" in chunk:
        return None
    tokens = chunk.replace(",", " ").replace("\n", " \0 ").split()
    lines = chunk.count("\n")
    if chunk[-1] != "\n":
        tokens.append("\0")
        lines += 1
    stride, rest = divmod(len(tokens), lines)
    if rest or stride < 4 or tokens[stride - 1::stride].count("\0") != lines:
        return None
    times = tokens[0::stride]
    distinct = set(times)
    try:
        raw = dict(zip(distinct, map(int, distinct)))
    except ValueError:
        return None
    if min(raw.values()) < 0:
        return None
    return times, raw, tokens[1::stride], tokens[2::stride]


def _parse_lines(chunk: str, lineno: int) -> _Columns:
    """Time texts, their raw times and the label columns of a chunk read line
    by line, its first line numbered ``lineno``.

    Lines end at ``'\\n'`` only.  Fields are whitespace- or comma-separated;
    blank lines and ``#`` comments are skipped; extra trailing columns are
    ignored (face-to-face contact datasets commonly carry metadata columns).
    """
    times: list[str] = []
    raw: dict[str, int] = {}
    us: list[str] = []
    vs: list[str] = []
    for lineno, line in enumerate(chunk.split("\n"), start=lineno):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.replace(",", " ").split()
        if len(parts) < 3:
            raise EdgeListFormatError(
                f"expected at least 3 fields (time u v), got {len(parts)}", lineno)
        try:
            raw_time = int(parts[0])
        except ValueError:
            raise EdgeListFormatError(
                f"non-integer timestamp {parts[0]!r}", lineno) from None
        if raw_time < 0:
            raise EdgeListFormatError(f"negative timestamp {raw_time}", lineno)
        raw[parts[0]] = raw_time
        times.append(parts[0])
        us.append(parts[1])
        vs.append(parts[2])
    return times, raw, us, vs


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block (or, as a decorator,
    the call), then restore the caller's setting: a collector the caller had
    disabled stays disabled, also when the block raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _collect(records: Iterable[tuple[int, str, str]], index: dict[str, int], share,
             windows: dict[int, dict[Edge, bool]]) -> None:
    """Place each ``(window, u, v)`` record in its window's pair dict.

    Self-loops are skipped.  A label gets the next id of ``index`` when first
    seen, and ``share`` keeps one tuple per distinct pair.  A window's dict
    holds each pair once, in order of first appearance, mapped to whether
    its first record named the lower id first."""
    for t, u, v in records:
        if u != v:
            a, b = index[u], index[v]
            pair = (a, b) if a < b else (b, a)
            # a repeat within the window costs one lookup, not two
            if pair not in (pairs := windows[t]):
                pairs[share(pair, pair)] = a < b


@_collector_paused()
def load_edge_list(source, window: int, time_origin: int | None = None,
                   pre_windowed: bool = False,
                   timings: dict | None = None) -> TemporalGraph:
    """Load a temporal graph from a raw edge list, discretizing time into windows.

    Raw times are bucketed into contiguous windows of equal width starting at
    ``time_origin`` (default: the minimum raw time seen).  With
    ``pre_windowed`` the first column is the timestamp index itself: the
    load runs with window 1 from origin 0, whatever ``window`` says.

    Repeated contacts of the same pair within one window collapse to a single
    edge, and vertex labels are indexed in order of first appearance, window
    by window.  Self-loop records are dropped; their count, repeats included,
    is kept on the graph as ``dropped_self_loops``.

    The source, a path (``.gz`` included), bytes or an open text stream, is
    read in chunks of about ``CHUNK_CHARS`` characters that end at a line end.
    A chunk whose lines all hold the same number of fields (at least 3), with
    no ``#`` or NUL, is split in one pass and read column-wise, commas and
    CRLF line ends included; any other chunk is parsed line by line.  Either
    way each distinct time text is converted once, and maps straight to its
    window.  A malformed line raises ``EdgeListFormatError`` with its line
    number, before the time origin or the time domain is checked; input that
    is not UTF-8 text raises it too.
    Each record goes straight into its window's pair set as its chunk is
    read, so memory is bounded by one chunk plus the distinct contacts, not
    by the record count.  Without ``time_origin`` the window of a record is
    known only at the end: records wait as columns of raw times and labels
    (three references each), then are placed in one pass.  Labels get ids
    as first seen, which is the rule above when windows arrive in ascending
    order (time-ordered logs, and every file ``write_edge_list`` writes);
    otherwise one pass over the windows in order renumbers labels and pairs.

    Each distinct vertex pair is one tuple object, shared by every snapshot
    that holds it, and the cyclic collector is paused for the whole load.

    A time domain of more than ``MAX_TIMESTAMPS`` windows is rejected with
    ``EdgeListFormatError``: once the chunks read so far span that many
    windows, nothing more is collected, and the rest is read only to report
    a malformed line.  When ``timings`` is given, it receives the seconds
    spent reading and placing the records (``parse``) and building the graph
    from them (``build``: the renumbering, if any, the freeze and the checks).
    """
    if pre_windowed:
        window, time_origin = 1, 0
    elif window <= 0:
        raise ParameterError("window must be a positive duration")
    tick = time.perf_counter()
    index: dict[str, int] = defaultdict(count().__next__)
    share = {}.setdefault
    windows: dict[int, dict[Edge, bool]] = defaultdict(dict)
    # without an origin, records wait as raw-time columns until the minimum is known
    deferred = time_origin is None
    raw_times: list[int] = []
    raw_us: list[str] = []
    raw_vs: list[str] = []
    intern = {}.setdefault  # one string per distinct label among waiting records
    dropped, low, high, last, ordered = 0, None, None, 0, True
    with _opened(source) as stream:
        for lineno, chunk in _chunks(stream):
            times, raw, us, vs = _uniform_columns(chunk) or _parse_lines(chunk, lineno)
            if not times:
                continue
            values = raw.values()
            low = min(values) if low is None else min(low, min(values))
            high = max(values) if high is None else max(high, max(values))
            if (high - (low if deferred else time_origin)) // window >= MAX_TIMESTAMPS:
                # too wide to load: drop what was collected, read on for malformed lines
                windows.clear()
                del raw_times[:], raw_us[:], raw_vs[:]
                continue
            dropped += sum(map(eq, us, vs))
            if not deferred:
                raw = {text: (t - time_origin) // window for text, t in raw.items()}
            ts = list(map(raw.__getitem__, times))
            ordered = ordered and last <= ts[0] and all(map(le, ts, islice(ts, 1, None)))
            last = ts[-1]
            if deferred:
                raw_times += ts
                raw_us += map(intern, us, us)
                raw_vs += map(intern, vs, vs)
            else:
                _collect(zip(ts, us, vs), index, share, windows)
    if low is None:
        raise EdgeListFormatError("empty edge list: graph must have at least one timestamp")

    origin = low if deferred else time_origin
    if low < origin:
        raise EdgeListFormatError(f"record at raw time {low} precedes time origin {origin}")
    t_max = (high - origin) // window
    if t_max >= MAX_TIMESTAMPS:
        raise EdgeListFormatError(
            f"time domain of {t_max + 1} windows exceeds the limit of {MAX_TIMESTAMPS}")
    if deferred:
        ts = map(floordiv, map(sub, raw_times, repeat(origin)), repeat(window))
        _collect(zip(ts, raw_us, raw_vs), index, share, windows)
        del raw_times, raw_us, raw_vs
    tock = time.perf_counter()
    labels = list(index)
    if not ordered:
        # ids went by first sight out of window order: replay each window's
        # first records in window order, renumbering labels and pairs
        index, share, seen = defaultdict(count().__next__), {}.setdefault, windows
        windows = defaultdict(dict)
        _collect(((t, labels[a], labels[b]) if forward else (t, labels[b], labels[a])
                  for t in sorted(seen) for (a, b), forward in seen.pop(t).items()),
                 index, share, windows)
        labels = list(index)
    del share  # the pair dict goes before the snapshots are frozen
    # a keys view, not the dict: frozenset(dict) sizes its table for twice the pairs
    snapshots = [frozenset(windows.pop(t, {}).keys()) for t in range(t_max + 1)]
    g = TemporalGraph(snapshots, labels, dropped_self_loops=dropped)
    if timings is not None:
        timings["parse"] = tock - tick
        timings["build"] = time.perf_counter() - tock
    return g


def write_edge_list(g: TemporalGraph, sink) -> int:
    """Emit the graph to a text stream in pre-windowed format (``t u v`` per
    line); returns the line count."""
    labels = g.labels
    for t, snapshot in enumerate(g.snapshots):
        sink.write("".join([f"{t}\t{labels[u]}\t{labels[v]}\n" for u, v in sorted(snapshot)]))
    return g.temporal_edge_count()


# -- degree-preserving null model -------------------------------------------------


def rewire_null_model(g: TemporalGraph, seed: int | None = 0) -> TemporalGraph:
    """Reshuffle every snapshot by repeated degree-preserving double edge swaps.

    Two edges with four distinct endpoints are replaced by their crosswise
    recombination when neither replacement already exists.  Per-vertex degree
    and edge count in every timestamp are preserved exactly; correlations
    between consecutive snapshots are destroyed.  ``10 * |edges|`` swaps
    are attempted per snapshot.
    """
    rng = random.Random(seed)
    new_snapshots: list[list[Edge]] = []
    for snapshot in g.snapshots:
        edges = sorted(snapshot)
        m = len(edges)
        if m < 2:
            new_snapshots.append(edges)
            continue
        present = set(edges)
        for _ in range(10 * m):
            i = rng.randrange(m)
            j = rng.randrange(m)
            if i == j:
                continue
            u, v = edges[i]
            w, z = edges[j]
            if len({u, v, w, z}) < 4:
                continue
            if rng.random() < 0.5:
                w, z = z, w
            e1 = (u, z) if u < z else (z, u)
            e2 = (w, v) if w < v else (v, w)
            if e1 in present or e2 in present:
                continue
            present.discard(edges[i])
            present.discard(edges[j])
            present.add(e1)
            present.add(e2)
            edges[i] = e1
            edges[j] = e2
        new_snapshots.append(edges)
    return TemporalGraph(new_snapshots, g.labels)
