import gc
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import spancores
from spancores import TemporalGraph, load_edge_list, tcs_efficient

# Canonical 4-vertex, 3-timestamp fixture used throughout: a triangle abc that
# decays to a single edge ab, plus a pendant d attached only at t=0.
FIX1_SNAPSHOTS = [
    [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")],
    [("a", "b"), ("a", "c"), ("b", "c")],
    [("a", "b")],
]
# the same records as a pre-windowed edge list, one "t u v" line each
FIX1_TEXT = "".join(f"{t} {a} {b}\n" for t, snapshot in enumerate(FIX1_SNAPSHOTS)
                    for a, b in snapshot)


@pytest.fixture
def fix1() -> TemporalGraph:
    return load_edge_list(FIX1_TEXT.encode(), window=1, pre_windowed=True)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request) -> bool:
    """Run the test with the cyclic garbage collector on, then off; the
    test gets the setting it starts with, and the old one is restored."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def random_temporal_graph(rng: random.Random, n: int, t: int, p: float) -> TemporalGraph:
    snapshots = []
    for _ in range(t):
        snapshots.append([(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
    return TemporalGraph(snapshots, [f"v{i}" for i in range(n)])


def build_corpus(count: int = 200, base_seed: int = 1000) -> list[TemporalGraph]:
    """Deterministic random-graph corpus: |V| <= 12, |T| <= 12, edge prob in {.2,.4,.6}."""
    graphs = []
    probabilities = (0.2, 0.4, 0.6)
    for i in range(count):
        rng = random.Random(base_seed + i)
        n = rng.randint(4, 12)
        t = rng.randint(1, 12)
        graphs.append(random_temporal_graph(rng, n, t, probabilities[i % 3]))
    return graphs


def stress_cases(t=12, n=14):
    """(graph, query) pairs with sparse persistent structure over a longer
    domain than the corpus's, so the boundary reduction genuinely shrinks the
    DP compared to the full domain."""
    rng = random.Random(71)
    for _ in range(12):
        snapshots = [[] for _ in range(t)]
        for _ in range(10):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            start = rng.randrange(t)
            for s in range(start, min(t, start + rng.randint(1, 6))):
                snapshots[s].append((u, v))
        yield TemporalGraph(snapshots, [f"v{i}" for i in range(n)]), {rng.randrange(n)}


def long_lived_graphs(count: int = 40, base_seed: int = 4000) -> list[TemporalGraph]:
    """Deterministic graphs with groups that last, over |T| from 15 to 40: a
    few cliques of 3 to 5 vertices, each present over long runs broken by
    gaps, sparse background contacts of one to three windows, and a few
    emptied windows."""
    graphs = []
    for i in range(count):
        rng = random.Random(base_seed + i)
        n, t = rng.randint(8, 16), rng.randint(15, 40)
        snapshots: list[set[tuple[int, int]]] = [set() for _ in range(t)]
        for _ in range(rng.randint(1, 3)):
            clique = list(combinations(sorted(rng.sample(range(n), rng.randint(3, 5))), 2))
            start = rng.randrange(t // 2)
            while start < t:
                stop = min(t, start + rng.randint(4, t))
                for s in range(start, stop):
                    snapshots[s].update(clique)
                start = stop + rng.randint(1, 4)
        for _ in range(rng.randint(t // 2, 2 * t)):
            u, v = sorted(rng.sample(range(n), 2))
            start = rng.randrange(t)
            for s in range(start, min(t, start + rng.randint(1, 3))):
                snapshots[s].add((u, v))
        for s in rng.sample(range(t), rng.randint(0, 3)):
            snapshots[s].clear()
        graphs.append(TemporalGraph([sorted(s) for s in snapshots],
                                    [f"v{j}" for j in range(n)]))
    return graphs


def wide_domain_graphs() -> list[TemporalGraph]:
    """Three graphs over 100 to 150 timestamps, wider than any corpus: a
    4-clique in every window plus seeded contacts of one to three windows
    among 12 more vertices; one edge in every window; and 12 pairs among 8
    vertices, each switching on and off in seeded runs of 1 to 15 windows."""
    rng = random.Random(26)
    clique = list(combinations(range(4), 2))
    lived: list[set[tuple[int, int]]] = [set(clique) for _ in range(100)]
    for _ in range(300):
        u, v = sorted(rng.sample(range(4, 16), 2))
        start = rng.randrange(100)
        for s in range(start, min(100, start + rng.randint(1, 3))):
            lived[s].add((u, v))
    switching: list[list[tuple[int, int]]] = [[] for _ in range(120)]
    for pair in rng.sample(list(combinations(range(8), 2)), 12):
        t, on = 0, rng.random() < 0.5
        while t < 120:
            run = rng.randint(1, 15)
            if on:
                for s in range(t, min(120, t + run)):
                    switching[s].append(pair)
            t, on = t + run, not on
    return [TemporalGraph([sorted(s) for s in lived], [f"v{i}" for i in range(16)]),
            TemporalGraph([[(0, 1)]] * 150, ["a", "b"]),
            TemporalGraph(switching, [f"v{i}" for i in range(8)])]


def forward_interval_edges(g: TemporalGraph, ts: int, te: int) -> frozenset[tuple[int, int]]:
    """The edge set of ``[ts, te]``, its snapshots intersected forward: an
    oracle for ``interval_edges`` and ``edge_shrinkage`` that does not share
    their stored runs."""
    edges = g.snapshots[ts]
    for t in range(ts + 1, te + 1):
        if not edges:
            break
        edges = edges & g.snapshots[t]
    return edges


def per_vertex_rows(g: TemporalGraph, h: int) -> list[list[int]]:
    """Embedding rows the slow way: one efficient community search per vertex."""
    return [[seg.min_degree for seg in tcs_efficient(g, {u}, h).segments] for u in g.vertices]


def quadratic_segment_dp(ends, corners, h):
    """The segmentation DP by trying every split: the oracle of
    ``community_search._segment_dp``.

    Each interval ``[a, te]`` is scored by ``score_at`` from the
    ``(start, end, order)`` corners.  ``P`` and ``R`` mean what they mean for
    ``_segment_dp``, ties going to the smallest split.
    """
    n = len(ends)
    starts = [0] + [e + 1 for e in ends[:-1]]
    P: list[list[int | None]] = [[None] * h for _ in range(n)]
    R: list[list[int]] = [[-1] * h for _ in range(n)]
    for r in range(n):
        scores = [score_at(corners, a, ends[r]) for a in starts[:r + 1]]
        P[r][0] = -scores[0]
        for i in range(1, min(h, r + 1)):
            best = None
            best_split = -1
            for split in range(i - 1, r):
                prev = P[split][i - 1]
                if prev is None:
                    continue
                cost = prev - scores[split + 1]
                if best is None or cost < best:
                    best = cost
                    best_split = split
            P[r][i] = best
            R[r][i] = best_split
    return P, R


def score_at(corners, a, te):
    """The score of ``[a, te]``: the highest order among the
    ``(start, end, order)`` corners whose span contains it, 0 if none."""
    return max((k for s, e, k in corners if s <= a and te <= e), default=0)


def definitional_span_cores(g: TemporalGraph) -> dict[tuple[int, int, int], frozenset[int]]:
    """``{(k, ts, te): members}`` for every span-core, straight from the
    definition and without any package algorithm.

    For each span whose interval edge set (the intersection of its snapshots)
    is nonempty, the k-core for k = 1, 2, ... starts from the edge endpoints
    and deletes every vertex with fewer than k interval neighbours inside the
    set until none is left to delete; the first empty k-core ends the span.
    """
    found = {}
    domain = len(g.snapshots)
    for ts in range(domain):
        edges = set(g.snapshots[ts])
        te = ts
        while edges:
            k = 1
            while True:
                members = {u for edge in edges for u in edge}
                while True:
                    degree = Counter(u for edge in edges
                                     if edge[0] in members and edge[1] in members
                                     for u in edge)
                    doomed = {u for u in members if degree[u] < k}
                    if not doomed:
                        break
                    members -= doomed
                if not members:
                    break
                found[(k, ts, te)] = frozenset(members)
                k += 1
            te += 1
            if te == domain:
                break
            edges &= g.snapshots[te]
    return found


def as_definitional(cores) -> dict[tuple[int, int, int], frozenset[int]]:
    """A span-core collection in ``definitional_span_cores``' form."""
    return {(c.order, c.span.start, c.span.end): c.members for c in cores}


@pytest.fixture(scope="session")
def corpus() -> list[TemporalGraph]:
    return build_corpus()


def benchmark_graph(n: int = 2000, t: int = 100, seed: int = 7) -> TemporalGraph:
    """Synthetic workload with both churn and persistent group structure.

    Short-lived background pairs dominate single snapshots while long-lived
    cliques keep wide intervals nonempty, which is the regime where interval
    seeding and the top-down maximal scan pay off.
    """
    rng = random.Random(seed)
    snapshots: list[list[tuple[int, int]]] = [[] for _ in range(t)]
    for _ in range(4000):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        start = rng.randrange(t)
        for s in range(start, min(t, start + rng.randint(1, 3))):
            snapshots[s].append((u, v))
    for _ in range(30):
        members = rng.sample(range(n), 7)
        start = rng.randrange(t - 8)
        for s in range(start, min(t, start + rng.randint(8, 35))):
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    snapshots[s].append((members[i], members[j]))
    return TemporalGraph(snapshots, [str(i) for i in range(n)])


def reference_load(text, window, time_origin=None, pre_windowed=False):
    """Labels, snapshots and dropped self-loops, computed one record at a
    time from the lines between line feeds."""
    records = []
    for line in text.split("\n"):
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.replace(",", " ").split()
            records.append((int(parts[0]), parts[1], parts[2]))
    if pre_windowed:
        origin, window = 0, 1
    else:
        origin = min(t for t, _, _ in records) if time_origin is None else time_origin
    windows = [[] for _ in range(max((t - origin) // window for t, _, _ in records) + 1)]
    for t, u, v in records:
        windows[(t - origin) // window].append((u, v))
    labels, index, dropped, snapshots = [], {}, 0, []
    for pairs in windows:
        edges = set()
        for a, b in pairs:
            if a == b:
                dropped += 1
                continue
            for label in (a, b):
                if label not in index:
                    index[label] = len(labels)
                    labels.append(label)
            edges.add(tuple(sorted((index[a], index[b]))))
        snapshots.append(frozenset(edges))
    return tuple(labels), tuple(snapshots), dropped


def loaded(g):
    """``reference_load``'s view of a loaded graph."""
    return g.labels, g.snapshots, g.dropped_self_loops


def loaded_modules(statement: str) -> set[str]:
    """The modules a fresh interpreter holds in ``sys.modules`` after running
    ``statement``, with this package's source first on its path."""
    src = str(Path(spancores.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = f"import sys; {statement}; print(*sys.modules)"
    child = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.split())


# -- acceptance reporting: one pass/fail line per criterion in the summary ------

_acceptance_results: list[str] = []


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        _acceptance_results.append(f"{status}  {name}")
    elif report.when == "setup" and report.skipped:
        _acceptance_results.append(f"SKIP  {name}")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for line in _acceptance_results:
        terminalreporter.write_line(line)
