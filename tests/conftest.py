import gc
import random
from collections import Counter

import pytest

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


def per_vertex_rows(g: TemporalGraph, h: int) -> list[list[int]]:
    """Embedding rows the slow way: one efficient community search per vertex."""
    return [[seg.min_degree for seg in tcs_efficient(g, {u}, h).segments] for u in g.vertices]


def quadratic_segment_dp(ends, profile, h):
    """The segmentation DP by trying every split: the oracle of
    ``community_search._segment_dp``.

    ``profile(te, starts)`` gives the score of ``[a, te]`` for each start
    ``a`` (use ``expand_runs`` to read a run profile).  ``P`` and ``R`` mean
    what they mean for ``_segment_dp``, ties going to the smallest split.
    """
    n = len(ends)
    starts = [0] + [e + 1 for e in ends[:-1]]
    P: list[list[int | None]] = [[None] * h for _ in range(n)]
    R: list[list[int]] = [[-1] * h for _ in range(n)]
    for r in range(n):
        scores = profile(ends[r], starts[:r + 1])
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


def expand_runs(runs, count):
    """The per-start values of ``count`` starts from a profile's
    ``(first start index, value)`` runs."""
    firsts = [j for j, _ in runs[1:]] + [count]
    return [value for (j, value), end in zip(runs, firsts) for _ in range(j, end)]


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
