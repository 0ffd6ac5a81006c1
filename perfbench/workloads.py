"""Seeded synthetic inputs and the CLI steps each benchmark workload runs.

The program under test only ever sees the edge-list file written here; the
seed decides every vertex, contact and query label.  Only default routes and
flags are used (no ``--threads``, ``--naive``, ``--filter``, ``--basic`` or
``--penalty-backend``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``spancores <command> <input> <load flags> <args> -o <output>``."""

    command: str
    args: tuple[str, ...]
    output: str


@dataclass
class Instance:
    """A generated workload input plus the steps to run on it."""

    workload: str
    input_path: Path
    load_flags: tuple[str, ...]
    load_kwargs: dict
    steps: tuple[Step, ...]
    lines: int
    facts: dict = field(default_factory=dict)

    def argv(self, step: Step, out_dir: Path) -> list[str]:
        return [step.command, str(self.input_path), *self.load_flags, *step.args,
                "-o", str(out_dir / step.output)]


def _write_lines(path: Path, rows) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for t, u, v in rows:
            fh.write(f"{t} {u} {v}\n")
            count += 1
    return count


def _spread(count: int, low: int, high: int) -> list[int]:
    """``count`` values spread evenly over ``low..high``.

    Fixed lengths and sizes keep the amount of work nearly the same for every
    seed, so runs on different seeds can be compared.
    """
    return [low + (high - low) * i // max(count - 1, 1) for i in range(count)]


def _episodes(rng: random.Random, t: int, count: int, low: int, high: int):
    """Yield ``(i, start, length)`` for ``count`` episodes lasting ``low..high``.

    Short and long episodes interleave (37 is coprime with every count used)
    and their starts are evenly spaced over the domain with a little seeded
    jitter, so how much episodes overlap hardly depends on the seed.
    """
    lengths = _spread(count, low, high)
    for i in range(count):
        length = lengths[i * 37 % count]
        slot = i * (t - length) // max(count - 1, 1) + rng.randint(-2, 2)
        yield i, min(max(slot, 0), t - length), length


def churn_snapshots(seed: int, n: int = 2000, t: int = 100) -> list[list[tuple[int, int]]]:
    """Shaped like ``benchmark_graph`` in ``tests/conftest.py``.

    4000 background pairs live 1-3 timestamps and dominate each snapshot while
    30 seven-vertex cliques persist for 8-35 timestamps.  The seed picks the
    vertices and the background start times; see ``_episodes`` for the cliques.
    """
    rng = random.Random(seed)
    snapshots: list[list[tuple[int, int]]] = [[] for _ in range(t)]
    for i in range(4000):
        u, v = rng.sample(range(n), 2)
        length = 1 + i % 3
        start = rng.randrange(t - length + 1)
        for s in range(start, start + length):
            snapshots[s].append((u, v))
    for _, start, length in _episodes(rng, t, 30, 8, 35):
        members = rng.sample(range(n), 7)
        for s in range(start, start + length):
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    snapshots[s].append((members[i], members[j]))
    return snapshots


def _grouped_snapshots(rng: random.Random, n: int, t: int, groups: int, size: tuple[int, int],
                       episodes: int, episode_len: tuple[int, int], background: int):
    """Snapshots of persistent cliques over background pairs that live 1-2 timestamps.

    Groups are vertex-disjoint, like school classes, and their sizes are a
    fixed multiset; episode ``i`` of ``_episodes`` belongs to group ``i % groups``.
    Returns ``(snapshots, group_members)``.
    """
    snapshots: list[set[tuple[int, int]]] = [set() for _ in range(t)]
    order = rng.sample(range(n), n)
    members = []
    for k in _spread(groups, *size):
        members.append(sorted(order[:k]))
        del order[:k]
    for i, start, length in _episodes(rng, t, episodes, *episode_len):
        group = members[i % groups]
        for s in range(start, start + length):
            for j, u in enumerate(group):
                for v in group[j + 1:]:
                    snapshots[s].add((u, v))
    for s in range(t):
        for i in range(background):
            u, v = sorted(rng.sample(range(n), 2))
            for w in range(s, min(t, s + 1 + i % 2)):
                snapshots[w].add((u, v))
    return [sorted(snap) for snap in snapshots], members


def _horizon(seed: int, work: Path) -> Instance:
    """School-like contacts: 300 vertices over 1200 five-minute windows, as raw
    20-second records (several per edge per window)."""
    rng = random.Random(seed)
    n, t, window, tick = 300, 1200, 300, 20
    snapshots, members = _grouped_snapshots(
        rng, n, t, groups=60, size=(3, 5), episodes=160, episode_len=(5, 40), background=40)
    origin = 1_353_300_000 + 20 * rng.randrange(1000)
    path = work / "horizon.contacts"
    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        for w, snapshot in enumerate(snapshots):
            rows = []
            for u, v in snapshot:
                for slot in rng.sample(range(window // tick), rng.randint(1, 3)):
                    rows.append((slot, u, v))
            rows.sort()
            base = origin + w * window
            fh.writelines(f"{base + slot * tick} {1000 + u} {1000 + v}\n" for slot, u, v in rows)
            lines += len(rows)
    # group 0 has the smallest size and a fixed set of episode lengths
    query = ",".join(f"{1000 + u}" for u in members[0][:2])
    return Instance(
        workload="horizon",
        input_path=path,
        load_flags=("--window", str(window), "--time-origin", str(origin)),
        load_kwargs={"window": window, "time_origin": origin},
        steps=(Step("maximal", (), "maximal.jsonl"),
               Step("tcs", ("--q", query, "--h", "50"), "tcs.json"),
               Step("anomalies", ("--tr", "20", "--ratio", "1.5"), "anomalies.tsv")),
        lines=lines,
        facts={"query": query, "h": 50, "tr": 20, "ratio": 1.5},
    )


def _churn(seed: int, work: Path) -> Instance:
    """``benchmark_graph`` (2000 vertices x 100 timestamps), pre-windowed."""
    path = work / "churn.edges"
    snapshots = churn_snapshots(seed)
    lines = _write_lines(path, ((s, u, v) for s, snap in enumerate(snapshots) for u, v in snap))
    return Instance(
        workload="churn",
        input_path=path,
        load_flags=("--pre-windowed",),
        load_kwargs={"window": 1, "pre_windowed": True},
        steps=(Step("decompose", (), "decompose.jsonl"),
               Step("maximal", (), "maximal.jsonl")),
        lines=lines,
    )


def _embed(seed: int, work: Path) -> Instance:
    """About 120 vertices x 60 timestamps with persistent groups, pre-windowed."""
    rng = random.Random(seed)
    snapshots, _ = _grouped_snapshots(
        rng, 120, 60, groups=14, size=(4, 7), episodes=24, episode_len=(5, 25), background=6)
    path = work / "embed.edges"
    lines = _write_lines(path, ((s, u, v) for s, snap in enumerate(snapshots) for u, v in snap))
    return Instance(
        workload="embed",
        input_path=path,
        load_flags=("--pre-windowed",),
        load_kwargs={"window": 1, "pre_windowed": True},
        steps=(Step("embed", ("--h", "5"), "embed.tsv"),),
        lines=lines,
        facts={"h": 5},
    )


GENERATORS = {"churn": _churn, "horizon": _horizon, "embed": _embed}


def generate(workload: str, seed: int, work: Path) -> Instance:
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, work)
