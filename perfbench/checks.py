"""Correctness checks on the CLI's result files, run outside the timed region.

Every output is compared with an oracle that does not share the fast route's
code: ``naive_span_cores`` for ``decompose``, ``filter_maximal`` over it for
``maximal``, the ``tcs_basic`` objective for ``tcs`` and for each ``embed``
row, and a re-derivation of the anomaly filter from the oracle's maximal
cores for ``anomalies``.  For the default seed the result files must also
match the SHA-256 digests in ``golden.json`` byte for byte.
"""

from __future__ import annotations

import json
from functools import reduce
from pathlib import Path

from spancores import (filter_maximal, load_edge_list, naive_span_cores, read_span_cores,
                       tcs_basic)

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def _option(args, flag):
    return args[args.index(flag) + 1]


class Oracle:
    """Reference answers for one generated input, computed on first use."""

    def __init__(self, instance):
        self.g = load_edge_list(instance.input_path, **instance.load_kwargs)
        self._all = None
        self._maximal = None

    @property
    def all_cores(self):
        if self._all is None:
            self._all = naive_span_cores(self.g)
        return self._all

    @property
    def maximal(self):
        if self._maximal is None:
            self._maximal = filter_maximal(self.all_cores)
        return self._maximal

    def check(self, step, out_dir: Path) -> list[str]:
        path = out_dir / step.output
        try:
            return getattr(self, "_check_" + step.command)(step, path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{step.command}: unreadable result: {exc!r}"]

    def _check_decompose(self, step, path):
        if read_span_cores(path, self.g) != self.all_cores:
            return ["decompose: span-cores differ from naive_span_cores"]
        return []

    def _check_maximal(self, step, path):
        if read_span_cores(path, self.g) != self.maximal:
            return ["maximal: cores differ from filter_maximal(naive_span_cores)"]
        return []

    def _check_tcs(self, step, path):
        g = self.g
        labels = _option(step.args, "--q").split(",")
        h = int(_option(step.args, "--h"))
        data = json.loads(path.read_text(encoding="utf-8"))
        expected = tcs_basic(g, frozenset(g.index_of(q) for q in labels), h).objective
        problems = []
        if data["objective"] != expected:
            problems.append(f"tcs: objective {data['objective']} != tcs_basic {expected}")
        segments = data["segments"]
        ends = [-1] + [s["te"] for s in segments]
        if (len(segments) != h or [s["ts"] for s in segments] != [e + 1 for e in ends[:-1]]
                or ends[-1] != g.t_max):
            problems.append("tcs: segments do not partition the time domain into h parts")
        if sum(s["min_degree"] for s in segments) != data["objective"]:
            problems.append("tcs: segment scores do not add up to the objective")
        if any(s["min_degree"] > 0 and not set(labels) <= set(s["vertices"])
               or s["size"] != len(s["vertices"]) for s in segments):
            problems.append("tcs: a segment misses the query or misstates its size")
        return problems

    def _check_anomalies(self, step, path):
        g = self.g
        tr = int(_option(step.args, "--tr"))
        ratio = float(_option(step.args, "--ratio"))
        flagged: dict[int, set[int]] = {}
        for core in self.maximal:
            span = core.span
            if span.length <= tr:
                continue
            persistent = reduce(frozenset.intersection, g.snapshots[span.start:span.end + 1])
            endpoints = {w for edge in persistent for w in edge}
            for t in span:
                flagged.setdefault(t, set()).update(endpoints)
        rows = ["t\toriginal_edges\tvertex_filtered_edges\tfinal_edges\tflagged\n"]
        edges = []
        for t, snapshot in enumerate(g.snapshots):
            bad = flagged.get(t, set())
            kept = [e for e in snapshot if e[0] not in bad and e[1] not in bad]
            emptied = len(snapshot) > 0 and (not kept or len(snapshot) / len(kept) > ratio)
            final = [] if emptied else kept
            rows.append(f"{t}\t{len(snapshot)}\t{len(kept)}\t{len(final)}\t{int(emptied)}\n")
            edges.extend(f"{t}\t{g.label_of(u)}\t{g.label_of(v)}\n" for u, v in sorted(final))
        problems = []
        if path.read_text(encoding="utf-8") != "".join(rows):
            problems.append("anomalies: table differs from the re-derived filter")
        graph_path = path.with_name(path.name + ".filtered.edges")
        if graph_path.read_text(encoding="utf-8") != "".join(edges):
            problems.append("anomalies: filtered edge list differs from the re-derived filter")
        return problems

    def _check_embed(self, step, path):
        g = self.g
        h = int(_option(step.args, "--h"))
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0].split("\t") != ["vertex"] + [f"x{j}" for j in range(h)] or len(lines) != g.n + 1:
            return ["embed: wrong header or row count"]
        for u, line in enumerate(lines[1:]):
            label, *row = line.split("\t")
            values = [int(x) for x in row]
            if label != g.label_of(u) or len(values) != h or min(values) < 0:
                return [f"embed: malformed row {u}"]
            if sum(values) != tcs_basic(g, frozenset({u}), h).objective:
                return [f"embed: row {label} does not add up to the tcs_basic objective"]
        return []


def golden_problems(workload: str, step, found: dict[str, str]) -> list[str]:
    """Compare a step's result-file digests with the ones recorded for the default seed."""
    table = json.loads(GOLDEN.read_text(encoding="utf-8")).get(workload, {})
    expected = {name: sha for name, sha in table.items() if name.startswith(step.output)}
    return [f"{name}: SHA-256 differs from golden.json"
            for name in sorted(set(expected) | set(found)) if expected.get(name) != found.get(name)]
