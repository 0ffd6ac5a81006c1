"""Per-layer tracing from outside the package.

``Tracer.install`` replaces each traced function of ``spancores`` with a
wrapper in every ``spancores.*`` module that binds it (``from x import f``
leaves one binding per importing module), and the two traced
``TemporalGraph`` methods on the class.  ``uninstall`` puts the originals
back.  A wrapper records, per (function, nearest traced caller), the call
count, busy time and self time (busy time minus that of nested traced calls),
plus cheap work counts taken from the arguments.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (defining module, function) pairs; "TemporalGraph.x" names a method.
TRACED = (
    ("graph", "load_edge_list"),
    ("graph", "TemporalGraph.edge_shrinkage"),
    ("graph", "TemporalGraph.interval_edges"),
    ("static_core", "core_decomposition"),
    ("span_cores", "span_cores"),
    ("span_cores", "write_span_cores"),
    ("maximal_cores", "maximal_span_cores"),
    ("maximal_cores", "query_constrained_scan"),
    ("community_search", "tcs_efficient"),
    ("community_search", "reduced_time_domain"),
    ("community_search", "single_tcs"),
    ("analytics", "tcs_embeddings"),
    ("analytics", "detect_anomalies"),
)


@dataclass
class Record:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    vertices: int = 0  # core_decomposition: vertices fed to the peel
    edges: int = 0  # core_decomposition: edges fed to the peel
    items: int = 0  # length of the result (cores, rows, domain timestamps)
    results: list = field(default_factory=list)  # kept for counting after the run


def _measure(name: str, record: Record, args, result) -> None:
    """O(1) work counts, taken right after the call outside its timed span."""
    if name == "core_decomposition":
        vertices, edges = args[0], args[1]
        record.vertices += len(vertices)
        record.edges += len(edges) if hasattr(edges, "__len__") else 0
    elif name == "reduced_time_domain":
        record.items += len(result.timestamps)
    elif name in ("maximal_span_cores", "query_constrained_scan", "tcs_embeddings"):
        record.items += len(result)
    elif name == "span_cores" or name == "load_edge_list":
        record.results.append(result)
    elif name == "write_span_cores":
        record.results.append(getattr(args[1], "name", None))


class Tracer:
    def __init__(self):
        self.records: dict[tuple[str, str | None], Record] = {}
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> dict[tuple[str, str | None], Record]:
        """Return the records gathered so far and start afresh."""
        records, self.records = self.records, {}
        return records

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = self.records.get((name, parent))
                if record is None:
                    record = self.records[(name, parent)] = Record()
                record.calls += 1
                record.busy_s += elapsed
                record.self_s += elapsed - frame[1]
            _measure(name, record, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "spancores" or key.startswith("spancores.")]
        for module_name, qualname in TRACED:
            module = sys.modules[f"spancores.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _sum(records, name, field_name, parents=None) -> float:
    return sum(getattr(r, field_name) for (n, p), r in records.items()
               if n == name and (parents is None or p in parents))


SCANS = ("maximal_span_cores", "query_constrained_scan")


def layer_metrics(records: dict[tuple[str, str | None], Record]) -> dict[str, float]:
    """Per-layer numbers of one traced step; counts are exact, times in seconds."""
    graphs = [g for (n, _), r in records.items() if n == "load_edge_list" for g in r.results]
    enumerated = [c for (n, _), r in records.items() if n == "span_cores" for c in r.results]
    written = [f for (n, _), r in records.items() if n == "write_span_cores" for f in r.results]
    scan_peels = _sum(records, "core_decomposition", "calls", SCANS)
    scan_emitted = _sum(records, "maximal_span_cores", "items") + _sum(
        records, "query_constrained_scan", "items")
    return {
        "graph.load_s": _sum(records, "load_edge_list", "busy_s"),
        "graph.temporal_edges": max((g.temporal_edge_count() for g in graphs), default=0),
        "graph.edge_shrinkage_s": _sum(records, "edge_shrinkage", "busy_s"),
        "graph.edge_shrinkage_calls": _sum(records, "edge_shrinkage", "calls"),
        "graph.interval_edges_s": _sum(records, "interval_edges", "busy_s"),
        "graph.interval_edges_calls": _sum(records, "interval_edges", "calls"),
        "static_core.peel_s": _sum(records, "core_decomposition", "busy_s"),
        "static_core.peel_calls": _sum(records, "core_decomposition", "calls"),
        "static_core.peel_vertices": _sum(records, "core_decomposition", "vertices"),
        "static_core.peel_edges": _sum(records, "core_decomposition", "edges"),
        "span_cores.enumerate_self_s": _sum(records, "span_cores", "self_s"),
        "span_cores.intervals": _sum(records, "core_decomposition", "calls", ("span_cores",)),
        "span_cores.cores": sum(len(cores) for cores in enumerated),
        "span_cores.member_entries": sum(len(c.members) for cores in enumerated
                                         for c in cores),
        "span_cores.write_s": _sum(records, "write_span_cores", "busy_s"),
        "span_cores.output_bytes": sum(Path(f).stat().st_size for f in written
                                       if isinstance(f, str)),
        "maximal_cores.scan_self_s": sum(_sum(records, n, "self_s") for n in SCANS),
        "maximal_cores.scan_calls": sum(_sum(records, n, "calls") for n in SCANS),
        "maximal_cores.intervals": scan_peels,
        "maximal_cores.peel_vertices": _sum(records, "core_decomposition", "vertices", SCANS),
        "maximal_cores.emitted": scan_emitted,
        "community_search.tcs_self_s": _sum(records, "tcs_efficient", "self_s"),
        "community_search.domain_size": _sum(records, "reduced_time_domain", "items"),
        "community_search.single_tcs_s": _sum(records, "single_tcs", "busy_s"),
        "analytics.embed_rows": _sum(records, "tcs_embeddings", "items"),
        "analytics.embed_s": _sum(records, "tcs_embeddings", "busy_s"),
        "analytics.anomalies_self_s": _sum(records, "detect_anomalies", "self_s"),
    }
