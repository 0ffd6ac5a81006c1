"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps functions of ``spancores`` by name, reads
attributes of their arguments and results, and ``perfbench/run.py --trace 1``
checks the sidecar's work counters against the traced peel counts.  These
cases run each kind of benchmark step on the FIX-1 file through ``cli.main``
with the tracer installed, so a renamed traced function, a result that lost
an attribute the tracer reads, or an output sink the tracer cannot stat
fails here rather than only in a manual traced benchmark run.
"""

import json
from pathlib import Path

import pytest

import spancores.cli as cli

from conftest import FIX1_TEXT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.fixture
def tracer(tracing):
    traced = tracing.Tracer()
    traced.install()
    yield traced
    traced.uninstall()


@pytest.mark.parametrize("command, args, layer", [
    ("decompose", [], "span_cores.intervals"),
    ("maximal", [], "graph.edge_shrinkage_calls"),
    ("tcs", ["--q", "a", "--h", "2"], "community_search.domain_size"),
    ("anomalies", ["--tr", "1", "--ratio", "1.5"], "maximal_cores.scan_calls"),
    ("embed", ["--h", "2"], "analytics.embed_rows"),
])
def test_traced_step_matches_its_sidecar(tracing, tracer, tmp_path, command, args, layer):
    source = tmp_path / "fix1.edges"
    source.write_text(FIX1_TEXT)
    out = tmp_path / f"{command}.out"
    assert cli.main([command, str(source), "--pre-windowed", *args, "-o", str(out)]) == 0
    layers = tracing.layer_metrics(tracer.reset())
    assert layers[layer] > 0
    counters = json.loads(out.with_name(out.name + ".meta.json").read_text())[
        "provenance"]["counters"]
    for counter, metric in (("peel_vertices", "static_core.peel_vertices"),
                            ("intervals_processed", "span_cores.intervals")):
        if counter in counters:
            assert counters[counter] == layers[metric], counter
