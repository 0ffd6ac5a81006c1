"""Span-core decomposition, maximal span-core mining, and temporal community
search over discrete-time networks, with the downstream analytics built on
them (anomaly filtering, purity statistics, community-search embeddings).

``import spancores`` loads ``graph``, ``static_core`` and ``span_cores``;
the other modules and their names load on first access through the module
``__getattr__`` (PEP 562), which stores nothing here.  ``span_cores`` is
eager because the function shares its submodule's name: a fresh import of
the submodule would set ``spancores.span_cores`` to the module.
"""

import time
from importlib import import_module

_IMPORT_STARTED = time.perf_counter()  # where the CLI sidecar's ``import_seconds`` starts

from .graph import (
    EdgeListFormatError,
    Interval,
    TemporalGraph,
    load_edge_list,
    rewire_null_model,
    write_edge_list,
)
from .static_core import core_decomposition
from .span_cores import (
    DecompositionStats,
    SpanCore,
    SpanCoreSet,
    naive_span_cores,
    read_span_cores,
    span_cores,
    write_span_cores,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityCell",
    "AnomalyReport",
    "DecompositionStats",
    "EdgeListFormatError",
    "Interval",
    "Segment",
    "Segmentation",
    "SpanCore",
    "SpanCoreSet",
    "SpanLengthBin",
    "TemporalGraph",
    "activity_summary",
    "core_decomposition",
    "detect_anomalies",
    "filter_maximal",
    "greedy_minimum_community",
    "load_edge_list",
    "maximal_span_cores",
    "naive_span_cores",
    "purity",
    "purity_timeline",
    "query_constrained_scan",
    "read_attribute_table",
    "read_span_cores",
    "reduced_time_domain",
    "rewire_null_model",
    "sample_query_vertices",
    "single_tcs",
    "span_cores",
    "span_length_distribution",
    "tcs_basic",
    "tcs_efficient",
    "tcs_embeddings",
    "write_edge_list",
    "write_span_cores",
]

# the lazily loaded submodules and the public names each defines
_LAZY_MODULES = {
    "maximal_cores": ("filter_maximal", "maximal_span_cores", "query_constrained_scan"),
    "community_search": ("Segment", "Segmentation", "reduced_time_domain", "single_tcs",
                         "tcs_basic", "tcs_efficient"),
    "min_community": ("greedy_minimum_community",),
    "analytics": ("ActivityCell", "AnomalyReport", "SpanLengthBin", "activity_summary",
                  "detect_anomalies", "purity", "purity_timeline", "read_attribute_table",
                  "sample_query_vertices", "span_length_distribution", "tcs_embeddings"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        return getattr(import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
