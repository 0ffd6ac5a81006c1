"""Span-core decomposition, maximal span-core mining, and temporal community
search over discrete-time networks, with the downstream analytics built on
them (anomaly filtering, purity statistics, community-search embeddings)."""

import time

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
from .maximal_cores import filter_maximal, maximal_span_cores, query_constrained_scan
from .community_search import (
    Segment,
    Segmentation,
    reduced_time_domain,
    single_tcs,
    tcs_basic,
    tcs_efficient,
)
from .min_community import greedy_minimum_community
from .analytics import (
    ActivityCell,
    AnomalyReport,
    SpanLengthBin,
    activity_summary,
    detect_anomalies,
    purity,
    purity_timeline,
    read_attribute_table,
    sample_query_vertices,
    span_length_distribution,
    tcs_embeddings,
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
