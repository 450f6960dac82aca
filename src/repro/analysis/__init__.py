"""Snapshots and gates, metrics, trace containers and INAM-style profiling."""

from repro.analysis.critpath import CollectivePath, CritPathAnalyzer, MessagePath
from repro.analysis.export import write_chrome_trace
from repro.analysis.metrics import HistogramStat, MetricsRegistry
from repro.analysis.profile import CommProfile, LinkStats
from repro.analysis.rprt import (RprtError, RprtReader, RprtWriter, is_rprt,
                                 write_trace_rprt)
from repro.analysis.traceio import convert, iter_trace_records, load_trace_records

__all__ = [
    "CommProfile",
    "LinkStats",
    "MetricsRegistry",
    "HistogramStat",
    "CritPathAnalyzer",
    "MessagePath",
    "CollectivePath",
    "write_chrome_trace",
    "RprtError",
    "RprtReader",
    "RprtWriter",
    "is_rprt",
    "write_trace_rprt",
    "convert",
    "iter_trace_records",
    "load_trace_records",
]
