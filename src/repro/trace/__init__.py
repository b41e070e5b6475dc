"""Pablo-style application-level I/O tracing."""

from repro.trace.events import IOOp, TraceRecord
from repro.trace.collector import OpAggregate, TraceCollector
from repro.trace.summary import IOSummary, SummaryRow, summarize

__all__ = [
    "IOOp",
    "TraceRecord",
    "OpAggregate",
    "TraceCollector",
    "IOSummary",
    "SummaryRow",
    "summarize",
]
