"""Analysis helpers: closed-form models of disk and I/O-library costs."""

from repro.analysis.iomodel import (
    collective_benefit_bound,
    request_cost,
    stream_bandwidth,
    strided_penalty,
)

__all__ = [
    "collective_benefit_bound",
    "request_cost",
    "stream_bandwidth",
    "strided_penalty",
]
