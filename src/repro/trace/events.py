"""Trace record types (Pablo-instrumentation style)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["IOOp", "TraceRecord"]


class IOOp(enum.Enum):
    """Operation classes, matching the rows of the paper's Tables 2 and 3."""

    OPEN = "Open"
    READ = "Read"
    SEEK = "Seek"
    WRITE = "Write"
    FLUSH = "Flush"
    CLOSE = "Close"

    #: Members are singletons, so identity hashing is exact — and it is
    #: C-level, where ``Enum.__hash__`` is a Python call.  Trace
    #: aggregates are keyed by op once per simulated I/O call.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TraceRecord:
    """One application-level I/O operation.

    ``duration`` is wall (simulated) time from call to return, i.e. it
    includes queueing/contention — exactly what an application-level
    tracing library like Pablo measures.
    """

    op: IOOp
    rank: int
    start: float
    duration: float
    nbytes: int = 0
    file: Optional[str] = None

    @property
    def end(self) -> float:
        return self.start + self.duration
