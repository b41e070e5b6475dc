"""The PASSION runtime: efficient interface, two-phase collective I/O,
prefetching, out-of-core arrays."""

from repro.iolib.passion.runtime import PassionIO
from repro.iolib.passion.twophase import (IORequest, RunList, TwoPhaseIO,
                                         merge_intervals)
from repro.iolib.passion.prefetch import PrefetchReader
from repro.iolib.passion.oocarray import Layout, OutOfCoreArray

__all__ = [
    "PassionIO",
    "IORequest",
    "RunList",
    "TwoPhaseIO",
    "merge_intervals",
    "PrefetchReader",
    "Layout",
    "OutOfCoreArray",
]
