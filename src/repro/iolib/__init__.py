"""Application-level I/O interfaces and optimization runtimes.

Interfaces differ in per-call software cost and calling convention:

- :class:`~repro.iolib.fortranio.FortranIO` — Fortran record I/O (heavy)
- :class:`~repro.iolib.posix.UnixIO` — Unix-compatibility path (medium)
- :class:`~repro.iolib.passion.PassionIO` — PASSION direct calls (light)
- :class:`~repro.iolib.chameleon.ChameleonIO` — funnelled master-node I/O

On top of the PASSION interface sit the optimization runtimes:
two-phase collective I/O, prefetching and out-of-core arrays (see
:mod:`repro.iolib.passion`).
"""

from repro.iolib.base import InterfaceCosts, InterfaceFile, IOInterface
from repro.iolib.posix import UnixIO
from repro.iolib.fortranio import FortranFile, FortranIO, RECORD_MARKER_BYTES
from repro.iolib.chameleon import ChameleonIO
from repro.iolib.passion import (
    IORequest,
    Layout,
    OutOfCoreArray,
    PassionIO,
    PrefetchReader,
    RunList,
    TwoPhaseIO,
    merge_intervals,
)

__all__ = [
    "InterfaceCosts",
    "InterfaceFile",
    "IOInterface",
    "UnixIO",
    "FortranFile",
    "FortranIO",
    "RECORD_MARKER_BYTES",
    "ChameleonIO",
    "IORequest",
    "Layout",
    "OutOfCoreArray",
    "PassionIO",
    "PrefetchReader",
    "RunList",
    "TwoPhaseIO",
    "merge_intervals",
]
