"""Parallel file systems: striping, servers, caches, PFS and PIOFS."""

from repro.pfs.striping import Extent, StripeMap
from repro.pfs.cache import StripeCache
from repro.pfs.file import FileHandle, PFile
from repro.pfs.server import IOServer
from repro.pfs.filesystem import PFS, PIOFS, ParallelFileSystem

__all__ = [
    "Extent",
    "StripeMap",
    "StripeCache",
    "FileHandle",
    "PFile",
    "IOServer",
    "PFS",
    "PIOFS",
    "ParallelFileSystem",
]
