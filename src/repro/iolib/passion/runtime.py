"""PASSION direct interface: the "efficient interface" of the paper.

PASSION (Thakur et al., IEEE Computer 1996) talks to the parallel file
system in its native mode, bypassing the Unix-compatibility layer and the
Fortran record machinery.  Per-call software cost drops by an order of
magnitude and no payload staging copy is made.  The calling convention is
explicit-offset: every access is a (cheap) seek plus a transfer, which is
why the paper's Table 3 shows ~604 000 seeks where the original trace
(Table 2) had ~1 000 — at a tiny per-seek cost.  Files are plain
:class:`~repro.iolib.base.InterfaceFile` objects; the convention is their
``seek_read``/``seek_write``.
"""

from __future__ import annotations

from repro.iolib.base import InterfaceCosts, IOInterface

__all__ = ["PassionIO"]


class PassionIO(IOInterface):
    """Low-overhead direct file interface."""

    name = "passion"
    costs = InterfaceCosts(
        open_s=0.002,
        close_s=0.002,
        read_call_s=0.0012,
        write_call_s=0.0014,
        seek_s=0.0003,
        flush_s=0.001,
        buffer_copy=False,
    )
