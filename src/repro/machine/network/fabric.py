"""The contended message fabric.

Transfers pay an analytic latency (endpoint software + per-hop router
delay) plus a bandwidth term serialized at the *receiver's* NIC.  Modelling
only receiver-side contention is deliberate: the hotspots in this study are
the few I/O nodes that dozens of compute nodes converge on, and a
receiver-queue model captures exactly that saturation while keeping the
all-to-all phases of collective I/O cheap to simulate.
"""

from __future__ import annotations

from typing import Dict

from repro.sim import Environment, Resource, fan_out
from repro.sim.process import FanOut, Message
from repro.machine.params import NetworkParams
from repro.machine.network.topology import Topology

__all__ = ["Fabric", "NodeAddress", "FabricStats"]

NodeAddress = int


class FabricStats:
    """Aggregate fabric counters."""

    __slots__ = ("messages", "bytes_moved", "total_transfer_time")

    def __init__(self, messages: int = 0, bytes_moved: int = 0,
                 total_transfer_time: float = 0.0):
        self.messages = messages
        self.bytes_moved = bytes_moved
        self.total_transfer_time = total_transfer_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FabricStats(messages={self.messages}, "
                f"bytes_moved={self.bytes_moved}, "
                f"total_transfer_time={self.total_transfer_time})")


class Fabric:
    """Message transport over a :class:`Topology`."""

    def __init__(self, env: Environment, topology: Topology,
                 params: NetworkParams):
        self.env = env
        self.topology = topology
        self.params = params
        self._nics: Dict[NodeAddress, Resource] = {}
        #: (src, dst) -> fixed header cost; topology routes never change, so
        #: hop counting is paid once per node pair, not once per message.
        self._headers: Dict[tuple, float] = {}
        self.stats = FabricStats()
        #: Fault-injection hook (:mod:`repro.faults`): an object with a
        #: ``delay(src, dst, now) -> float`` method adding jitter and/or
        #: partition stall time to a message.  ``None`` (the normal case)
        #: keeps the data path to one attribute check per transfer.
        self.fault = None

    def _nic(self, node: NodeAddress) -> Resource:
        nic = self._nics.get(node)
        if nic is None:
            nic = Resource(self.env, capacity=1)
            self._nics[node] = nic
        return nic

    def nic_queue_length(self, node: NodeAddress) -> int:
        """Requests currently queued at a node's NIC (diagnostic)."""
        nic = self._nics.get(node)
        return 0 if nic is None else nic.queue_length + nic.count

    def wire_time(self, src: NodeAddress, dst: NodeAddress, nbytes: int) -> float:
        """Uncontended time for one message (latency + bandwidth terms)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        p = self.params
        hops = self.topology.hops(src, dst)
        return (p.latency_s + p.msg_overhead_s
                + hops * p.per_hop_s + nbytes / p.link_bandwidth)

    def transfer(self, src: NodeAddress, dst: NodeAddress, nbytes: int):
        """Process generator: move ``nbytes`` from ``src`` to ``dst``.

        Intra-node "transfers" cost a memory copy only (handled by callers
        that care); here they are free but still take one event step.
        """
        env = self.env
        start = env._now
        if src == dst:
            yield 0.0
            return
        p = self.params
        header = self._headers.get((src, dst))
        if header is None:
            hops = self.topology.hops(src, dst)
            header = p.latency_s + p.msg_overhead_s + hops * p.per_hop_s
            self._headers[(src, dst)] = header
        nic = self._nics.get(dst)
        if nic is None:
            nic = self._nic(dst)
        wire = header + nbytes / p.link_bandwidth
        fault = self.fault
        if fault is not None:
            # Evaluated when the message enters the fabric (before NIC
            # queueing); deterministic in simulated state only, so both
            # kernels see identical delays (see repro.faults).
            wire += fault.delay(src, dst, env._now)
        if nic.acquire():
            try:
                yield wire
            finally:
                nic.release_slot()
        else:
            with nic.request() as slot:
                yield slot
                yield wire
        stats = self.stats
        stats.messages += 1
        stats.bytes_moved += nbytes
        stats.total_transfer_time += env._now - start

    def send_all(self, src: NodeAddress, messages):
        """Wait-all event: one message from ``src`` to each ``(dst,
        nbytes)`` of ``messages``, for ``yield fabric.send_all(...)``.

        Each message is timed, queued and counted exactly as
        :meth:`transfer` would, and all of them start together as one
        fan-out.  On the fast kernel each message is one
        :class:`~repro.sim.process.Message`; the reference kernel runs a
        :meth:`transfer` generator per message under
        :func:`~repro.sim.fan_out`.  A message to ``src`` itself or of
        negative size raises ``ValueError`` before any message starts.
        """
        for dst, nbytes in messages:
            if dst == src:
                raise ValueError(f"message from node {src} to itself")
            if nbytes < 0:
                raise ValueError("nbytes must be non-negative")
        env = self.env
        if not env._fast:
            return fan_out(env, [self.transfer(src, dst, nbytes)
                                 for dst, nbytes in messages])
        nics = self._nics
        return FanOut(env, [Message(self, nics.get(dst) or self._nic(dst),
                                    src, dst, nbytes)
                            for dst, nbytes in messages], True)

    def _wire_at_start(self, message: Message) -> float:
        """Wire time of a :meth:`send_all` message, when it starts: the
        terms :meth:`transfer` computes, fault delay included.  The
        header cache is inlined as in :meth:`transfer`, whose cache
        misses (one per node pair per machine) are too many for a
        helper call."""
        src = message.src
        dst = message.dst
        p = self.params
        header = self._headers.get((src, dst))
        if header is None:
            hops = self.topology.hops(src, dst)
            header = p.latency_s + p.msg_overhead_s + hops * p.per_hop_s
            self._headers[(src, dst)] = header
        wire = header + message.nbytes / p.link_bandwidth
        fault = self.fault
        if fault is not None:
            wire += fault.delay(src, dst, self.env._now)
        return wire

    def _delivered(self, message: Message) -> None:
        """A :meth:`send_all` message released the receiver's NIC."""
        stats = self.stats
        stats.messages += 1
        stats.bytes_moved += message.nbytes
        stats.total_transfer_time += self.env._now - message.started
