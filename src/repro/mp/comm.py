"""An MPI-flavoured communicator over the simulated fabric.

Semantics follow mpi4py's lower-case API (objects in, objects out) but
every operation is a *process generator* that costs simulated time
according to the machine's network parameters.  Collectives use the
standard algorithmic shapes (binomial trees for bcast/reduce, linear
fan-in for gather, pairwise exchange for alltoall), so their costs scale
the way the real libraries' did.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.sim import Environment, Store
from repro.machine.machine import Machine
from repro.mp.rendezvous import Barrier, Exchanger

__all__ = ["Communicator"]


class Communicator:
    """A group of ``size`` ranks mapped onto the machine's compute nodes.

    Rank *r* lives on compute node ``r % machine.n_compute`` (dense
    placement; the paper always ran one process per node, so normally
    ``size <= n_compute``).
    """

    def __init__(self, machine: Machine, size: Optional[int] = None):
        self.machine = machine
        self.env: Environment = machine.env
        self.size = size if size is not None else machine.n_compute
        if self.size <= 0:
            raise ValueError("communicator size must be positive")
        if self.size > machine.n_compute:
            raise ValueError(
                f"communicator of {self.size} ranks exceeds "
                f"{machine.n_compute} compute nodes")
        self._barrier = Barrier(self.env, self.size)
        self._exchanger = Exchanger(self.env, self.size)
        self._mailboxes: Dict[tuple, Store] = {}

    # -- placement ------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Global fabric address of a rank."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range")
        return rank % self.machine.n_compute

    # -- point-to-point ---------------------------------------------------------
    def _mailbox(self, dst: int, tag: int) -> Store:
        key = (dst, tag)
        box = self._mailboxes.get(key)
        if box is None:
            box = Store(self.env)
            self._mailboxes[key] = box
        return box

    def send(self, src: int, dst: int, payload: Any, nbytes: int,
             tag: int = 0):
        """Process generator: timed message from ``src`` to ``dst``."""
        yield from self.machine.fabric.transfer(
            self.node_of(src), self.node_of(dst), nbytes)
        yield self._mailbox(dst, tag).put((src, payload, nbytes))

    def recv(self, dst: int, tag: int = 0):
        """Process generator: receive ``(src, payload, nbytes)``."""
        item = yield self._mailbox(dst, tag).get()
        return item

    # -- collectives -------------------------------------------------------------
    def barrier(self, rank: int):
        """Process generator: synchronize all ranks.

        Charges the log-depth latency cost of a tree barrier to every rank.
        """
        p = self.machine.fabric.params
        depth = max(1, math.ceil(math.log2(max(2, self.size))))
        yield 2 * depth * (p.latency_s + p.msg_overhead_s)
        yield from self._barrier.wait()

    def bcast(self, rank: int, payload: Any = None, nbytes: int = 0,
              root: int = 0):
        """Process generator: broadcast from ``root``; returns the payload.

        Timing is a binomial tree: the root pays ``ceil(log2 P)`` message
        sends; everyone synchronizes at the end.
        """
        if rank == root:
            rounds = max(0, math.ceil(math.log2(max(1, self.size))))
            for r in range(rounds):
                peer = root + (1 << r)
                if peer < self.size:
                    yield from self.machine.fabric.transfer(
                        self.node_of(root), self.node_of(peer % self.size),
                        nbytes)
            result = yield from self._exchange_value(rank, payload, root)
        else:
            result = yield from self._exchange_value(rank, None, root)
        return result

    def _exchange_value(self, rank: int, payload: Any, root: int):
        outgoing = {}
        if rank == root:
            outgoing = {dst: payload for dst in range(self.size)}
        inbound = yield from self._exchanger.exchange(rank, outgoing)
        return inbound.get(root)

    def gather(self, rank: int, payload: Any, nbytes: int, root: int = 0):
        """Process generator: gather payloads at ``root``.

        Returns the list (rank-ordered) at the root, None elsewhere.
        """
        if rank != root:
            yield from self.machine.fabric.transfer(
                self.node_of(rank), self.node_of(root), nbytes)
        inbound = yield from self._exchanger.exchange(rank, {root: payload})
        if rank != root:
            return None
        return [inbound[src] for src in sorted(inbound)]

    def allgather(self, rank: int, payload: Any, nbytes: int):
        """Process generator: every rank receives every rank's payload."""
        if self.size > 1:
            node_of = self.node_of
            yield self.machine.fabric.send_all(
                node_of(rank), [(node_of(dst), nbytes)
                                for dst in range(self.size) if dst != rank])
        inbound = yield from self._exchanger.exchange(
            rank, {dst: payload for dst in range(self.size)})
        return [inbound[src] for src in sorted(inbound)]

    def alltoallv(self, rank: int,
                  payloads: Dict[int, Any],
                  sizes: Dict[int, int]):
        """Process generator: personalized all-to-all exchange.

        ``payloads[dst]`` is delivered to ``dst``; ``sizes[dst]`` is its
        byte count for timing.  Returns ``{src: payload}`` received by this
        rank.  Self-messages are free (a local copy the caller accounts
        for if it matters).
        """
        node_of = self.node_of
        messages = [(node_of(dst), nbytes) for dst, nbytes in sizes.items()
                    if dst != rank and nbytes != 0]
        if messages:
            yield self.machine.fabric.send_all(node_of(rank), messages)
        inbound = yield from self._exchanger.exchange(rank, payloads)
        return inbound

    def reduce_scalar(self, rank: int, value: float, op=sum, root: int = 0):
        """Process generator: reduce scalars to the root (tree timing).

        Returns the reduced value at root, None elsewhere.
        """
        p = self.machine.fabric.params
        depth = max(1, math.ceil(math.log2(max(2, self.size))))
        yield depth * (p.latency_s + p.msg_overhead_s)
        inbound = yield from self._exchanger.exchange(rank, {root: value})
        if rank != root:
            return None
        return op(inbound[src] for src in sorted(inbound))

    def allreduce_scalar(self, rank: int, value: float, op=sum):
        """Process generator: reduce-to-all for scalars."""
        p = self.machine.fabric.params
        depth = max(1, math.ceil(math.log2(max(2, self.size))))
        yield 2 * depth * (p.latency_s + p.msg_overhead_s)
        outgoing = {dst: value for dst in range(self.size)}
        inbound = yield from self._exchanger.exchange(rank, outgoing)
        return op(inbound[src] for src in sorted(inbound))

    def spawn(self, program, *args, **kwargs):
        """Start one process per rank running ``program(rank, comm, ...)``.

        ``program`` must be a generator function whose first two arguments
        are the rank and this communicator.  Returns the list of processes.
        """
        return [
            self.env.process(program(rank, self, *args, **kwargs),
                             name=f"rank{rank}")
            for rank in range(self.size)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator size={self.size}>"
