"""Discrete-event simulation engine.

A small, dependency-free generator-based engine in the SimPy style,
holding what the simulator uses: :class:`Environment` owns the clock and
event heap; :class:`Process` wraps a generator that yields
:class:`Event` objects (or bare-number sleeps) to wait on; :func:`fan_out`
and :class:`AllOf` join several; resources model queueing points (disk
arms, links, buffers).

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run(proc)
3.5
"""

from repro.sim.core import Environment, default_fast, set_default_fast
from repro.sim.events import Event, Timeout, AllOf, PENDING
from repro.sim.process import Process, FanOut, fan_out
from repro.sim.resources import Resource, Request, Store, Container
from repro.sim.exceptions import SimulationError, EmptySchedule

__all__ = [
    "Environment",
    "default_fast",
    "set_default_fast",
    "Event",
    "FanOut",
    "fan_out",
    "Timeout",
    "AllOf",
    "PENDING",
    "Process",
    "Resource",
    "Request",
    "Store",
    "Container",
    "SimulationError",
    "EmptySchedule",
]
