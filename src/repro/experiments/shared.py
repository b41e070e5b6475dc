"""Run-scoped sharing of whole simulator runs between experiment points.

Several artifacts are different views of the same machine run: Figure 7
is the bandwidth view of Figure 6's BTIO runs, Figure 3 the I/O time of
Figure 2's unoptimized SCF runs, and Table 3 compares against Table 2's
run.  A helper decorated with :func:`shared` simulates a given set of
arguments once per :func:`shared_runs` scope; later identical calls in
the same scope get the first call's return value back.

Rules:

* The key is the helper, its (hashable, primitive) positional arguments
  and :func:`repro.sim.core.default_fast`, so a reference-kernel run is
  never served a fast-kernel result.
* Helpers return small immutable summaries, never an ``AppResult`` or
  its trace, so a scope holds little memory and callers cannot alias
  each other's state.
* Outside a scope every call simulates.  The runner opens one scope per
  :meth:`~repro.runner.executor.PoolExecutor.run` call (per worker in a
  pool) and one per ``submit``; the direct path
  (``registry.run_experiment``) and ``repro diff`` never open one, so
  they re-simulate every run.
* Scopes are per thread (an executor may run inline jobs on its own
  thread) and nothing outlives its scope.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from repro.sim.core import default_fast

__all__ = ["shared", "shared_runs"]

T = TypeVar("T")

_local = threading.local()


@contextmanager
def shared_runs() -> Iterator[None]:
    """Within the block, each distinct :func:`shared` call simulates once."""
    outer = getattr(_local, "memo", None)
    _local.memo = {}
    try:
        yield
    finally:
        _local.memo = outer


def shared(fn: Callable[..., T]) -> Callable[..., T]:
    """Memoise ``fn(*args)`` inside a :func:`shared_runs` scope."""
    @functools.wraps(fn)
    def wrapper(*args):
        memo = getattr(_local, "memo", None)
        if memo is None:
            return fn(*args)
        key = (fn, args, default_fast())
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]
    return wrapper
