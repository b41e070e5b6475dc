"""Statistics, payload digests, spans and process helpers for the benchmark.

Everything here is independent of the ``repro`` package so the benchmark's
own rules (percentiles, digests, span bookkeeping) cannot drift with the
code under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Samples a reported percentile must leave beyond it.
MIN_BEYOND = 10

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for caches, temp files and traces; always inside the
#: checkout, never the user's ``.repro-cache/``.
WORK_DIR = ROOT / ".perfbench-work"


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` quantile has ten samples beyond."""
    n = MIN_BEYOND
    while n - _rank(q, n) < MIN_BEYOND:
        n += 1
    return n


def _rank(q: float, n: int) -> int:
    # Nearest-rank (1-based); the epsilon keeps 0.99 * 1000 at rank 990.
    return max(1, math.ceil(q * n - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile, refusing a tail that is too thin.

    At least :data:`MIN_BEYOND` samples must lie beyond the reported
    rank, so a p99 needs 1000 samples and a median 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} is outside (0, 1)")
    n = len(samples)
    rank = _rank(q, n)
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} needs {min_samples(q)} samples, got {n}")
    return sorted(samples)[rank - 1]


def digest(payload: object) -> str:
    """SHA-256 of a payload's canonical JSON (key order ignored)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Result fields a well-formed point payload carries, per family.
RESULT_FIELDS: Dict[str, Sequence[str]] = {
    "fig2": ("exec_time",), "fig3": ("io_time",), "fig4": ("exec_time",),
    "fig5": ("io_time", "exec_time"), "fig6": ("io_time", "exec_time"),
}


def well_formed(exp_id: str, config: dict, payload: object) -> bool:
    """A seed point's payload echoes its config and has finite results."""
    if not isinstance(payload, dict):
        return False
    if any(payload.get(k) != v for k, v in config.items()):
        return False
    return all(isinstance(payload.get(f), float)
               and math.isfinite(payload[f]) and payload[f] > 0
               for f in RESULT_FIELDS[exp_id])


def load_digests() -> Dict[str, str]:
    """Recorded payload digests of every fixed figure point, by job id."""
    with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env(tmp: Path, cache_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a child process: checkout sources, private temp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_CACHE_SALT", None)
    env["REPRO_CACHE_DIR"] = str(cache_dir if cache_dir is not None
                                 else tmp / "unused-cache")
    return env


class Tracer:
    """In-memory spans and counters, written out once at the end.

    A span is ``(id, name, start, end, parent, key)`` with times from
    :func:`time.perf_counter`, which on Linux is the system-wide
    monotonic clock, so spans from the benchmark, the server and its
    pool workers share one time base.  ``key`` ties the spans of one
    request or job together (the runner's job key).
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[tuple] = []

    @contextmanager
    def span(self, name: str, key: Optional[str] = None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent, key))

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- patching public callables --------------------------------------

    def patch(self, owner: object, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until restore."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def timed(self, owner: object, attr: str, name: str, key_of=None):
        """Record a span around every call of ``owner.attr``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                key = key_of(*args, **kwargs) if key_of else None
                with self.span(name, key):
                    return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        self.patch(owner, attr, make)

    def counted(self, owner: object, attrs: Iterable[str],
                counter: str) -> None:
        """Count every call of each ``owner.attr`` into ``counter``."""
        for attr in attrs:
            def make(fn):
                def wrapper(*args, **kwargs):
                    self.add(counter)
                    return fn(*args, **kwargs)
                wrapper.__wrapped__ = fn
                return wrapper
            self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write spans and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.counters,
                       "spans": [list(s) for s in self.spans]}, fh)
