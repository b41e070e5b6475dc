"""Serving metrics: counters, gauges, latency histograms.

A tiny, thread-safe, stdlib-only metrics registry in the Prometheus
data model.  The serving layer updates it from both the HTTP handler
threads and the executor threads that finish engine jobs, so every
mutation happens under the registry lock; reads
(:meth:`MetricsRegistry.to_dict`,
:meth:`MetricsRegistry.render_prometheus`) take a consistent snapshot
under the same lock.

Families support labels the way Prometheus clients do::

    requests = registry.counter("serve_requests_total", "HTTP requests")
    requests.labels(route="/v1/points", code="200").inc()

and render as either JSON (``GET /metrics?format=json``) or the
Prometheus text exposition format (``GET /metrics``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: Default latency buckets (seconds): sub-millisecond cache hits up to
#: multi-minute full-scale simulations.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: Tuple[Tuple[str, str], ...],
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


class _Family:
    """Shared machinery: a named metric with zero or more label children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 lock: threading.Lock):
        self.name = name
        self.help_text = help_text
        self._lock = lock
        self._children: Dict[Tuple[Tuple[str, str], ...], "_Family"] = {}

    def labels(self, **labels: str) -> "_Family":
        """Child metric for one label combination (created on demand)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _make_child(self) -> "_Family":
        return type(self)(self.name, self.help_text, self._lock)

    def _series(self) -> List[Tuple[Tuple[Tuple[str, str], ...], "_Family"]]:
        """(label-key, metric) pairs: the bare metric plus every child."""
        out: List[Tuple[Tuple[Tuple[str, str], ...], "_Family"]] = []
        if self._touched():
            out.append(((), self))
        out.extend(sorted(self._children.items()))
        return out

    def _touched(self) -> bool:
        raise NotImplementedError


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        super().__init__(name, help_text, lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _touched(self) -> bool:
        return self._value != 0 or not self._children


class Gauge(_Family):
    """A value that can go up and down (in-flight requests, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        super().__init__(name, help_text, lock)
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the value from ``fn`` at every read instead.

        ``fn`` runs under the registry lock, so it must not block on a
        lock held by code that updates metrics.
        """
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value if self._fn is None else float(self._fn())

    def _touched(self) -> bool:
        return self._value != 0 or not self._children


class Histogram(_Family):
    """Cumulative-bucket latency histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help_text, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help_text, self._lock,
                         self.buckets)

    def observe(self, value: float) -> None:
        with self._lock:
            self._counts[bisect_left(self.buckets, value)] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> Dict[str, object]:
        """Cumulative bucket counts plus sum/count, as one dict."""
        with self._lock:
            cumulative: Dict[str, int] = {}
            running = 0
            for le, n in zip(self.buckets, self._counts):
                running += n
                cumulative[f"{le:g}"] = running
            cumulative["+Inf"] = running + self._counts[-1]
            return {"buckets": cumulative, "sum": self._sum,
                    "count": self._count}

    def _touched(self) -> bool:
        return self._count != 0 or not self._children


class MetricsRegistry:
    """Named metric families, renderable as JSON or Prometheus text."""

    def __init__(self):
        # Re-entrant: to_dict/render hold it across child .value reads.
        self._lock = threading.RLock()
        self._metrics: "Dict[str, _Family]" = {}
        self._order: List[str] = []

    def _register(self, metric: _Family) -> _Family:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}")
            return existing
        self._metrics[metric.name] = metric
        self._order.append(metric.name)
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter(name, help_text, self._lock))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge(name, help_text, self._lock))

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(
            Histogram(name, help_text, self._lock, buckets))

    def get(self, name: str) -> Optional[_Family]:
        return self._metrics.get(name)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot: {name: value | {labels: value} | histogram}."""
        with self._lock:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for name in self._order:
            metric = self._metrics[name]
            series = metric._series()
            if isinstance(metric, Histogram):
                rendered = {_render_labels(key) or "_": m.snapshot()
                            for key, m in series}
            else:
                rendered = {_render_labels(key) or "_": m.value
                            for key, m in series}
            # Unlabelled metrics flatten to their single value.
            if list(rendered) == ["_"]:
                out[name] = rendered["_"]
            else:
                out[name] = rendered
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            return self._render_prometheus_locked()

    def _render_prometheus_locked(self) -> str:
        lines: List[str] = []
        for name in self._order:
            metric = self._metrics[name]
            if metric.help_text:
                lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, m in metric._series():
                if isinstance(m, Histogram):
                    snap = m.snapshot()
                    for le, n in snap["buckets"].items():
                        lines.append(
                            f"{name}_bucket"
                            f"{_render_labels(key, [('le', le)])} {n}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} {snap['sum']:g}")
                    lines.append(
                        f"{name}_count{_render_labels(key)} "
                        f"{snap['count']}")
                else:
                    lines.append(
                        f"{name}{_render_labels(key)} {m.value:g}")
        return "\n".join(lines) + "\n"
