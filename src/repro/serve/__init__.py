"""Experiment-serving front-end.

``repro serve`` turns the batch runner into an always-on query service
(the monitoring-interface discipline of Kunkel et al.): a threaded
HTTP/JSON API over the experiment registry, backed by the
content-addressed :class:`~repro.runner.store.ResultStore` and the
crash-isolated :class:`~repro.runner.executor.PoolExecutor`.

- :mod:`repro.serve.engine`    -- cache-first, single-flight execution
- :mod:`repro.serve.admission` -- bounded in-flight/queue, 429 shedding
- :mod:`repro.serve.metrics`   -- counters, gauges, latency histograms
- :mod:`repro.serve.server`    -- the HTTP routes and lifecycle
- :mod:`repro.serve.warm`      -- cache pre-warming (CLI and startup)
- :mod:`repro.serve.client`    -- stdlib urllib client

See ``docs/serving.md`` for the API, the coalescing/admission
semantics, and the metrics reference.  The client is imported on first
use of :class:`ServeClient` or :class:`ServeHTTPError`, so the server
process never loads ``urllib.request`` and ``http.client``.
"""

from repro.serve.admission import (AdmissionController, DrainingError,
                                   RejectedError)
from repro.serve.engine import (EngineClosed, EngineSaturated, PointOutcome,
                                ServeEngine, Ticket)
from repro.serve.metrics import (Counter, Gauge, Histogram, MetricsRegistry)
from repro.serve.server import ServeApp, ServerThread
from repro.serve.warm import WarmReport, warm

__all__ = [
    "AdmissionController",
    "DrainingError",
    "RejectedError",
    "ServeClient",
    "ServeHTTPError",
    "EngineClosed",
    "EngineSaturated",
    "PointOutcome",
    "ServeEngine",
    "Ticket",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ServeApp",
    "ServerThread",
    "WarmReport",
    "warm",
]


def __getattr__(name: str):
    if name in ("ServeClient", "ServeHTTPError"):
        from repro.serve import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
