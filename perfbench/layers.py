"""Per-layer instrumentation for traced runs.

The probe wraps public callables of each ``repro`` layer from outside and
reads the counters the layers already keep (``Environment._eid``, disk,
I/O-node, fabric and stripe-cache stats).  It changes nothing the code
computes; it only costs host time, which the traced run reports as
``bench.trace_overhead_ratio``.

Layers are the ``repro`` subpackages named in :data:`LAYERS`.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from measure import Tracer

LAYERS = ("sim", "machine", "pfs", "iolib", "mp", "apps", "trace",
          "experiments", "runner", "serve")

#: Communicator methods that are collectives (``send`` is counted apart).
_COLLECTIVES = ("barrier", "bcast", "gather", "allgather", "alltoallv",
                "reduce_scalar", "allreduce_scalar")


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the layers."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i + 1 < len(parts):
            name = parts[i + 1]
            return name if name in LAYERS else None
    return None


def layer_times(profile: cProfile.Profile) -> Dict[str, float]:
    """Self host seconds per layer from a profile.

    Built-in functions (heap operations, dict methods) have no file; their
    time is charged to the layer of each caller, in the caller's share.
    """
    out: Dict[str, float] = defaultdict(float)
    stats = pstats.Stats(profile).stats
    for func, (_, _, tottime, _, callers) in stats.items():
        if func[0] == "~":
            for caller, caller_stats in callers.items():
                out[layer_of(caller[0]) or "other"] += caller_stats[2]
        else:
            out[layer_of(func[0]) or "other"] += tottime
    return dict(out)


class LayerProbe:
    """Installs the wrappers and harvests counters per job.

    In a pool worker forked from a traced process, each job is profiled
    on its own and its record is appended to ``worker_dir`` as soon as
    the job ends, because workers exit without running exit handlers.
    """

    def __init__(self, tracer: Tracer, worker_dir: Optional[Path] = None):
        self.tracer = tracer
        self.worker_dir = worker_dir
        self._pid = os.getpid()
        self._envs: List[object] = []
        self._machines: List[object] = []
        self._caches: List[object] = []

    def install(self) -> "LayerProbe":
        from repro.iolib.passion.twophase import TwoPhaseIO
        from repro.machine.machine import Machine
        from repro.mp.comm import Communicator
        from repro.pfs.cache import StripeCache
        from repro.runner import executor, service
        from repro.runner.store import ResultStore
        from repro.serve.engine import ServeEngine
        from repro.sim.core import Environment
        from repro.trace.collector import TraceCollector

        t = self.tracer
        self._register(Environment, self._envs)
        self._register(Machine, self._machines)
        self._register(StripeCache, self._caches)
        t.timed(Environment, "run", "sim.run")
        t.counted(Communicator, ["send"], "mp.sends")
        t.counted(Communicator, _COLLECTIVES, "mp.collectives")
        t.counted(TwoPhaseIO, ["collective_read", "collective_write"],
                  "iolib.twophase.rounds")
        t.counted(TraceCollector, ["record"], "trace.records")
        t.timed(service, "assemble", "experiments.assemble")
        t.timed(executor.PoolExecutor, "run", "runner.executor.run")
        t.timed(ResultStore, "get", "runner.store.get",
                key_of=lambda store, key: key)
        t.timed(ResultStore, "put", "runner.store.put",
                key_of=lambda store, key, *a, **k: key)
        t.timed(ServeEngine, "submit", "serve.submit",
                key_of=lambda engine, job: job.key)
        t.patch(executor, "execute_job", self._wrap_job)
        return self

    def _register(self, cls: type, bucket: List[object]) -> None:
        def make(init):
            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                bucket.append(obj)
            return __init__
        self.tracer.patch(cls, "__init__", make)

    def _wrap_job(self, execute_job):
        from repro.runner.keys import job_key

        def wrapper(exp_id, kind, config):
            in_worker = os.getpid() != self._pid
            if in_worker and self.worker_dir is None:
                return execute_job(exp_id, kind, config)
            if in_worker:
                self._adopt_fork()
            profile = cProfile.Profile() if in_worker else None
            with self.tracer.span("runner.job", job_key(exp_id, kind, config)):
                if profile is None:
                    payload = execute_job(exp_id, kind, config)
                else:
                    payload = profile.runcall(execute_job, exp_id, kind,
                                              config)
            self.harvest()
            if profile is not None:
                self._flush_worker_job(profile)
            return payload
        return wrapper

    def _adopt_fork(self) -> None:
        # A forked worker inherits the parent's spans and a lock some
        # other parent thread may have held at fork time: start clean.
        self._pid = -1   # stays "in worker" for every later job
        self.tracer.spans.clear()
        self.tracer.counters.clear()
        self.tracer._lock = threading.Lock()

    def _flush_worker_job(self, profile: cProfile.Profile) -> None:
        record = {"pid": os.getpid(), "counters": self.tracer.counters,
                  "spans": [list(s) for s in self.tracer.spans],
                  "layer_s": layer_times(profile)}
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.tracer.spans.clear()
        self.tracer.counters.clear()

    def harvest(self) -> None:
        """Fold the counters of every finished simulation, then drop it."""
        add = self.tracer.add
        for env in self._envs:
            add("sim.events", env._eid)
        for machine in self._machines:
            for node in machine.io_nodes:
                add("machine.ionode.residence_sim_s", node.stats.busy_time)
                for disk in node.disks:
                    add("machine.disk.requests", disk.stats.requests)
                    add("machine.disk.seeks", disk.stats.seeks)
                    add("machine.disk.sequential", disk.stats.sequential_hits)
                    add("machine.disk.busy_sim_s", disk.stats.busy_time)
            add("machine.fabric.messages", machine.fabric.stats.messages)
            add("machine.fabric.bytes", machine.fabric.stats.bytes_moved)
        for cache in self._caches:
            add("pfs.cache.hits", cache.hits)
            add("pfs.cache.misses", cache.misses)
        self._envs.clear()
        self._machines.clear()
        self._caches.clear()


def read_worker_records(worker_dir: Path) -> List[dict]:
    records: List[dict] = []
    for path in sorted(worker_dir.glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def simulation_metrics(counters: Dict[str, float], spans: List[list],
                       layer_s: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of the simulation, runner and host-time layers.

    ``spans`` are ``[id, name, start, end, parent, key]`` lists from one
    or more processes; ``layer_s`` is self host time per layer.
    """
    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in spans if s[1] == name)

    def durations(name: str) -> List[float]:
        return [s[3] - s[2] for s in spans if s[1] == name]

    c = lambda name: float(counters.get(name, 0))  # noqa: E731
    events = c("sim.events")
    run_s = total("sim.run")
    requests = c("machine.disk.requests")
    lookups = c("pfs.cache.hits") + c("pfs.cache.misses")
    jobs = durations("runner.job")
    host_total = sum(layer_s.values())
    metrics = {
        "sim.events": events,
        "sim.run_s": run_s,
        "sim.us_per_event": run_s / events * 1e6 if events else 0.0,
        "machine.disk.requests": requests,
        "machine.disk.seeks": c("machine.disk.seeks"),
        "machine.disk.seq_ratio":
            c("machine.disk.sequential") / requests if requests else 0.0,
        "machine.disk.busy_sim_s": c("machine.disk.busy_sim_s"),
        "machine.ionode.queue_sim_s":
            c("machine.ionode.residence_sim_s") - c("machine.disk.busy_sim_s"),
        "machine.fabric.messages": c("machine.fabric.messages"),
        "machine.fabric.bytes": c("machine.fabric.bytes"),
        "pfs.cache.hit_ratio": c("pfs.cache.hits") / lookups if lookups
        else 0.0,
        "pfs.cache.lookups": lookups,
        "mp.sends": c("mp.sends"),
        "mp.collectives": c("mp.collectives"),
        "iolib.twophase.rounds": c("iolib.twophase.rounds"),
        "trace.records": c("trace.records"),
        "experiments.assemble_s": total("experiments.assemble"),
        "runner.store.get_us":
            _median_or_zero(durations("runner.store.get")) * 1e6,
        "runner.store.put_us":
            _median_or_zero(durations("runner.store.put")) * 1e6,
        "runner.executor.compute_ms": _median_or_zero(jobs) * 1e3,
    }
    for layer in LAYERS:
        metrics[f"{layer}.host_share"] = (
            layer_s.get(layer, 0.0) / host_total if host_total else 0.0)
    return metrics
