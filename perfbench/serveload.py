"""The ``serve-mix`` workload: ``repro serve --jobs 2`` under open-loop load.

The server runs as a subprocess on an ephemeral port with a fresh cache
directory.  Set-up warms a hot set (the quick points of fig1, fig4 and
fig_faults).  Then two client threads replay a seed-drawn open-loop
schedule of Poisson arrivals:

* ~90% Zipf-popular hot-set reads, which must be cache hits;
* ~8% fresh fig4 configs, which miss and fork a pool worker;
* ~2% duplicate pairs of a fresh config sent together, which coalesce.

Each request is timed from when it was due, so a stalled server charges
its stall to every request queued behind it.  Short closed-loop bursts of
hits on both threads alternate with the open loop and give the hit
capacity.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from measure import BENCH_DIR, child_env, proc_peak_rss_mb, well_formed

HOT_EXPERIMENTS = ("fig1", "fig4", "fig_faults")
#: Open-loop arrival rate (requests/s) the seed commit sustains on two
#: cores with no growing backlog.
RATE_RPS = 80.0
STOP_TIMEOUT_S = 20.0
HIT_SHARE, MISS_SHARE = 0.90, 0.08       # the rest are duplicate pairs
ZIPF_S = 1.1
CLIENT_THREADS = 2
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class ServerDied(RuntimeError):
    """The server exited or never came up; carries its stderr tail."""


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset, kind and the point it names."""

    due: float
    kind: str                  # hit | miss | dup
    exp_id: str
    config: dict
    hot_id: Optional[str] = None   # job id of a hot-set point
    pair: Optional[int] = None     # shared by both halves of a dup pair


@dataclass
class Sample:
    """What happened to one request; times are perf_counter readings."""

    request: Request
    due: float
    sent: float
    done: float
    status: int = 0
    body: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


# -- traffic ----------------------------------------------------------------

def fresh_fig4_configs(rng: random.Random, n: int,
                       taken: Sequence[dict]) -> List[dict]:
    """``n`` distinct fig4 configs that no hot-set point uses."""
    seen = {json.dumps(c, sort_keys=True) for c in taken}
    out: List[dict] = []
    while len(out) < n:
        config = {"measured_read_iters": 1,
                  "n_io": rng.choice([12, 16, 64]),
                  "p": rng.choice([4, 8, 16, 32]),
                  "cached_fraction": round(rng.uniform(0.05, 0.3), 3)}
        text = json.dumps(config, sort_keys=True)
        if text not in seen:
            seen.add(text)
            out.append(config)
    return out


def schedule(seed: int, hot: Sequence[tuple],
             duration_s: float) -> List[Request]:
    """The open-loop schedule a seed gives: due times and targets.

    ``hot`` holds ``(job_id, exp_id, config)`` of the warm hot set.
    """
    rng = random.Random(f"serve-mix:{seed}")
    order = list(hot)
    rng.shuffle(order)                     # which points are popular
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(order))]
    arrivals: List[tuple] = []
    t = rng.expovariate(RATE_RPS)
    while t < duration_s:
        u = rng.random()
        kind = "hit" if u < HIT_SHARE else \
            "miss" if u < HIT_SHARE + MISS_SHARE else "dup"
        arrivals.append((t, kind, rng.choices(order, weights)[0]))
        t += rng.expovariate(RATE_RPS)
    fresh = iter(fresh_fig4_configs(
        rng, sum(kind != "hit" for _, kind, _ in arrivals),
        [c for _, exp_id, c in hot if exp_id == "fig4"]))
    out: List[Request] = []
    for i, (due, kind, (job_id, exp_id, config)) in enumerate(arrivals):
        if kind == "hit":
            out.append(Request(due, kind, exp_id, config, hot_id=job_id))
        elif kind == "miss":
            out.append(Request(due, kind, "fig4", next(fresh)))
        else:
            config = next(fresh)
            out += [Request(due, kind, "fig4", config, pair=i)] * 2
    return out


def run_schedule(requests: Sequence[Request],
                 send: Callable[[Request], tuple],
                 threads: int = CLIENT_THREADS) -> List[Sample]:
    """Replay ``requests`` on ``threads`` clients, each in due order.

    ``send`` returns ``(status, body)``.  A client that falls behind
    sends at once, so its lateness and the stall behind it both count.
    """
    clock = time.perf_counter
    start = clock() + 0.05
    samples: List[Optional[Sample]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            due = start + requests[i].due
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                status, body = send(requests[i])
                error = None
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, body, error = 0, None, repr(exc)
            samples[i] = Sample(requests[i], due, sent, clock(), status,
                                body, error)

    _run_threads(client, threads)
    return samples


def run_closed_loop(pick: Callable[[random.Random], Request],
                    send: Callable[[Request], tuple], seed: int,
                    duration_s: float) -> List[Sample]:
    """Each client sends its next request as soon as the last returns."""
    samples: List[Sample] = []
    lock = threading.Lock()
    stop_at = time.perf_counter() + duration_s

    def client(rng: random.Random) -> None:
        mine: List[Sample] = []
        while time.perf_counter() < stop_at:
            request = pick(rng)
            sent = time.perf_counter()
            try:
                status, body = send(request)
                error = None
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, body, error = 0, None, repr(exc)
            mine.append(Sample(request, sent, sent, time.perf_counter(),
                               status, body, error))
        with lock:
            samples.extend(mine)

    rngs = [random.Random(f"closed:{seed}:{i}")
            for i in range(CLIENT_THREADS)]
    _run_threads(lambda: client(rngs.pop()), CLIENT_THREADS)
    return samples


def _run_threads(target: Callable[[], None], n: int) -> None:
    workers = [threading.Thread(target=target, daemon=True) for _ in range(n)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


# -- the server subprocess --------------------------------------------------

class Server:
    """``repro serve --jobs 2`` on an ephemeral port, always cleaned up."""

    def __init__(self, cache_dir: Path, tmp: Path,
                 trace_dir: Optional[Path] = None):
        env = child_env(tmp, cache_dir)
        args = ["--jobs", "2", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   *args]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        self.tail: collections.deque = collections.deque(maxlen=40)
        self.port: Optional[int] = None
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr,
                                        daemon=True)
        self._reader.start()

    def _read_stderr(self) -> None:
        for raw in self.proc.stderr:
            line = raw.decode("utf-8", "replace").rstrip()
            self.tail.append(line)
            if self.port is None and "listening on http://" in line:
                address = line.split("listening on http://", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1].rstrip("/"))
                self._listening.set()
        self._listening.set()            # EOF: the server is gone

    def died(self, why: str) -> ServerDied:
        self._reader.join(timeout=2)
        return ServerDied(f"{why}; server stderr tail:\n"
                          + "\n".join(self.tail))

    def check_alive(self) -> None:
        if self.proc.poll() is not None:
            raise self.died(f"server exited with code {self.proc.returncode}")

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers; fail fast if the server dies."""
        if not self._listening.wait(BOOT_TIMEOUT_S) or self.port is None:
            self.stop()
            raise self.died("server never printed its listening line")
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            self.check_alive()
            try:
                status, body = self.request("GET", "/healthz")
                if status == 200 and body.get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            if time.monotonic() > deadline:
                raise self.died("/healthz never answered")
            time.sleep(0.02)

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> tuple:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if data is None else \
                {"Content-Type": "application/json"}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def post_point(self, request: Request) -> tuple:
        return self.request("POST", "/v1/points", {
            "exp_id": request.exp_id, "kind": "point",
            "config": request.config})

    def peak_rss_mb(self) -> float:
        self.check_alive()
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the whole process group.

        The pool workers share the server's process group, so nothing it
        forked survives to load the next run.
        """
        pgid = self.proc.pid            # start_new_session: pgid == pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.02)
        self._reader.join(timeout=5)
        self.proc.stderr.close()


# -- correctness ------------------------------------------------------------

def check_sample(s: Sample, warm_payloads: Dict[str, dict]) -> Optional[str]:
    """Why a served response is wrong, or None."""
    r = s.request
    if s.error is not None or s.status != 200:
        return f"{r.kind} {r.exp_id}: status {s.status} {s.error or s.body}"
    source = s.body.get("source")
    if r.kind == "hit":
        if source != "cache":
            return f"hot point {r.hot_id} served from {source!r}"
        if s.body.get("payload") != warm_payloads[r.hot_id]:
            return f"hot point {r.hot_id} differs from its warm payload"
        return None
    if r.kind == "miss" and source != "computed":
        return f"fresh config served from {source!r}"
    if not well_formed("fig4", r.config, s.body.get("payload")):
        return f"fresh config {r.config} got a malformed payload"
    return None


def check_pairs(samples: Sequence[Sample]) -> List[str]:
    """Both halves of every duplicate pair must carry the same payload."""
    halves: Dict[int, List[Sample]] = collections.defaultdict(list)
    for s in samples:
        if s.request.pair is not None and s.body is not None:
            halves[s.request.pair].append(s)
    return [f"duplicate pair {pair} got different payloads"
            for pair, (a, b) in ((p, h) for p, h in halves.items()
                                 if len(h) == 2)
            if a.body.get("payload") != b.body.get("payload")]
