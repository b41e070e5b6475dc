"""Concurrency tests for the shared result store.

The serving engine and the runner share one :class:`ResultStore`
instance across threads, so the store must never serve a torn payload
(atomic ``os.replace`` writes + checksum validation), must survive
``gc``/``clear`` racing active readers, and must not lose stats
counters to interleaved updates.
"""

import json
import threading

import pytest

from repro.runner.store import ResultStore, payload_checksum

N_THREADS = 8
N_ROUNDS = 60


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def _hammer(n_threads, worker):
    """Run ``worker(thread_index)`` on n threads; re-raise any error."""
    errors = []

    def wrapped(i):
        try:
            worker(i)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


KEY = "ab" + "0" * 62


class TestNoTornReads:
    def test_same_key_writers_and_readers(self, store):
        """Readers racing writers of one key only ever see a payload
        some writer stored whole — the checksum path rejects tears."""
        valid = [{"writer": w, "round": r, "blob": "x" * 256}
                 for w in range(N_THREADS) for r in range(N_ROUNDS)]
        valid_set = {json.dumps(p, sort_keys=True) for p in valid}

        def worker(i):
            for r in range(N_ROUNDS):
                store.put(KEY, {"writer": i, "round": r,
                                "blob": "x" * 256})
                entry = store.get(KEY)
                if entry is not None:
                    seen = json.dumps(entry["payload"], sort_keys=True)
                    assert seen in valid_set, "torn payload served"
                    assert entry["sha256"] == payload_checksum(
                        entry["payload"])

        _hammer(N_THREADS, worker)
        assert store.stats.corrupt == 0

    def test_distinct_keys_fully_parallel(self, store):
        def worker(i):
            for r in range(N_ROUNDS):
                key = f"{i:02d}{r:02d}" + "0" * 60
                payload = {"i": i, "r": r}
                store.put(key, payload)
                assert store.get(key)["payload"] == payload

        _hammer(N_THREADS, worker)
        assert store.count() == N_THREADS * N_ROUNDS
        assert store.stats.hits == N_THREADS * N_ROUNDS


class TestGcWithActiveReaders:
    def test_clear_races_get_and_put(self, store):
        """gc while readers/writers are live: losers record a miss and
        recompute; nobody crashes and nothing is ever torn."""
        stop = threading.Event()

        def churn(i):
            r = 0
            while not stop.is_set():
                key = f"{i:02d}" + f"{r % 16:02d}" + "1" * 60
                store.put(key, {"i": i, "r": r})
                entry = store.get(key)
                if entry is not None:
                    assert entry["payload"]["i"] == i
                r += 1

        workers = [threading.Thread(target=churn, args=(i,))
                   for i in range(4)]
        for t in workers:
            t.start()
        try:
            for _ in range(40):
                store.clear()
        finally:
            stop.set()
            for t in workers:
                t.join()
        assert store.stats.corrupt == 0

    def test_evict_races_readers(self, store):
        for i in range(32):
            store.put(f"{i:02d}" + "2" * 62, {"i": i})
        stop = threading.Event()

        def read(i):
            while not stop.is_set():
                entry = store.get(f"{i % 32:02d}" + "2" * 62)
                if entry is not None:
                    assert entry["payload"] == {"i": i % 32}

        readers = [threading.Thread(target=read, args=(i,))
                   for i in range(4)]
        for t in readers:
            t.start()
        try:
            store.evict(max_bytes=0)
        finally:
            stop.set()
            for t in readers:
                t.join()
        assert store.count() == 0


class TestStatsUnderConcurrency:
    def test_counters_are_not_lost(self, store):
        """hits+misses == lookups exactly, even with N threads racing;
        a non-atomic read-modify-write would drop increments."""
        store.put(KEY, {"v": 1})

        def worker(i):
            for r in range(N_ROUNDS):
                store.get(KEY)                       # hit
                store.get(f"ff{i:02d}{r:02d}" + "0" * 58)  # miss

        _hammer(N_THREADS, worker)
        expected = N_THREADS * N_ROUNDS
        assert store.stats.hits == expected
        assert store.stats.misses == expected
        assert store.stats.lookups == 2 * expected

    def test_store_counter_under_parallel_puts(self, store):
        def worker(i):
            for r in range(N_ROUNDS):
                store.put(f"{i:02d}{r:02d}" + "3" * 60, {"i": i})

        _hammer(N_THREADS, worker)
        assert store.stats.stores == N_THREADS * N_ROUNDS
