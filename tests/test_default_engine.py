"""The engine an entry point picks when the caller passed none.

``repro.run`` and a ``Catalog.pair`` query host both parties in this
interpreter, so they default to the process-wide thread engine over the
CPUs the process may run on; ``repro.serve`` / ``repro.connect`` keep
the serial default (the peer's process is the other core). The engine
itself keeps batches too small to pay serial, so only tests that lower
the crossover (``always_pays``) ever share a batch - and only where GMP
computes: the builtin ``pow`` holds the GIL.
"""

from __future__ import annotations

import os
import queue
import signal
import threading

import pytest

import repro
from repro import api
from repro.crypto import engine as engine_module, kernel
from repro.crypto.engine import SerialEngine, available_cpus, shared_engine

BITS = 128
GMP = kernel.describe().startswith("gmp")


def _tables(n=40):
    half = n // 2
    v_r = [f"r{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s


def _default():
    return shared_engine(available_cpus())


@pytest.fixture(autouse=True)
def fresh_shared_engines():
    engine_module.shutdown_shared_engines()
    yield
    engine_module.shutdown_shared_engines()


class CountingEngine(SerialEngine):
    def __init__(self):
        self.batches = 0

    def pow_many(self, xs, exponent, modulus):
        self.batches += 1
        return super().pow_many(xs, exponent, modulus)


# ----------------------------------------------------------------------
# Which entry points get the thread engine
# ----------------------------------------------------------------------
class TestTheRule:
    def test_run_goes_through_the_shared_pool(self, two_cpus, always_pays):
        v_r, v_s = _tables()
        result = repro.run("intersection", v_r, v_s, bits=BITS, seed=1)
        assert result.answer == set(v_r) & set(v_s)
        assert (_default().parallel_batches > 0) == GMP

    def test_small_run_never_starts_a_worker(self, two_cpus, monkeypatch):
        # The real crossover: 40 values at 128 bits do not pay.
        monkeypatch.setattr(engine_module, "_executor", None)
        v_r, v_s = _tables()
        result = repro.run("intersection", v_r, v_s, bits=BITS, seed=1)
        assert result.answer == set(v_r) & set(v_s)
        assert _default().serial_batches > 0
        assert _default().parallel_batches == 0

    def test_one_cpu_gets_the_serial_engine(self, monkeypatch, always_pays):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert type(api._both_parties_here(None)) is SerialEngine
        v_r, v_s = _tables()
        assert repro.run(
            "intersection", v_r, v_s, bits=BITS, seed=1
        ).answer == set(v_r) & set(v_s)
        assert all(type(e) is SerialEngine for e in engine_module._SHARED.values())

    def test_explicit_engine_wins(self, always_pays):
        v_r, v_s = _tables()
        mine = CountingEngine()
        repro.run("intersection", v_r, v_s, bits=BITS, seed=1, engine=mine)
        assert mine.batches > 0
        r_engine, s_engine = CountingEngine(), CountingEngine()
        answer = repro.open_catalog(v_r, bits=BITS, seed=1, engine=r_engine).pair(
            repro.open_catalog(v_s, bits=BITS, seed=2, engine=s_engine)
        ).query("intersection").answer
        assert answer == set(v_r) & set(v_s)
        assert r_engine.batches > 0 and s_engine.batches > 0
        assert not engine_module._SHARED  # the default was never asked for

    def test_serve_and_connect_stay_serial(self, always_pays):
        v_r, v_s = _tables()
        ports: queue.Queue = queue.Queue()
        server = threading.Thread(
            target=repro.serve, args=("intersection", v_s),
            kwargs=dict(bits=BITS, seed=2, ready_callback=ports.put, timeout=10.0),
        )
        server.start()
        result = repro.connect(
            "intersection", v_r, port=ports.get(timeout=10), seed=1, timeout=10.0
        )
        server.join(timeout=10)
        assert result.answer == set(v_r) & set(v_s)
        assert not engine_module._SHARED

    def test_thread_that_cannot_start_degrades_to_serial(
        self, two_cpus, monkeypatch, always_pays
    ):
        class NoThreads:
            def submit(self, fn):
                raise RuntimeError("can't start new thread")

        monkeypatch.setattr(engine_module, "_executor", NoThreads)
        v_r, v_s = _tables()
        result = repro.run("intersection", v_r, v_s, bits=BITS, seed=1)
        assert result.answer == set(v_r) & set(v_s)
        assert (_default().thread_failures > 0) == GMP
        assert _default().parallel_batches == 0


# ----------------------------------------------------------------------
# Locally paired catalogs
# ----------------------------------------------------------------------
class TestPairedCatalogs:
    def open_pair(self, tmp_path, v_r, v_s, bits=BITS):
        return (
            repro.open_catalog(v_r, bits=bits, seed=1, cache_dir=tmp_path / "r"),
            repro.open_catalog(v_s, bits=bits, seed=2, cache_dir=tmp_path / "s"),
        )

    def test_full_query_and_warm_reopen_through_the_pool(
        self, two_cpus, tmp_path, always_pays
    ):
        v_r, v_s = _tables()
        cat_r, cat_s = self.open_pair(tmp_path, v_r, v_s)
        cold = cat_r.pair(cat_s).query("intersection")
        assert cold.answer == set(v_r) & set(v_s) and not cold.cache_hit
        pooled = _default().parallel_batches
        assert (pooled > 0) == GMP

        cat_r, cat_s = self.open_pair(tmp_path, v_r, v_s)
        warm = cat_r.pair(cat_s).query("intersection")
        assert warm.answer == cold.answer and warm.cache_hit
        assert (_default().parallel_batches > pooled) == GMP

    def test_delta_of_eight_values_never_creates_an_executor(
        self, two_cpus, tmp_path, monkeypatch
    ):
        # delta-churn's shape at the real crossover: 256 bits, four
        # deletes and four inserts per side.
        v_r, v_s = _tables()
        cat_r, cat_s = self.open_pair(tmp_path, v_r, v_s, bits=256)
        peer = cat_r.pair(cat_s)
        peer.query("intersection")
        monkeypatch.setattr(engine_module, "_executor", None)
        for i in range(4):
            cat_r.delete(f"r{i}").insert(f"new{i}")
            cat_s.delete(f"c{i}").insert(f"new{i}")
        delta = peer.query("intersection")
        assert delta.mode == "delta"
        assert delta.answer == set(cat_r.data) & set(cat_s.data)
        assert _default().parallel_batches == 0


# ----------------------------------------------------------------------
# Threads and forks around the default
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("two_cpus")
class TestThreadsAndForks:
    def test_run_beside_a_live_background_thread(self, always_pays):
        stop = threading.Event()
        ticks = []

        def tick():
            while not stop.wait(0.001):
                ticks.append(1)

        thread = threading.Thread(target=tick, daemon=True)
        thread.start()
        try:
            v_r, v_s = _tables()
            result = repro.run("intersection", v_r, v_s, bits=BITS, seed=1)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert result.answer == set(v_r) & set(v_s)
        assert (_default().parallel_batches > 0) == GMP and ticks

    def test_run_in_a_forked_child_of_a_process_that_used_the_pool(
        self, always_pays
    ):
        v_r, v_s = _tables()
        expected = set(v_r) & set(v_s)
        assert repro.run("intersection", v_r, v_s, bits=BITS, seed=1).answer == expected
        assert (engine_module._helpers is not None) or not GMP
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            signal.alarm(60)  # a hang dies here instead of stalling the suite
            answer = repro.run("intersection", v_r, v_s, bits=BITS, seed=1).answer
            engine_module.shutdown_shared_engines()
            os._exit(0 if answer == expected else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # ... and the parent's threads are still the parent's to use.
        assert repro.run("intersection", v_r, v_s, bits=BITS, seed=1).answer == expected
