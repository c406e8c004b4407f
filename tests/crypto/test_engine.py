"""Tests for the pluggable crypto execution engine (Section 6.2's P)."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import engine as engine_module, kernel
from repro.crypto.engine import (
    POOL_ROUND_TRIP,
    MeteredEngine,
    ProcessPoolEngine,
    SerialEngine,
    available_cpus,
    create_engine,
    shared_engine,
    shutdown_shared_engines,
)
from repro.crypto.groups import QRGroup


@pytest.fixture(scope="module")
def group():
    return QRGroup.for_bits(128)


@pytest.fixture(scope="module")
def batch(group):
    rng = random.Random(11)
    xs = [group.random_element(rng) for _ in range(40)]
    e = group.random_exponent(rng)
    return xs, e, group.p


def expected(xs, e, p):
    return [pow(x, e, p) for x in xs]


class TestSerialEngine:
    def test_matches_pow(self, batch):
        xs, e, p = batch
        assert SerialEngine().pow_many(xs, e, p) == expected(xs, e, p)

    def test_empty(self, group):
        assert SerialEngine().pow_many([], 3, group.p) == []

    def test_describe(self):
        assert SerialEngine().describe() == {
            "engine": "SerialEngine",
            "workers": 1,
            "kernel": kernel.describe(),
        }


class TestProcessPoolEngine:
    def test_order_preserved_odd_chunks(self, batch, always_pays):
        # Batch sizes the worker count does not divide exercise the
        # flatten-in-order path (last slice short, or fewer slices
        # than workers).
        xs, e, p = batch
        sizes = (2, 3, 7, len(xs) - 1, len(xs))
        for processors in (2, 3):
            with ProcessPoolEngine(processors=processors) as engine:
                for n in sizes:
                    assert engine.pow_many(xs[:n], e, p) == expected(xs[:n], e, p)
                assert engine.parallel_batches == len(sizes)

    def test_tiny_batch_serial_no_pool(self, batch):
        # 40 values at 128 bits are far below the crossover.
        xs, e, p = batch
        engine = ProcessPoolEngine(processors=4)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine._pool is None  # never spun up
        assert engine.serial_batches == 1
        assert engine.parallel_batches == 0

    def test_single_processor_stays_serial(self, batch, always_pays):
        xs, e, p = batch
        engine = ProcessPoolEngine(processors=1)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine._pool is None

    def test_default_size_is_the_affinity_mask(self):
        assert ProcessPoolEngine().workers == available_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))

    def test_pool_reused_across_calls(self, batch, always_pays):
        xs, e, p = batch
        with ProcessPoolEngine(processors=2) as engine:
            engine.pow_many(xs, e, p)
            first_pool = engine._pool
            engine.pow_many(xs, e, p)
            assert engine._pool is first_pool
            assert engine.parallel_batches == 2

    def test_broken_pool_degrades_to_serial(self, batch, always_pays, monkeypatch):
        xs, e, p = batch
        engine = ProcessPoolEngine(processors=2)

        def boom():
            raise OSError("no forks for you")

        monkeypatch.setattr(engine, "_ensure_pool", boom)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine.pool_failures == 1
        assert engine._broken
        monkeypatch.undo()
        # Once broken, stays serial even though the pool would work now.
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine._pool is None
        assert engine.serial_batches == 2

    def test_close_idempotent(self, batch, always_pays):
        xs, e, p = batch
        engine = ProcessPoolEngine(processors=2)
        engine.pow_many(xs, e, p)
        engine.close()
        engine.close()
        assert engine._pool is None
        # A later batch transparently restarts the pool.
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        engine.close()

    def test_warm_up_starts_workers(self):
        with ProcessPoolEngine(processors=3) as engine:
            engine.warm_up()
            assert len(engine._pool._processes) == 3

    def test_describe_counters(self, batch, always_pays):
        xs, e, p = batch
        with ProcessPoolEngine(processors=2) as engine:
            engine.pow_many(xs, e, p)
            engine.pow_many(xs[:1], e, p)
            info = engine.describe()
        assert info == {
            "engine": "ProcessPoolEngine",
            "workers": 2,
            "kernel": kernel.describe(),
            "parallel_batches": 1,
            "serial_batches": 1,
            "pool_failures": 0,
        }


class TestCrossover:
    """``_pays``: work taken off the critical path against one round
    trip (:data:`POOL_ROUND_TRIP`), from sizes alone - no pool runs."""

    @staticmethod
    def pays(n, bits, processors=2):
        modulus = (1 << bits) - 1
        exponent = (1 << (bits - 1)) - 1  # a full-size exponent mod q
        return ProcessPoolEngine(processors)._pays(n, exponent, modulus)

    def test_documented_crossovers(self):
        # docs/PERFORMANCE.md, "The crossover": eight 1024-bit values
        # pay, sixty-four 256-bit values do not.
        assert self.pays(8, 1024) and not self.pays(7, 1024)
        assert self.pays(50, 512) and not self.pays(49, 512)
        assert self.pays(386, 256) and not self.pays(385, 256)
        assert not self.pays(64, 256)

    def test_small_queries_never_pay(self):
        # herd-small, delta-churn, the ladder, api.facade_ms: 4-16
        # values at 256 bits; tier-1's usual 40 values at 128 / 256.
        for n in (4, 8, 16, 40):
            assert not self.pays(n, 256)
            assert not self.pays(n, 128)

    def test_nothing_to_split_never_pays(self):
        assert not self.pays(1, 8192)
        assert not self.pays(10_000, 1024, processors=1)
        assert POOL_ROUND_TRIP == 3 * 1024**3

    def test_equal_to_pow_on_both_sides(self, group):
        self.check_routing(group)

    def test_equal_to_pow_on_both_sides_builtin_kernel(self, group, builtin_kernel):
        self.check_routing(group)

    @staticmethod
    def check_routing(group):
        """``pow_many == [pow ...]`` and routing == ``_pays``, whichever
        kernel the pool's workers and the serial path compute with."""
        p, q = group.p, group.q
        unit = q.bit_length() * p.bit_length() ** 2
        with ProcessPoolEngine(processors=2) as engine, \
                pytest.MonkeyPatch.context() as patch:
            # Full-exponent batches of seven or more pay, shorter
            # batches and short exponents do not.
            patch.setattr(engine_module, "POOL_ROUND_TRIP", 3 * unit - 1)

            @settings(max_examples=60, deadline=None)
            @example(xs=[2] * 7, e=q - 1)
            @example(xs=[2] * 6, e=q - 1)
            @example(xs=[2] * 7, e=3)
            @given(
                xs=st.lists(st.integers(0, p - 1), max_size=12),
                e=st.one_of(st.integers(1, 2**16), st.integers(q // 2, q - 1)),
            )
            def check(xs, e):
                before = engine.parallel_batches
                assert engine.pow_many(xs, e, p) == [pow(x, e, p) for x in xs]
                went_parallel = engine.parallel_batches > before
                assert went_parallel == engine._pays(len(xs), e, p)

            check()
            assert engine.parallel_batches and engine.serial_batches


#: The reproducer of the hang: pool used, ``os.fork()``, the same call
#: in the child, which then leaves through the interpreter's own exit
#: (atexit hooks included), as a ``multiprocessing`` user's child would.
FORK_REPRODUCER = """
import os, sys
from repro.crypto.engine import shared_engine
p, e = 2**127 - 1, 65537
xs = list(range(3, 43))
want = [pow(x, e, p) for x in xs]
assert shared_engine(2).pow_many(xs, e, p) == want
assert shared_engine(2).parallel_batches == 1
pid = os.fork()
if pid == 0:
    ok = shared_engine(2).pow_many(xs, e, p) == want
    sys.exit(0 if ok and shared_engine(2).parallel_batches == 2 else 1)
_, status = os.waitpid(pid, 0)
assert shared_engine(2).pow_many(xs, e, p) == want
sys.exit(os.waitstatus_to_exitcode(status))
"""


class TestForkInheritance:
    """A pool inherited through ``os.fork()`` has no manager thread in
    the child: the child must forget it, not wait on it."""

    def test_reproducer_exits_within_its_timeout(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import repro.crypto.engine as m; m.POOL_ROUND_TRIP = 0"
            + FORK_REPRODUCER
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_forked_child_runs_its_own_pool(self, batch, always_pays):
        xs, e, p = batch
        with ProcessPoolEngine(processors=2) as engine:
            assert engine.pow_many(xs, e, p) == expected(xs, e, p)
            pool = engine._pool
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                signal.alarm(30)  # a hang dies here instead of stalling the suite
                ok = engine.pow_many(xs, e, p) == expected(xs, e, p)
                ok = ok and engine._pool is not pool and engine.parallel_batches == 2
                engine.close()
                os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # The parent's pool was not shut down from the child.
            assert engine.pow_many(xs, e, p) == expected(xs, e, p)
            assert engine._pool is pool

    def test_child_close_leaves_the_parents_pool_alone(self, batch, always_pays):
        xs, e, p = batch
        with ProcessPoolEngine(processors=2) as engine:
            engine.pow_many(xs, e, p)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                signal.alarm(30)
                engine.close()  # what the atexit hook does
                os._exit(0 if engine._pool is None else 1)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert engine.pow_many(xs, e, p) == expected(xs, e, p)
            assert engine.parallel_batches == 2


class TestMeteredEngine:
    def test_counts_and_delegates(self, batch):
        xs, e, p = batch
        seen = []
        engine = MeteredEngine(SerialEngine(), seen.append)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine.pow_many(xs[:5], e, p) == expected(xs[:5], e, p)
        assert seen == [len(xs), 5]
        assert engine.workers == 1
        assert engine.describe()["engine"] == "SerialEngine"


class TestCreateEngine:
    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_serial_for_small_workers(self, workers):
        assert isinstance(create_engine(workers), SerialEngine)

    def test_pool_for_many_workers(self):
        engine = create_engine(3)
        assert isinstance(engine, ProcessPoolEngine)
        assert engine.workers == 3
        engine.close()

    def test_metered_wrapping(self, batch):
        xs, e, p = batch
        seen = []
        engine = create_engine(1, on_modexp=seen.append)
        assert isinstance(engine, MeteredEngine)
        engine.pow_many(xs[:3], e, p)
        assert seen == [3]


class TestSharedEngines:
    def test_same_instance_per_processor_count(self):
        try:
            assert shared_engine(2) is shared_engine(2)
            assert shared_engine(2) is not shared_engine(3)
            assert isinstance(shared_engine(1), SerialEngine)
        finally:
            shutdown_shared_engines()

    def test_shutdown_clears_registry(self):
        first = shared_engine(2)
        shutdown_shared_engines()
        assert shared_engine(2) is not first
        shutdown_shared_engines()
