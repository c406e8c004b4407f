"""Tests for the pluggable crypto execution engine (Section 6.2's P)."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import engine as engine_module, kernel
from repro.crypto.engine import (
    CHUNK_WORK,
    THREAD_HOP,
    MeteredEngine,
    SerialEngine,
    ThreadPoolEngine,
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


#: Whether batches can be shared at all: the builtin ``pow`` holds the
#: GIL, so without GMP the thread engine keeps every batch serial.
GMP = kernel.describe().startswith("gmp")
needs_gmp = pytest.mark.skipif(not GMP, reason=f"kernel is {kernel.describe()}")


def no_threads():
    raise AssertionError("a helper thread was asked for")


class TestProcessPoolEngine:
    """:class:`ThreadPoolEngine` - the class keeps the name its tests
    had under the process pool the thread engine replaced."""

    def test_order_preserved_odd_chunks(self, batch, always_pays):
        # Batch sizes the thread count does not divide exercise the
        # write-in-place path (last chunk short, or fewer chunks than
        # threads).
        xs, e, p = batch
        sizes = (2, 3, 7, len(xs) - 1, len(xs))
        for processors in (2, 3):
            engine = ThreadPoolEngine(processors=processors)
            for n in sizes:
                assert engine.pow_many(xs[:n], e, p) == expected(xs[:n], e, p)
            assert engine.parallel_batches == (len(sizes) if GMP else 0)

    @settings(max_examples=80, deadline=None)
    @given(
        processors=st.integers(1, 6),
        n=st.integers(0, 40),
        per_chunk=st.integers(1, 9),
    )
    def test_order_preserved_for_every_p_and_size(
        self, batch, processors, n, per_chunk
    ):
        xs, e, p = batch
        work = e.bit_length() * p.bit_length() ** 2
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "THREAD_HOP", 0)
            patch.setattr(engine_module, "CHUNK_WORK", per_chunk * work)
            engine = ThreadPoolEngine(processors=processors)
            assert engine.pow_many(xs[:n], e, p) == expected(xs[:n], e, p)
        split = GMP and processors > 1 and n > 1
        assert engine.parallel_batches == int(split)

    def test_tiny_batch_serial_no_pool(self, batch, monkeypatch):
        # 40 values at 128 bits are far below the crossover.
        xs, e, p = batch
        monkeypatch.setattr(engine_module, "_executor", no_threads)
        engine = ThreadPoolEngine(processors=4)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine.serial_batches == 1
        assert engine.parallel_batches == 0

    def test_single_processor_stays_serial(self, batch, always_pays, monkeypatch):
        xs, e, p = batch
        monkeypatch.setattr(engine_module, "_executor", no_threads)
        engine = ThreadPoolEngine(processors=1)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine.serial_batches == 1

    def test_default_size_is_the_affinity_mask(self):
        assert ThreadPoolEngine().workers == available_cpus()
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))

    @needs_gmp
    def test_pool_reused_across_calls(self, batch, always_pays):
        xs, e, p = batch
        engine = ThreadPoolEngine(processors=2)
        engine.pow_many(xs, e, p)
        helpers = engine_module._helpers
        assert helpers is not None
        engine.pow_many(xs, e, p)
        ThreadPoolEngine(processors=3).pow_many(xs, e, p)
        assert engine_module._helpers is helpers  # one per process
        assert engine.parallel_batches == 2

    def test_broken_pool_degrades_to_serial(self, batch, always_pays):
        # A helper thread that cannot start: the caller computes alone.
        xs, e, p = batch

        class NoThreads:
            def submit(self, fn):
                raise RuntimeError("can't start new thread")

        engine = ThreadPoolEngine(processors=3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_module, "_executor", NoThreads)
            assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine.describe()["thread_failures"] == (1 if GMP else 0)
        assert engine.serial_batches == 1
        # Nothing stays broken: the next batch gets its helpers.
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine.parallel_batches == (1 if GMP else 0)

    def test_a_helper_s_exception_reaches_the_caller(
        self, batch, always_pays, monkeypatch
    ):
        xs, e, p = batch
        taken = threading.Event()
        real = kernel.pow_many

        def helper_fails(chunk, exponent, modulus):
            if threading.current_thread() is threading.main_thread():
                # Hold the caller's chunk until a helper has its own.
                taken.wait(timeout=10)
                return real(chunk, exponent, modulus)
            taken.set()
            raise ArithmeticError("in a helper")

        monkeypatch.setattr(kernel, "pow_many", helper_fails)
        engine = ThreadPoolEngine(processors=2)
        if GMP:
            with pytest.raises(ArithmeticError, match="in a helper"):
                engine.pow_many(xs, e, p)
        else:  # serial: the caller's own chunk is the whole batch
            taken.set()
            assert engine.pow_many(xs, e, p) == expected(xs, e, p)

    def test_every_batch_is_serial_under_the_builtin_kernel(
        self, batch, always_pays, builtin_kernel, monkeypatch
    ):
        xs, e, p = batch
        monkeypatch.setattr(engine_module, "_executor", no_threads)
        engine = ThreadPoolEngine(processors=4)
        for n in (2, 7, len(xs)):
            assert engine.pow_many(xs[:n], e, p) == expected(xs[:n], e, p)
        assert (engine.serial_batches, engine.parallel_batches) == (3, 0)

    def test_close_idempotent(self, batch, always_pays):
        xs, e, p = batch
        engine = ThreadPoolEngine(processors=2)
        engine.pow_many(xs, e, p)
        engine.close()
        engine.close()
        # A later batch needs nothing restarted.
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)

    def test_describe_counters(self, batch, always_pays):
        xs, e, p = batch
        engine = ThreadPoolEngine(processors=2)
        engine.pow_many(xs, e, p)
        engine.pow_many(xs[:1], e, p)
        assert engine.describe() == {
            "engine": "ThreadPoolEngine",
            "workers": 2,
            "kernel": kernel.describe(),
            "parallel_batches": 1 if GMP else 0,
            "serial_batches": 1 if GMP else 2,
            "thread_failures": 0,
        }


class TestConcurrentCallers:
    def test_eight_threads_share_one_engine(
        self, group, always_pays, monkeypatch
    ):
        # One value a chunk, and a thread switch forced every
        # microsecond: a chunk two threads both took, or one nobody
        # took, shows as a wrong or missing result.
        monkeypatch.setattr(
            engine_module, "CHUNK_WORK", group.q.bit_length() * group.p.bit_length() ** 2
        )
        rng = random.Random(12)
        jobs = [
            ([group.random_element(rng) for _ in range(30 + i)],
             group.random_exponent(rng))
            for i in range(8)
        ]
        got: list = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def call(i):
            xs, e = jobs[i]
            start.wait()
            got[i] = [shared_engine(2).pow_many(xs, e, group.p) for _ in range(5)]

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[expected(xs, e, group.p)] * 5 for xs, e in jobs]


class TestCrossover:
    """``_step``: work taken off the critical path against one thread
    hop (:data:`THREAD_HOP`), and chunks of about :data:`CHUNK_WORK`,
    from sizes alone - no thread runs."""

    @staticmethod
    def step(n, bits, processors=2):
        modulus = (1 << bits) - 1
        exponent = (1 << (bits - 1)) - 1  # a full-size exponent mod q
        return ThreadPoolEngine(processors)._step(n, exponent, modulus)

    def pays(self, n, bits, processors=2):
        return self.step(n, bits, processors) < n

    @needs_gmp
    def test_documented_crossovers(self):
        # docs/PERFORMANCE.md, "One process for the crypto": two
        # 1024-bit values pay, sixty-four 256-bit values do not.
        assert self.pays(2, 1024) and not self.pays(1, 1024)
        assert self.pays(10, 512) and not self.pays(9, 512)
        assert self.pays(66, 256) and not self.pays(65, 256)
        assert not self.pays(64, 256)

    @needs_gmp
    def test_chunks_are_sized_by_work(self):
        # ~4 modexps at 1024 bits, ~256 at 256 bits, never more than an
        # equal share.
        assert self.step(500, 1024) == 4
        assert self.step(4000, 256) == 257
        assert self.step(300, 256) == 150
        assert self.step(9, 1024, processors=4) == 3

    def test_small_queries_never_pay(self):
        # herd-small, delta-churn, the ladder, api.facade_ms: 4-16
        # values at 256 bits; tier-1's usual 40 values at 128 / 256.
        for n in (4, 8, 16, 40):
            assert not self.pays(n, 256)
            assert not self.pays(n, 128)

    def test_nothing_to_split_never_pays(self):
        assert not self.pays(1, 8192)
        assert not self.pays(10_000, 1024, processors=1)
        assert THREAD_HOP == 1024**3 // 2
        assert CHUNK_WORK == 4 * 1024**3

    def test_equal_to_pow_on_both_sides(self, group):
        self.check_routing(group)

    def test_equal_to_pow_on_both_sides_builtin_kernel(self, group, builtin_kernel):
        self.check_routing(group)

    @staticmethod
    def check_routing(group):
        """``pow_many == [pow ...]`` and routing == ``_step``, whichever
        kernel computes: under the builtin one nothing is split."""
        p, q = group.p, group.q
        unit = q.bit_length() * p.bit_length() ** 2
        engine = ThreadPoolEngine(processors=2)
        with pytest.MonkeyPatch.context() as patch:
            # Full-exponent batches of six or more pay, shorter batches
            # and short exponents do not.
            patch.setattr(engine_module, "THREAD_HOP", 3 * unit - 1)

            @settings(max_examples=60, deadline=None)
            @example(xs=[2] * 6, e=q - 1)
            @example(xs=[2] * 5, e=q - 1)
            @example(xs=[2] * 7, e=3)
            @given(
                xs=st.lists(st.integers(0, p - 1), max_size=12),
                e=st.one_of(st.integers(1, 2**16), st.integers(q // 2, q - 1)),
            )
            def check(xs, e):
                before = engine.parallel_batches
                assert engine.pow_many(xs, e, p) == [pow(x, e, p) for x in xs]
                went_parallel = engine.parallel_batches > before
                assert went_parallel == (engine._step(len(xs), e, p) < len(xs))

            check()
        assert engine.serial_batches
        assert bool(engine.parallel_batches) == kernel.describe().startswith("gmp")


#: A batch in a forked child after a parallel batch in its parent: the
#: child's helper threads are not the parent's, and the child leaves
#: through the interpreter's own exit (atexit hooks included).
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


@needs_gmp
class TestForkInheritance:
    """Helper threads do not survive ``os.fork()``: the child must make
    its own, not wait on the parent's."""

    def test_reproducer_exits_within_its_timeout(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        script = (
            "import repro.crypto.engine as m; m.THREAD_HOP = 0"
            + FORK_REPRODUCER
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_forked_child_runs_its_own_pool(self, batch, always_pays):
        xs, e, p = batch
        engine = ThreadPoolEngine(processors=2)
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        helpers = engine_module._helpers
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            signal.alarm(30)  # a hang dies here instead of stalling the suite
            ok = engine.pow_many(xs, e, p) == expected(xs, e, p)
            ok = ok and engine_module._helpers not in (None, helpers)
            os._exit(0 if ok and engine.parallel_batches == 2 else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The parent's threads were not touched from the child.
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine_module._helpers is helpers

    def test_child_close_leaves_the_parents_pool_alone(self, batch, always_pays):
        xs, e, p = batch
        engine = ThreadPoolEngine(processors=2)
        engine.pow_many(xs, e, p)
        helpers = engine_module._helpers
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            signal.alarm(30)
            engine.close()
            shutdown_shared_engines()  # what a child's cleanup does
            os._exit(0 if engine_module._helpers is None else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert engine.pow_many(xs, e, p) == expected(xs, e, p)
        assert engine_module._helpers is helpers
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
        assert isinstance(engine, ThreadPoolEngine)
        assert engine.workers == 3

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
