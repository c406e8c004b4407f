"""The modexp kernel: the same integers as the interpreter on every
path, the builtin path wherever GMP cannot be trusted, and every modexp
loop of the crypto layer routed through it."""

from __future__ import annotations

import ctypes
import os
import random
import signal
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.analysis.calibration import calibrate
from repro.crypto import batch, engine as engine_module, kernel, numtheory
from repro.crypto.commutative import PowerCipher
from repro.crypto.engine import SerialEngine, ThreadPoolEngine
from repro.crypto.groups import QRGroup
from repro.crypto.hashing import TryIncrementHash
from repro.crypto.paillier import generate_keypair

P1024 = QRGroup.for_bits(1024).p

needs_gmp = pytest.mark.skipif(
    kernel._active[0] is None, reason=f"kernel is {kernel.describe()}"
)


def moduli(odd: bool):
    """64- to 2048-bit moduli (odd ones: ``powm_sec``'s domain)."""
    bits = st.integers(64, 2048)
    values = bits.flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))
    return values.map(lambda m: m | 1) if odd else values


def edges(m: int) -> list[int]:
    return [0, 1, 2, m - 1, m, m + 1, 2 * m + 3, -1, -m - 2]


class TestParity:
    @settings(max_examples=40, deadline=None)
    @example(m=2**127 - 1, e=0, data=None)
    @example(m=2**128, e=65537, data=None)  # even: the builtin path
    @example(m=3, e=1, data=None)
    @given(
        m=moduli(odd=False),
        e=st.one_of(st.just(0), st.integers(1, 2**64), st.integers(1, 2**1100)),
        data=st.data(),
    )
    def test_pow_many_is_pow(self, m, e, data):
        xs = edges(m)
        if data is not None:
            xs += data.draw(st.lists(st.integers(-m, 3 * m), max_size=3))
        assert kernel.pow_many(xs, e, m) == [pow(x, e, m) for x in xs]

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @example(n=0, m=2**127 - 1, e=65537, one_a_chunk=False, data=None)
    @example(n=1, m=2**2048 - 159, e=2**64, one_a_chunk=False, data=None)
    @given(
        n=st.one_of(st.just(0), st.just(1), st.integers(2, 300)),
        m=moduli(odd=True),
        e=st.one_of(st.just(1), st.integers(2, 2**64)),
        one_a_chunk=st.booleans(),
        data=st.data(),
    )
    def test_every_batch_size_on_the_kernel_and_on_threads(
        self, always_pays, monkeypatch, n, m, e, one_a_chunk, data
    ):
        """A batch is one buffer of slots a modulus wide, whatever its
        length and width, and the thread engine's chunks are slices of
        it: 0, ``m``, ``m - 1``, negatives and values past ``m`` come
        back as ``pow`` gives them."""
        xs = (edges(m) * n)[:n]
        if data is not None:
            xs = data.draw(
                st.lists(
                    st.one_of(st.sampled_from(edges(m)), st.integers(-m, 3 * m)),
                    min_size=n,
                    max_size=n,
                )
            )
        if one_a_chunk:
            monkeypatch.setattr(engine_module, "CHUNK_WORK", 0)
        want = [pow(x, e, m) for x in xs]
        assert kernel.pow_many(xs, e, m) == want
        assert ThreadPoolEngine(2).pow_many(xs, e, m) == want

    @settings(max_examples=80, deadline=None)
    @example(a=0, n=3)
    @example(a=-5, n=9)  # composite: Jacobi, not Legendre
    @example(a=2**2048 + 1, n=2**127 - 1)
    @given(a=st.integers(-(2**2100), 2**2100), n=moduli(odd=True))
    def test_jacobi_is_the_reference(self, a, n):
        assert kernel.jacobi(a, n) == numtheory.jacobi(a, n)
        for edge in edges(n):
            assert kernel.jacobi(edge, n) == numtheory.jacobi(edge, n)

    @pytest.mark.parametrize("path", ["gmp", "builtin"])
    def test_jacobi_many_is_the_reference_on_the_self_test_s_values(
        self, monkeypatch, path
    ):
        if path == "builtin":
            monkeypatch.setattr(kernel, "_active", kernel._load("libgmp-hidden-by-a-test.so"))
        elif kernel._active[0] is None:
            pytest.skip(f"kernel is {kernel.describe()}")
        for m in (3**41, 2**127 - 1, 2**521 - 1, P1024):
            xs = [0, 1, 2, m - 1, m, 2 * m + 1, -5, 7**50]
            assert kernel.jacobi_many(xs, m) == [numtheory.jacobi(x, m) for x in xs]
        assert kernel.jacobi_many([], P1024) == []

    @pytest.mark.parametrize("n", [0, -7, 10])
    def test_jacobi_outside_its_domain_raises_like_the_reference(self, n):
        with pytest.raises(ValueError, match="odd n"):
            kernel.jacobi(3, n)

    @pytest.mark.parametrize(
        "e, m", [(0, P1024), (-1, P1024), (65537, 2 * P1024), (5, 1)]
    )
    def test_outside_powm_sec_s_domain_the_builtin_runs(self, monkeypatch, e, m):
        def refuse(*_args):
            raise AssertionError("GMP was called outside its domain")

        monkeypatch.setattr(kernel, "_gmp_pow_many", refuse)
        xs = [2, 3, P1024 - 1]
        assert kernel.pow_many(xs, e, m) == [pow(x, e, m) for x in xs]

    def test_the_builtin_kernel_says_so(self, builtin_kernel):
        assert kernel.describe().startswith("builtin (")
        assert "did not load" in kernel.describe()
        xs = [0, 1, 5, P1024 - 1]
        assert kernel.pow_many(xs, 65537, P1024) == [pow(x, 65537, P1024) for x in xs]
        assert kernel.jacobi(5, P1024) == numtheory.jacobi(5, P1024)


class _Liar:
    """libgmp with one entry point misbehaving."""

    def __init__(self, lie: str):
        self._real = ctypes.CDLL(kernel._SONAME)
        z = ctypes.POINTER(kernel._Mpz)
        copy = getattr(self._real, "__gmpz_set")
        copy.argtypes, copy.restype = (z, z), None
        grow = getattr(self._real, "__gmpz_realloc2")
        grow.argtypes, grow.restype = (z, ctypes.c_ulong), None
        powm = getattr(self._real, "__gmpz_powm_sec")
        powm.restype = None
        jacobi = getattr(self._real, "__gmpz_jacobi")
        jacobi.argtypes, jacobi.restype = (z, z), ctypes.c_int
        self._lie, self._function = {
            # x**e answered as x, right only for e = 1.
            "powm_sec": ("__gmpz_powm_sec", lambda r, x, e, m: copy(r, x)),
            # The right answer in limbs of its own: in the batch loop it
            # would free the result buffer, which GMP did not allocate.
            "realloc": (
                "__gmpz_powm_sec",
                lambda r, x, e, m: (grow(r, 1 << 14), powm(r, x, e, m)),
            ),
            "jacobi": ("__gmpz_jacobi", lambda a, n: -jacobi(a, n)),
        }[lie]

    def __getattr__(self, name):
        if name == self._lie:
            return self._function
        return getattr(self._real, name)


class TestSelfTest:
    @needs_gmp
    def test_the_system_library_passes(self):
        assert kernel.describe().startswith("gmp ")
        assert kernel._bind(ctypes.CDLL(kernel._SONAME))[0] is not None

    @needs_gmp
    @pytest.mark.parametrize("lie", ["powm_sec", "realloc", "jacobi"])
    def test_a_lying_library_leaves_the_builtin_path(self, monkeypatch, lie):
        says = {
            "powm_sec": "mpz_powm_sec disagreed",
            "realloc": "mpz_powm_sec reallocated",
            "jacobi": "mpz_jacobi disagreed",
        }[lie]
        active = kernel._bind(_Liar(lie))
        assert active[0] is None
        assert active[1].startswith(f"builtin (self-test failed: {says} ")
        monkeypatch.setattr(kernel, "_active", active)
        assert kernel.describe() == active[1]
        assert SerialEngine().describe()["kernel"] == active[1]
        xs = [2, 3, P1024 - 2]
        assert kernel.pow_many(xs, 65537, P1024) == [pow(x, 65537, P1024) for x in xs]
        assert kernel.jacobi(3, P1024) == numtheory.jacobi(3, P1024)

    def test_a_library_without_the_entry_points_is_not_used(self):
        class Hollow:
            def __getattr__(self, name):
                raise AttributeError(name)

        gmp, name = kernel._bind(Hollow())
        assert gmp is None and name.startswith("builtin (not a usable libgmp")


class TestConcurrency:
    def test_two_threads_exponentiate_at_once(self):
        rng = random.Random(3)
        jobs = [
            ([rng.randrange(P1024) for _ in range(12)], rng.randrange(1, P1024), P1024),
            ([rng.randrange(2**255) for _ in range(200)], 65537, 2**255 - 19),
        ]
        want = [[pow(x, e, m) for x in xs] for xs, e, m in jobs]
        got: list = [None, None]
        start = threading.Barrier(2)

        def work(i):
            xs, e, m = jobs[i]
            start.wait()
            got[i] = [kernel.pow_many(xs, e, m) for _ in range(3)]

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert got == [[w] * 3 for w in want]

    def test_batches_of_different_widths_at_once_keep_their_own_buffers(self):
        """More threads than CPUs, each batching over its own modulus,
        exponent and slot width, switch between their GMP calls as often
        as the interpreter lets them: every result is its own batch's."""
        rng = random.Random(8)
        jobs = [
            (2**521 - 1, rng.randrange(1, 2**521)),
            (2**127 - 1, 65537),
            (P1024, rng.randrange(1, 2**64)),
            (3**41, 3),
        ]
        failures: list = []
        start = threading.Barrier(len(jobs))

        def work(m, e):
            batch_rng = random.Random(m)
            start.wait()
            for _ in range(30):
                xs = [batch_rng.randrange(-m, 2 * m) for _ in range(batch_rng.randrange(1, 40))]
                if kernel.pow_many(xs, e, m) != [pow(x, e, m) for x in xs]:
                    failures.append((m, xs))

        threads = [threading.Thread(target=work, args=job) for job in jobs]
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
        assert failures == []


class TestWiring:
    """Every modexp loop and Legendre test of the crypto layer."""

    @needs_gmp
    def test_a_forked_pool_worker_computes_through_the_kernel(self, monkeypatch):
        """A child forked after the parent's helper threads ran shares
        a batch with helper threads of its own, every one of them
        computing through GMP."""
        xs, e = [2, 3, 5, 7], 65537
        want = [pow(x, e, P1024) for x in xs]
        monkeypatch.setattr(engine_module, "THREAD_HOP", 0)
        monkeypatch.setattr(engine_module, "CHUNK_WORK", 0)  # one value a chunk
        assert ThreadPoolEngine(processors=4).pow_many(xs, e, P1024) == want
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            signal.alarm(30)  # a hang dies here instead of stalling the suite
            helper_ran, threads = threading.Event(), []
            real = kernel._gmp_pow_many

            def counted(*args):
                threads.append(threading.current_thread())
                if threading.current_thread() is threading.main_thread():
                    helper_ran.wait(timeout=10)  # until a helper has a chunk
                else:
                    helper_ran.set()
                return real(*args)

            kernel._gmp_pow_many = counted
            out = ThreadPoolEngine(processors=4).pow_many(xs, e, P1024)
            ok = out == want and len(threads) == len(xs) and helper_ran.is_set()
            os._exit(0 if ok and kernel.describe().startswith("gmp") else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_every_exponentiation_goes_through_pow_many(self, monkeypatch):
        group = QRGroup.for_bits(128)
        cipher = PowerCipher(group)
        public, private = generate_keypair(bits=128, rng=random.Random(4))
        batches = []
        real = kernel.pow_many

        def counted(xs, e, m):
            xs = list(xs)
            batches.append(len(xs))
            return real(xs, e, m)

        monkeypatch.setattr(kernel, "pow_many", counted)
        rng, p = random.Random(5), group.p
        x = group.random_element(rng)
        key = cipher.sample_key(rng)
        calls = [
            lambda: SerialEngine().pow_many([x, x], key, p),
            lambda: ThreadPoolEngine(processors=2).pow_many([x], key, p),
            lambda: batch.sequential_pow([x], key, p),
            lambda: cipher.decrypt(key, cipher.encrypt(key, x)),
            lambda: group.pow(x, key),
            lambda: private.decrypt(
                public.multiply_plain(public.encrypt(7, rng), 3)
            ),
            lambda: calibrate(bits=128, samples=2),
        ]
        for call in calls:
            before = len(batches)
            call()
            assert len(batches) > before, call

    def test_every_legendre_test_goes_through_jacobi(self, monkeypatch):
        group = QRGroup.for_bits(128)
        seen = []
        real = kernel.jacobi
        monkeypatch.setattr(
            kernel, "jacobi", lambda a, n: (seen.append(n), real(a, n))[1]
        )
        assert numtheory.is_quadratic_residue(4, group.p)
        assert numtheory.legendre(4, group.p) == 1
        assert group.decode(group.encode(41)) == 41
        assert 4 in group
        assert TryIncrementHash(group).hash_value("v") in group
        assert len(seen) >= 6 and set(seen) == {group.p}

    def test_engines_report_the_kernel(self):
        assert SerialEngine().describe()["kernel"] == kernel.describe()
        assert ThreadPoolEngine(2).describe()["kernel"] == kernel.describe()
