"""The modexp kernel: the same integers as the interpreter on every
path, the builtin path wherever GMP cannot be trusted, and every modexp
loop of the crypto layer routed through it."""

from __future__ import annotations

import ctypes
import os
import random
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.calibration import calibrate
from repro.crypto import batch, engine as engine_module, kernel, numtheory
from repro.crypto.commutative import PowerCipher
from repro.crypto.engine import ProcessPoolEngine, SerialEngine
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

    @settings(max_examples=80, deadline=None)
    @example(a=0, n=3)
    @example(a=-5, n=9)  # composite: Jacobi, not Legendre
    @example(a=2**2048 + 1, n=2**127 - 1)
    @given(a=st.integers(-(2**2100), 2**2100), n=moduli(odd=True))
    def test_jacobi_is_the_reference(self, a, n):
        assert kernel.jacobi(a, n) == numtheory.jacobi(a, n)
        for edge in edges(n):
            assert kernel.jacobi(edge, n) == numtheory.jacobi(edge, n)

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
    """libgmp with one entry point answering wrongly."""

    def __init__(self, lie: str):
        self._real = ctypes.CDLL(kernel._SONAME)
        z = ctypes.POINTER(kernel._Mpz)
        copy = getattr(self._real, "__gmpz_set")
        copy.argtypes, copy.restype = (z, z), None
        jacobi = getattr(self._real, "__gmpz_jacobi")
        jacobi.argtypes, jacobi.restype = (z, z), ctypes.c_int
        self._lies = {
            # x**e answered as x, right only for e = 1.
            "__gmpz_powm_sec": lambda r, x, e, m: copy(r, x),
            "__gmpz_jacobi": lambda a, n: -jacobi(a, n),
        }
        self._lie = "__gmpz_" + lie

    def __getattr__(self, name):
        if name == self._lie:
            return self._lies[name]
        return getattr(self._real, name)


class TestSelfTest:
    @needs_gmp
    def test_the_system_library_passes(self):
        assert kernel.describe().startswith("gmp ")
        assert kernel._bind(ctypes.CDLL(kernel._SONAME))[0] is not None

    @needs_gmp
    @pytest.mark.parametrize("lie", ["powm_sec", "jacobi"])
    def test_a_lying_library_leaves_the_builtin_path(self, monkeypatch, lie):
        active = kernel._bind(_Liar(lie))
        assert active[0] is None
        assert active[1].startswith(f"builtin (self-test failed: mpz_{lie} ")
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


def _pow_chunk_in_worker(args):
    """Pool task: ``engine._pow_chunk`` with the kernel's GMP path
    counted, plus what the worker's kernel says it is."""
    calls = []
    real = kernel._gmp_pow_many
    kernel._gmp_pow_many = lambda *a: (calls.append(1), real(*a))[1]
    try:
        return engine_module._pow_chunk(args), len(calls), kernel.describe(), os.getpid()
    finally:
        kernel._gmp_pow_many = real


class TestWiring:
    """Every modexp loop and Legendre test of the crypto layer."""

    @needs_gmp
    def test_a_forked_pool_worker_computes_through_the_kernel(self):
        xs, e = [2, 3, 5], 65537
        with ProcessPoolEngine(processors=2) as engine:
            pool = engine._ensure_pool()
            out, calls, name, pid = pool.submit(
                _pow_chunk_in_worker, (xs, e, P1024)
            ).result(timeout=60)
        assert pid != os.getpid()
        assert out == [pow(x, e, P1024) for x in xs]
        assert calls == 1 and name == kernel.describe()

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
            lambda: engine_module._pow_chunk(([x], key, p)),
            lambda: ProcessPoolEngine(processors=2).pow_many([x], key, p),
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
        assert ProcessPoolEngine(2).describe()["kernel"] == kernel.describe()
