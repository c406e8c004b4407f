"""Shared fixtures: small, fast groups and deterministic suites.

Tests run over 64/128-bit embedded safe primes - far below
cryptographic strength but identical code paths; the benchmark harness
exercises the realistic 512-2048 bit sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import engine as engine_module, kernel
from repro.crypto.commutative import PowerCipher
from repro.crypto.groups import QRGroup
from repro.crypto.hashing import TryIncrementHash
from repro.protocols.base import ProtocolSuite


@pytest.fixture(scope="session")
def group64() -> QRGroup:
    return QRGroup.for_bits(64)


@pytest.fixture(scope="session")
def group128() -> QRGroup:
    return QRGroup.for_bits(128)


@pytest.fixture(scope="session")
def group256() -> QRGroup:
    return QRGroup.for_bits(256)


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20030609)  # SIGMOD 2003 started June 9


@pytest.fixture()
def cipher128(group128) -> PowerCipher:
    return PowerCipher(group128)


@pytest.fixture()
def hash128(group128) -> TryIncrementHash:
    return TryIncrementHash(group128)


@pytest.fixture()
def suite() -> ProtocolSuite:
    """A deterministic 128-bit suite, fresh per test."""
    return ProtocolSuite.default(bits=128, seed=42)


@pytest.fixture()
def suite64() -> ProtocolSuite:
    """Smallest/fastest suite for property-based protocol tests."""
    return ProtocolSuite.default(bits=64, seed=42)


@pytest.fixture()
def always_pays(monkeypatch):
    """Every batch of two or more goes through the pool, whatever its
    work: the real crossover (``engine.POOL_ROUND_TRIP``) keeps the
    128-bit batches tests can afford serial. Stops the process-wide
    engines afterwards, so no test leaves workers behind."""
    monkeypatch.setattr(engine_module, "POOL_ROUND_TRIP", 0)
    yield
    engine_module.shutdown_shared_engines()


@pytest.fixture()
def builtin_kernel(monkeypatch):
    """Every exponentiation and Legendre test on the interpreter's
    ``pow`` and ``numtheory.jacobi``: the kernel as it is where libgmp
    does not load. The process-wide engines are stopped on both sides,
    so no pool worker forked under the other kernel serves the test."""
    monkeypatch.setattr(
        kernel, "_active", kernel._load("libgmp-hidden-by-a-test.so")
    )
    engine_module.shutdown_shared_engines()
    yield
    engine_module.shutdown_shared_engines()


@pytest.fixture()
def two_cpus():
    """Skip where the default engine of ``repro.run`` is the serial one."""
    if engine_module.available_cpus() < 2:
        pytest.skip("the default engine is serial on one CPU")
