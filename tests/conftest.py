"""Shared fixtures: small, fast groups and deterministic runs.

Tests run over 64/128-bit embedded safe primes - far below
cryptographic strength but identical code paths; the benchmark harness
exercises the realistic 512-2048 bit sizes.
"""

from __future__ import annotations

import functools
import random

import pytest

import repro
from repro.crypto import engine as engine_module, kernel
from repro.crypto.commutative import PowerCipher
from repro.crypto.groups import QRGroup
from repro.crypto.hashing import TryIncrementHash
from repro.protocols.parties import PublicParams


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


@pytest.fixture(scope="session")
def params128() -> PublicParams:
    return PublicParams.for_bits(128)


@pytest.fixture()
def run128():
    """``repro.run`` over the 128-bit group, R and S keyed by seed 42."""
    return functools.partial(repro.run, bits=128, seed=42)


@pytest.fixture(autouse=True)
def _fresh_shared_engines():
    """Every test starts without another's process-wide engines: their
    batch counters are forgotten and their helper threads stopped after
    each test (``repro.run`` and the bench tasks use them unasked)."""
    yield
    engine_module.shutdown_shared_engines()


@pytest.fixture()
def always_pays(monkeypatch):
    """Every batch of two or more is shared among threads, whatever its
    work: the real crossover (``engine.THREAD_HOP``) keeps the 128-bit
    batches tests can afford serial."""
    monkeypatch.setattr(engine_module, "THREAD_HOP", 0)


@pytest.fixture()
def builtin_kernel(monkeypatch):
    """Every exponentiation and Legendre test on the interpreter's
    ``pow`` and ``numtheory.jacobi``: the kernel as it is where libgmp
    does not load."""
    monkeypatch.setattr(
        kernel, "_active", kernel._load("libgmp-hidden-by-a-test.so")
    )


@pytest.fixture()
def two_cpus():
    """Skip where the default engine of ``repro.run`` is the serial one."""
    if engine_module.available_cpus() < 2:
        pytest.skip("the default engine is serial on one CPU")
