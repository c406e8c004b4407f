"""Tests for parallel batch exponentiation (Section 6.2's P model)."""

from __future__ import annotations

import random

import pytest

from repro.crypto.batch import (
    measure_speedup,
    parallel_pow,
    sequential_pow,
)
from repro.crypto.engine import shared_engine, shutdown_shared_engines
from repro.crypto.groups import QRGroup


@pytest.fixture(scope="module")
def group():
    return QRGroup.for_bits(128)


@pytest.fixture(scope="module")
def batch(group):
    rng = random.Random(1)
    xs = [group.random_element(rng) for _ in range(40)]
    e = group.random_exponent(rng)
    return xs, e, group.p


class TestCorrectness:
    def test_matches_sequential(self, batch, always_pays):
        xs, e, p = batch
        assert parallel_pow(xs, e, p, processors=2) == sequential_pow(xs, e, p)

    def test_order_preserved(self, batch, always_pays):
        xs, e, p = batch
        out = parallel_pow(xs, e, p, processors=3)
        assert out == [pow(x, e, p) for x in xs]
        assert shared_engine(3).parallel_batches == 1

    def test_empty_batch(self, group):
        assert parallel_pow([], 3, group.p, processors=2) == []

    def test_single_processor_falls_back(self, batch):
        xs, e, p = batch
        assert parallel_pow(xs, e, p, processors=1) == sequential_pow(xs, e, p)

    def test_tiny_batch_falls_back(self, group):
        # Nothing to split: no pool spun up.
        xs = [group.generator]
        assert parallel_pow(xs, 5, group.p, processors=8) == [
            pow(group.generator, 5, group.p)
        ]
        assert shared_engine(8)._pool is None


class TestMeasurement:
    def test_measure_speedup_fields(self, batch):
        xs, e, p = batch
        result = measure_speedup(xs, e, p, processors=2)
        assert result.batch == len(xs)
        assert result.processors == 2
        assert result.sequential_s > 0
        assert result.parallel_s > 0
        assert result.cold_s > 0
        assert result.ideal == 2.0

    def test_speedup_ratio_positive(self, batch):
        xs, e, p = batch
        result = measure_speedup(xs, e, p, processors=2)
        # Tiny batches are overhead-dominated; we only require sanity.
        assert result.speedup > 0

    def test_pool_startup_reported_separately(self, batch):
        xs, e, p = batch
        shutdown_shared_engines()  # force a cold pool for this measurement
        try:
            result = measure_speedup(xs, e, p, processors=2)
            # Spawning worker processes takes real time, and it must be
            # excluded from the steady-state parallel figure.
            assert result.pool_startup_s > 0
            assert result.parallel_s > 0
        finally:
            shutdown_shared_engines()

    def test_serial_measurement_has_no_startup(self, batch):
        xs, e, p = batch
        result = measure_speedup(xs, e, p, processors=1)
        assert result.pool_startup_s == 0.0


class TestSharedExecutor:
    def test_repeated_calls_reuse_one_pool(self, batch, always_pays):
        xs, e, p = batch
        parallel_pow(xs, e, p, processors=2)
        engine = shared_engine(2)
        pool = engine._pool
        assert pool is not None
        parallel_pow(xs, e, p, processors=2)
        assert shared_engine(2) is engine
        assert engine._pool is pool
        assert engine.parallel_batches >= 2
