"""Tests for parallel batch exponentiation (Section 6.2's P model)."""

from __future__ import annotations

import random

import pytest

from repro.crypto.batch import (
    measure_speedup,
    parallel_pow,
    sequential_pow,
)
from repro.crypto import engine as engine_module, kernel
from repro.crypto.engine import shared_engine
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
        gmp = kernel.describe().startswith("gmp")
        assert shared_engine(3).parallel_batches == (1 if gmp else 0)

    def test_empty_batch(self, group):
        assert parallel_pow([], 3, group.p, processors=2) == []

    def test_single_processor_falls_back(self, batch):
        xs, e, p = batch
        assert parallel_pow(xs, e, p, processors=1) == sequential_pow(xs, e, p)

    def test_tiny_batch_falls_back(self, group, monkeypatch):
        # Nothing to split: no helper thread asked for.
        monkeypatch.setattr(engine_module, "_executor", None)
        xs = [group.generator]
        assert parallel_pow(xs, 5, group.p, processors=8) == [
            pow(group.generator, 5, group.p)
        ]
        assert shared_engine(8).serial_batches == 1


class TestMeasurement:
    def test_measure_speedup_fields(self, batch):
        xs, e, p = batch
        result = measure_speedup(xs, e, p, processors=2)
        assert result.batch == len(xs)
        assert result.processors == 2
        assert result.sequential_s > 0
        assert result.parallel_s > 0
        assert result.ideal == 2.0

    def test_speedup_ratio_positive(self, batch):
        xs, e, p = batch
        result = measure_speedup(xs, e, p, processors=2)
        # Tiny batches are overhead-dominated; we only require sanity.
        assert result.speedup > 0


class TestSharedExecutor:
    def test_repeated_calls_reuse_one_pool(self, batch, always_pays):
        xs, e, p = batch
        parallel_pow(xs, e, p, processors=2)
        engine = shared_engine(2)
        helpers = engine_module._helpers
        parallel_pow(xs, e, p, processors=2)
        assert shared_engine(2) is engine
        assert engine_module._helpers is helpers
        if kernel.describe().startswith("gmp"):
            assert helpers is not None and engine.parallel_batches == 2
