"""A delta query costs what its churn costs, not what the tables hold.

The modexp and cache-I/O halves of that claim are pinned in counts
elsewhere (``tests/net/test_catalog_cache.py``, the ``delta-churn``
workload); this file pins the bookkeeping half - collision check,
answer, fork/adopt - by running the same churn against tables sixteen
times apart in size and comparing the two: allocation peak and median
time of one delta query, as ratios.  Never seconds: a slow box moves
both sides alike.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import pytest

import repro

BITS = 128
SMALL, LARGE = 1_000, 16_000
#: Common values: fixed, so the answer R is handed does not grow with
#: the tables (an answer costs its own size to return).
OVERLAP = 32
CHURN = 4
QUERIES = 15


class _Series:
    """Two paired catalogs of ``n`` values a side after their full
    query, and the delta-churn workload's churn on them."""

    def __init__(self, protocol: str, n: int):
        self.protocol, self.n, self.round = protocol, n, 0
        common = [f"c{i}" for i in range(OVERLAP)]
        self.catalogs = {
            side: repro.open_catalog(
                common + [f"{side}{i}" for i in range(n - OVERLAP)],
                bits=BITS, seed=f"{protocol}/{side}",
            )
            for side in "rs"
        }
        self.peer = self.catalogs["r"].pair(self.catalogs["s"])
        assert self.peer.query(protocol).mode == "full"

    def stage(self) -> None:
        """``CHURN`` deletes and ``CHURN`` inserts per side, none of
        them common - the answer stays ``OVERLAP``."""
        self.round += 1
        for side, catalog in self.catalogs.items():
            for i in range(CHURN):
                # From the table's head, where a list delete is cheap.
                catalog.delete(f"{side}{(self.round - 1) * CHURN + i}")
                catalog.insert(f"new-{side}-{self.round}-{i}")

    def query(self) -> None:
        result = self.peer.query(self.protocol)
        assert result.mode == "delta"
        assert (
            result.answer if self.protocol == "equijoin-size"
            else len(result.answer)
        ) == OVERLAP

    def peak_bytes(self) -> int:
        self.stage()
        tracemalloc.start()
        try:
            self.query()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def timed(self) -> float:
        self.stage()
        start = time.perf_counter()
        self.query()
        return time.perf_counter() - start


@pytest.mark.parametrize("protocol", ["intersection", "equijoin-size"])
def test_delta_query_cost_does_not_follow_table_size(protocol):
    small, large = _Series(protocol, SMALL), _Series(protocol, LARGE)
    for series in (small, large):  # first delta: lazy imports, warm paths
        series.stage()
        series.query()

    peaks = {series.n: series.peak_bytes() for series in (small, large)}
    assert peaks[LARGE] <= 1.5 * peaks[SMALL], peaks

    times: dict[int, list[float]] = {SMALL: [], LARGE: []}
    for _ in range(QUERIES):  # interleaved: drift of the box hits both
        for series in (small, large):
            times[series.n].append(series.timed())
    medians = {n: statistics.median(ts) for n, ts in times.items()}
    assert medians[LARGE] <= 2.5 * medians[SMALL], medians
