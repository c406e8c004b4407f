"""Area ``protocols`` — end-to-end runs of all four core protocols.

The scaling validation table, and the future-work aggregate and
selection operations the paper asks for.
"""

from __future__ import annotations

import random
import time

from ...protocols.aggregate import run_equijoin_sum
from ...protocols.base import ProtocolSuite
from ...protocols.equijoin import run_equijoin
from ...protocols.equijoin_size import run_equijoin_size
from ...protocols.intersection import run_intersection
from ...protocols.intersection_size import run_intersection_size
from ...protocols.selection import run_selection as _run_selection_protocol
from ...workloads.generator import multiset_pair, overlapping_sets
from ..registry import register

__all__ = []

#: Name -> driver over ``(v_r, v_s, suite)`` for the four core protocols.
PROTOCOL_DRIVERS = {
    "intersection": lambda v_r, v_s, suite: run_intersection(v_r, v_s, suite),
    "intersection_size": lambda v_r, v_s, suite: run_intersection_size(
        v_r, v_s, suite
    ),
    "equijoin": lambda v_r, v_s, suite: run_equijoin(
        v_r, {v: b"record" for v in v_s}, suite
    ),
    "equijoin_size": lambda v_r, v_s, suite: run_equijoin_size(
        v_r, v_s, suite
    ),
}


@register(
    "protocols.scaling",
    smoke={"bits": 128, "sizes": [16, 32]},
    full={"bits": 512, "sizes": [16, 32, 64]},
    summary="All four protocols end to end at growing n: wall clock, "
            "wire bytes, correctness vs plaintext on every run.",
)
def scaling(ctx) -> list[dict]:
    """Run every protocol at each n; one record per (protocol, n)."""
    bits = ctx.param("bits")
    records = []
    for name, protocol in sorted(PROTOCOL_DRIVERS.items()):
        for n in ctx.param("sizes"):
            v_r, v_s, expected = overlapping_sets(
                n, n, n // 2, random.Random(n)
            )
            suite = ProtocolSuite.default(bits=bits, seed=n)
            started = time.perf_counter()
            result = protocol(v_r, v_s, suite)
            elapsed = time.perf_counter() - started
            if name == "intersection":
                assert result.intersection == expected
            elif name == "intersection_size":
                assert result.size == len(expected)
            records.append({
                "id": f"{name}-n{n}",
                "protocol": name,
                "n": n,
                "wire_bytes": result.run.total_bytes,
                "metrics": {"elapsed_s": round(elapsed, 6)},
            })
    return records


@register(
    "protocols.multiset-join",
    smoke={"bits": 128, "sizes": [16]},
    full={"bits": 512, "sizes": [16, 48]},
    summary="Equijoin-size over Zipf-duplicated multisets, join size "
            "asserted against the plaintext multiset join.",
)
def multiset_join(ctx) -> list[dict]:
    """Run the multiset size protocol at realistic duplicate skews."""
    bits = ctx.param("bits")
    records = []
    for n in ctx.param("sizes"):
        ms_r, ms_s = multiset_pair(n, n, n // 2, ctx.rng)
        suite = ProtocolSuite.default(bits=bits, seed=n)
        started = time.perf_counter()
        result = run_equijoin_size(ms_r, ms_s, suite)
        elapsed = time.perf_counter() - started
        assert result.join_size == ms_r.join_size(ms_s)
        records.append({
            "id": f"n{n}",
            "n": n,
            "occurrences_r": len(ms_r),
            "occurrences_s": len(ms_s),
            "join_size": result.join_size,
            "wire_bytes": result.run.total_bytes,
            "metrics": {"elapsed_s": round(elapsed, 6)},
        })
    return records


@register(
    "protocols.extensions",
    smoke={"bits": 128, "n_sum": 12, "selection_sizes": [4, 16]},
    full={"bits": 256, "n_sum": 24, "selection_sizes": [4, 16, 64]},
    summary="Future-work extensions: equijoin-sum overhead over the "
            "size protocol, and selection's amortizing per-record cost.",
)
def extensions(ctx) -> list[dict]:
    """Cost the aggregate and selection extensions against baselines."""
    bits = ctx.param("bits")
    n = ctx.param("n_sum")
    v_r, v_s, expected = overlapping_sets(n, n, n // 2, ctx.rng)
    values_s = {v: ctx.rng.randrange(10**6) for v in v_s}

    suite = ProtocolSuite.default(bits=bits, seed=21)
    started = time.perf_counter()
    size_result = run_intersection_size(v_r, v_s, suite)
    size_s = time.perf_counter() - started

    suite = ProtocolSuite.default(bits=bits, seed=21)
    started = time.perf_counter()
    sum_result = run_equijoin_sum(v_r, values_s, suite, paillier_bits=256)
    sum_s = time.perf_counter() - started
    assert sum_result.total == sum(values_s[v] for v in expected)
    assert sum_result.match_count == size_result.size == len(expected)

    records = [{
        "id": "equijoin-sum",
        "n": n,
        "size_bytes": size_result.run.total_bytes,
        "sum_bytes": sum_result.run.total_bytes,
        "byte_overhead_x": round(
            sum_result.run.total_bytes / size_result.run.total_bytes, 2
        ),
        "metrics": {
            "elapsed_s": round(sum_s, 6),
            "size_elapsed_s": round(size_s, 6),
        },
    }]

    previous = None
    for sel_n in ctx.param("selection_sizes"):
        suite = ProtocolSuite.default(bits=bits, seed=sel_n)
        rows = [f"row-{i:04d}".encode() * 2 for i in range(sel_n)]
        started = time.perf_counter()
        result = _run_selection_protocol(sel_n // 2, rows, suite)
        elapsed = time.perf_counter() - started
        assert result.record == rows[sel_n // 2]
        per_record = result.run.total_bytes / sel_n
        if previous is not None:
            assert per_record < previous
        previous = per_record
        records.append({
            "id": f"selection-n{sel_n}",
            "n": sel_n,
            "wire_bytes": result.run.total_bytes,
            "bytes_per_record": round(per_record, 1),
            "metrics": {"elapsed_s": round(elapsed, 6)},
        })
    return records
