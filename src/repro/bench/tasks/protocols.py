"""Area ``protocols`` — end-to-end runs of all four core protocols.

The scaling validation table, and the future-work aggregate and
selection operations the paper asks for.
"""

from __future__ import annotations

import random
import time

from ...api import run
from ...crypto.numtheory import _party_rngs
from ...protocols.parties import PublicParams
from ...protocols.selection import run_selection as _run_selection_protocol
from ...protocols.spec import PROTOCOLS, run_pair
from ...workloads.generator import multiset_pair, overlapping_sets
from ..registry import register

__all__ = []

#: Record name -> (registered protocol, S's input from its values)
#: for the four core protocols.
PROTOCOL_INPUTS = {
    "intersection": ("intersection", list),
    "intersection_size": ("intersection-size", list),
    "equijoin": ("equijoin", lambda v_s: {v: b"record" for v in v_s}),
    "equijoin_size": ("equijoin-size", list),
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
    for name, (protocol, s_input) in sorted(PROTOCOL_INPUTS.items()):
        for n in ctx.param("sizes"):
            v_r, v_s, expected = overlapping_sets(
                n, n, n // 2, random.Random(n)
            )
            started = time.perf_counter()
            result = run(protocol, v_r, s_input(v_s), bits=bits, seed=n)
            elapsed = time.perf_counter() - started
            if name == "intersection":
                assert result.answer == expected
            elif name == "intersection_size":
                assert result.answer == len(expected)
            records.append({
                "id": f"{name}-n{n}",
                "protocol": name,
                "n": n,
                "wire_bytes": result.transcript.total_bytes,
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
        started = time.perf_counter()
        result = run("equijoin-size", ms_r, ms_s, bits=bits, seed=n)
        elapsed = time.perf_counter() - started
        assert result.answer == ms_r.join_size(ms_s)
        records.append({
            "id": f"n{n}",
            "n": n,
            "occurrences_r": len(ms_r),
            "occurrences_s": len(ms_s),
            "join_size": result.answer,
            "wire_bytes": result.transcript.total_bytes,
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

    params = PublicParams.for_bits(bits)
    started = time.perf_counter()
    size_result = run("intersection-size", v_r, v_s, params=params, seed=21)
    size_s = time.perf_counter() - started
    size_bytes = size_result.transcript.total_bytes

    started = time.perf_counter()
    receiver, _, wires = run_pair(
        "equijoin-sum", v_r, values_s, params, *_party_rngs(21),
        paillier_bits=256,
    )
    total = receiver.finish()
    sum_s = time.perf_counter() - started
    sum_bytes = PROTOCOLS["equijoin-sum"].transcript(wires).total_bytes
    assert total == sum(values_s[v] for v in expected)
    assert receiver.state.match_count == size_result.answer == len(expected)

    records = [{
        "id": "equijoin-sum",
        "n": n,
        "size_bytes": size_bytes,
        "sum_bytes": sum_bytes,
        "byte_overhead_x": round(sum_bytes / size_bytes, 2),
        "metrics": {
            "elapsed_s": round(sum_s, 6),
            "size_elapsed_s": round(size_s, 6),
        },
    }]

    previous = None
    for sel_n in ctx.param("selection_sizes"):
        rows = [f"row-{i:04d}".encode() * 2 for i in range(sel_n)]
        started = time.perf_counter()
        result = _run_selection_protocol(
            sel_n // 2, rows, params, _party_rngs(sel_n)
        )
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
