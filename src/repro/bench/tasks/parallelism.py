"""Area ``parallelism`` — the Section 6.2 P-processor assumption.

Raw batch exponentiation and a whole intersection run through the
thread engine, against the model's ideal 1/P.
"""

from __future__ import annotations

import random
import time

from ...analysis.instrumentation import MetricsRecorder
from ...crypto.batch import measure_speedup
from ...crypto.engine import available_cpus, create_engine
from ...crypto.groups import QRGroup
from ...protocols.parties import (
    IntersectionReceiver,
    IntersectionSender,
    PublicParams,
)
from ..registry import register

__all__ = []


def run_intersection_with_engine(
    n: int, bits: int, workers: int, seed: int = 7
) -> dict:
    """One end-to-end intersection run; returns a flat JSON record.

    Both parties share one engine (they are in-process here); the
    record carries total wall time, per-phase timings and modexp
    counts from the metrics recorder.
    """
    params = PublicParams.for_bits(bits)
    half = n // 2
    v_r = [f"r{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    recorder = MetricsRecorder()
    engine = create_engine(workers, on_modexp=recorder.count_modexp)
    recorder.attach_engine(engine)
    rng_r, rng_s = random.Random(f"{seed}/R"), random.Random(f"{seed}/S")
    start = time.perf_counter()
    with recorder.phase("setup"):
        receiver = IntersectionReceiver(v_r, params, rng_r, engine=engine)
        sender = IntersectionSender(v_s, params, rng_s, engine=engine)
    with recorder.phase("r.round1"):
        m1 = receiver.round1()
    with recorder.phase("s.round1"):
        m2 = sender.round1(m1)
    with recorder.phase("r.finish"):
        answer = receiver.finish(m2)
    wall_s = time.perf_counter() - start
    assert answer == {f"c{i}" for i in range(half)}
    report = recorder.report()
    return {
        "protocol": "intersection",
        "n": n,
        "bits": bits,
        "workers": workers,
        "wall_s": wall_s,
        "total_modexp": report["total_modexp"],
        "phases": report["phases"],
    }


def sweep(
    workers_list: list, sizes: list, bits_list: list
) -> list[dict]:
    """The full ablation grid, serial baseline included per cell."""
    records = []
    for bits in bits_list:
        for n in sizes:
            baseline = None
            for workers in workers_list:
                record = run_intersection_with_engine(n, bits, workers)
                if workers <= 1:
                    baseline = record["wall_s"]
                record["speedup_vs_serial"] = (
                    baseline / record["wall_s"]
                    if baseline is not None and record["wall_s"]
                    else None
                )
                records.append(record)
    return records


@register(
    "parallelism.batch-speedup",
    smoke={"bits": 512, "batches": [32, 96], "max_workers": 2},
    full={"bits": 1024, "batches": [32, 128, 512], "max_workers": 4},
    summary="Raw batch modexp shared by P threads vs the model's "
            "ideal 1/P.",
)
def batch_speedup(ctx) -> list[dict]:
    """Measure parallel_pow speedup at growing batch sizes."""
    group = QRGroup.for_bits(ctx.param("bits"))
    exponent = group.random_exponent(ctx.rng)
    workers = min(ctx.param("max_workers"), available_cpus())
    records = []
    for batch in ctx.param("batches"):
        xs = [group.random_element(ctx.rng) for _ in range(batch)]
        result = measure_speedup(xs, exponent, group.p, processors=workers)
        records.append({
            "id": f"batch{batch}",
            "batch": batch,
            "workers": workers,
            "ideal_speedup": result.ideal,
            "metrics": {
                "sequential_s": round(result.sequential_s, 6),
                "parallel_s": round(result.parallel_s, 6),
                "speedup": round(result.speedup, 3),
            },
        })
    return records


@register(
    "parallelism.engine-sweep",
    smoke={"workers": [1, 2], "sizes": [64], "bits": [256]},
    full={"workers": [1, 2, 4], "sizes": [64, 512], "bits": [256, 512]},
    summary="End-to-end intersection through the party state machines "
            "with a shared thread engine: workers x n x bits.",
)
def engine_sweep(ctx) -> list[dict]:
    """Run the real-protocol engine sweep; one record per grid cell."""
    cpus = available_cpus()
    workers_list = sorted({min(w, cpus) for w in ctx.param("workers")})
    raw = sweep(workers_list, ctx.param("sizes"), ctx.param("bits"))
    records = []
    for row in raw:
        assert row["total_modexp"] >= 2 * row["n"]
        records.append({
            "id": f"w{row['workers']}-n{row['n']}-k{row['bits']}",
            "protocol": row["protocol"],
            "n": row["n"],
            "bits": row["bits"],
            "workers": row["workers"],
            "total_modexp": row["total_modexp"],
            "metrics": {
                "wall_s": round(row["wall_s"], 6),
                "speedup_vs_serial": (
                    round(row["speedup_vs_serial"], 3)
                    if row["speedup_vs_serial"] is not None else None
                ),
            },
        })
    return records
