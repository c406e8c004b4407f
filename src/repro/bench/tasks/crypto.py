"""Area ``crypto`` — substrate costs: hashing, collisions, key size."""

from __future__ import annotations

import time

from ...analysis.calibration import calibrate
from ...api import run
from ...crypto.groups import QRGroup
from ...crypto.hashing import (
    SquareHash,
    TryIncrementHash,
    find_collisions,
    log10_collision_probability,
)
from ..registry import register

__all__ = []  # tasks register by side effect; nothing to re-export


@register(
    "crypto.collision-bound",
    smoke={"cases": [[1024, 10**6], [512, 10**6]]},
    full={"cases": [[1024, 10**6], [1024, 10**4], [512, 10**6], [2048, 10**6]]},
    summary="S3.2.2: Pr[hash collision] at the paper's parameters "
            "(paper: ~1e-295 at k=1024, n=1e6).",
)
def collision_bound(ctx) -> list[dict]:
    """Recompute the S3.2.2 collision bound; pure math, no timing."""
    records = []
    for bits, n in ctx.param("cases"):
        records.append({
            "id": f"k{bits}-n{n:.0e}",
            "bits": bits,
            "n": n,
            "log10_pr_collision": round(
                log10_collision_probability(n, 2**bits // 2), 2
            ),
            "paper": "~1e-295 at k=1024, n=1e6",
        })
    return records


@register(
    "crypto.hash-throughput",
    smoke={"bits": 256, "values": 50, "check_values": 1000},
    full={"bits": 1024, "values": 300, "check_values": 10_000},
    summary="Try-and-increment hash into QR_p and the sort-based "
            "collision check the bound justifies.",
)
def hash_throughput(ctx) -> list[dict]:
    """Time hashing + the duplicate check at the chosen modulus size."""
    bits = ctx.param("bits")
    count = ctx.param("values")
    group = QRGroup.for_bits(bits)
    hash_fn = TryIncrementHash(group)
    values = [f"value-{i}" for i in range(count)]
    _, hash_s = ctx.timeit(lambda: hash_fn.hash_set(values))
    n_check = ctx.param("check_values")
    hashes = [group.random_element(ctx.rng) for _ in range(n_check)]
    collisions, check_s = ctx.timeit(lambda: find_collisions(hashes))
    return [{
        "id": f"k{bits}",
        "bits": bits,
        "hashed_values": count,
        "checked_values": n_check,
        "collisions_found": len(collisions),
        "metrics": {
            "hash_elapsed_s": round(hash_s, 6),
            "check_elapsed_s": round(check_s, 6),
        },
    }]


@register(
    "crypto.hash-construction",
    smoke={"bits": 256, "values": 60},
    full={"bits": 1024, "values": 300},
    summary="DESIGN.md choice 1: try-and-increment vs hash-and-square "
            "constructions for hashing into QR_p.",
)
def hash_construction(ctx) -> list[dict]:
    """Time both hash-into-QR constructions on the same value set."""
    group = QRGroup.for_bits(ctx.param("bits"))
    values = [f"v{i}" for i in range(ctx.param("values"))]
    timings = {}
    for name, cls in (("try_increment", TryIncrementHash),
                      ("square", SquareHash)):
        hash_fn = cls(group)
        out, elapsed = ctx.timeit(lambda h=hash_fn: h.hash_set(values))
        assert all(x in group for x in out)
        timings[name] = elapsed
    return [{
        "id": f"k{ctx.param('bits')}",
        "bits": ctx.param("bits"),
        "values": len(values),
        "metrics": {
            "try_increment_s": round(timings["try_increment"], 6),
            "square_s": round(timings["square"], 6),
        },
    }]


@register(
    "crypto.keysize-ablation",
    smoke={"sizes": [128, 256], "n": 8, "samples": 3},
    full={"sizes": [256, 512, 1024, 2048], "n": 24, "samples": 8},
    summary="Section 6's k=1024 design point ablated: C_e is "
            "superlinear in k, wire bits linear in k.",
)
def keysize_ablation(ctx) -> list[dict]:
    """Sweep the modulus size through a real intersection-size run."""
    n = ctx.param("n")
    records = []
    for bits in ctx.param("sizes"):
        ce = calibrate(bits=bits, samples=ctx.param("samples")).constants.ce_seconds
        v_r = [f"r{i}" for i in range(n)]
        v_s = [f"s{i}" for i in range(n // 2)] + v_r[: n - n // 2]
        started = time.perf_counter()
        result = run("intersection-size", v_r, v_s, bits=bits, seed=bits)
        elapsed = time.perf_counter() - started
        assert result.answer == n - n // 2
        records.append({
            "id": f"k{bits}",
            "bits": bits,
            "n": n,
            "wire_bytes": result.transcript.total_bytes,
            "metrics": {
                "ce_s": round(ce, 6),
                "run_s": round(elapsed, 6),
            },
        })
    # Wire volume is linear in k: one codeword count, ceil(k/8) + 5
    # bytes each, at every size.
    codewords = [r["wire_bytes"] / (r["bits"] // 8 + 5) for r in records]
    assert max(codewords) < 1.02 * min(codewords)
    return records
