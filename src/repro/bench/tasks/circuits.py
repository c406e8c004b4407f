"""Area ``circuits`` — the garbled-circuit baseline, run for real.

Yao PSI vs our protocol on the same inputs, and the garbled-table
volume of actually built circuits vs the 4-k0-bits-per-gate model.
"""

from __future__ import annotations

import random
import time

from ...circuits.builders import brute_force_intersection_circuit
from ...circuits.costmodel import CircuitCostModel
from ...circuits.garble import garble, yao_intersection
from ...crypto.groups import QRGroup
from ...protocols.base import ProtocolSuite
from ...protocols.intersection import run_intersection
from ..registry import register

__all__ = []


def _inputs(n: int, rng: random.Random, width: int = 16):
    """Sample n-value S and R inputs with ~50% overlap from 2**width."""
    universe = list(range(1 << width))
    v_s = rng.sample(universe, n)
    v_r = rng.sample(v_s, n // 2) + rng.sample(universe, n - n // 2)
    return v_s, list(dict.fromkeys(v_r))[:n]


@register(
    "circuits.yao-empirical",
    smoke={"bits": 256, "sizes": [4, 8], "width": 16},
    full={"bits": 256, "sizes": [4, 8, 16], "width": 16},
    summary="Appendix A made empirical: Yao PSI vs our protocol on "
            "identical inputs; the communication gap widens with n.",
)
def yao_empirical(ctx) -> list[dict]:
    """Run both protocols at each n; assert equal answers, record gap."""
    group = QRGroup.for_bits(ctx.param("bits"))
    width = ctx.param("width")
    records = []
    gaps = []
    for n in ctx.param("sizes"):
        v_s, v_r = _inputs(n, random.Random(n), width=width)
        rng = random.Random(n)

        started = time.perf_counter()
        yao = yao_intersection(v_s, v_r, width=width, group=group, rng=rng)
        yao_s = time.perf_counter() - started

        suite = ProtocolSuite.default(bits=ctx.param("bits"), seed=n)
        started = time.perf_counter()
        ours = run_intersection(v_r, v_s, suite)
        ours_s = time.perf_counter() - started

        assert yao.intersection == ours.intersection == (set(v_s) & set(v_r))
        gap = yao.total_bytes / ours.run.total_bytes
        gaps.append(gap)
        records.append({
            "id": f"n{n}",
            "n": n,
            "yao_bytes": yao.total_bytes,
            "ours_bytes": ours.run.total_bytes,
            "comm_gap_x": round(gap, 1),
            "metrics": {
                "yao_s": round(yao_s, 6),
                "ours_s": round(ours_s, 6),
            },
        })
    # Quadratic vs linear: the gap must widen monotonically with n,
    # and is past 10x before n = 8.
    assert gaps == sorted(gaps) and gaps[-1] > 10
    return records


@register(
    "circuits.garbling",
    smoke={"sizes": [2, 4]},
    full={"sizes": [2, 4, 8]},
    summary="Garbled-table volume of actually built circuits vs the "
            "4 k0 bits/gate model (constant factor 544/256 for "
            "128-bit labels).",
)
def garbling(ctx) -> list[dict]:
    """Garble brute-force PSI circuits; check the table-volume model."""
    cm = CircuitCostModel()
    rng = random.Random(0)
    records = []
    for n in ctx.param("sizes"):
        circuit = brute_force_intersection_circuit(8, n, n)
        (garbled, _), elapsed = ctx.timeit(lambda c=circuit: garble(c, rng))
        assert len(garbled.tables) == circuit.gate_count
        built_bits = 8 * garbled.table_bytes
        model_bits = 4 * cm.k0 * circuit.gate_count
        ratio = built_bits / model_bits
        assert abs(ratio - 544 / 256) < 0.03
        records.append({
            "id": f"n{n}",
            "n": n,
            "gates": circuit.gate_count,
            "built_bits": built_bits,
            "model_bits": model_bits,
            "label_factor_x": round(ratio, 3),
            "metrics": {"garble_s": round(elapsed, 6)},
        })
    return records
