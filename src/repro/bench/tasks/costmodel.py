"""Area ``costmodel`` — analytic cost tables, validated against code.

The four Appendix A tables (gates, OT, communication, computation) and
the two Section 6 checks (wire traffic vs the bit formulas, modexp
counts vs the operation formulas).
"""

from __future__ import annotations

import hashlib
import math

from ...analysis.calibration import calibrate
from ...analysis.costmodel import CostConstants, ProtocolCostModel
from ...analysis.instrumentation import counting_suite
from ...api import run
from ...circuits.costmodel import CircuitCostModel
from ...crypto.ot import NaorPinkasCostModel, run_ot
from ...crypto.groups import QRGroup
from ...protocols.spec import run_pair
from ..registry import register

__all__ = []

#: Appendix A.2 paper rows — n: (input bits, table bits, ours bits).
_PAPER_COMM = {10**4: (1e9, 6.0e10, 3e7), 10**6: (1e11, 1.8e13, 3e9),
               10**8: (1e13, 4.9e15, 3e11)}
#: Appendix A.2 paper rows — n: (input C_e, eval C_r, ours C_e).
_PAPER_COMP = {10**4: (5e4, 4.7e8, 4e4), 10**6: (5e6, 1.5e11, 4e6),
               10**8: (5e8, 3.8e13, 4e8)}
#: Appendix A.1.2 paper rows — n: (m, gates); plus the brute-force row.
_PAPER_GATES = {10**4: (11, 2.3e8), 10**6: (19, 7.3e10), 10**8: (32, 1.9e13)}
_PAPER_BRUTE = {10**4: 6.3e9, 10**6: 6.3e13, 10**8: 6.3e17}


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel)


@register(
    "costmodel.appendix-a-gates",
    smoke={},
    full={},
    summary="A.1.2 circuit-size tables: partitioning m/f(n) rows and "
            "the brute-force row, rebuilt from the closed form.",
)
def appendixA_gates(ctx) -> list[dict]:
    """Regenerate the A.1.2 gate-count tables and check the paper rows."""
    cm = CircuitCostModel()
    records = []
    for row in cm.circuit_size_table():
        pm, pf = _PAPER_GATES[row.n]
        assert row.m == pm and _close(row.gates, pf, 0.05)
        records.append({
            "id": f"partition-n{row.n:.0e}",
            "n": row.n,
            "m": row.m,
            "gates": row.gates,
            "paper_gates": pf,
        })
    for n, expected in _PAPER_BRUTE.items():
        gates = cm.brute_force_gates(n, n)
        assert _close(gates, expected, 0.01)
        records.append({
            "id": f"brute-n{n:.0e}",
            "n": n,
            "gates": gates,
            "paper_gates": expected,
        })
    return records


@register(
    "costmodel.appendix-a-ot",
    smoke={"bits": 256, "runs": 4},
    full={"bits": 1024, "runs": 10},
    summary="A.1.1 Naor-Pinkas amortization (optimal l=8, 0.157 C_e, "
            "3200 bits) plus an executable DH-based OT timing.",
)
def appendixA_ot(ctx) -> list[dict]:
    """Sweep the batch parameter l and time one executable OT."""
    model = NaorPinkasCostModel(ce_over_cx=1000.0, k1_bits=100)
    best = model.optimal_l()
    assert best == 8
    assert abs(model.computation_cost(8) - 0.157) < 1e-3
    assert model.communication_bits(8) == 3200
    records = [
        {
            "id": f"l{l}",
            "l": l,
            "cot_ce": round(model.computation_cost(l), 4),
            "cot_bits": model.communication_bits(l),
            "optimal": l == best,
        }
        for l in (1, 2, 4, 6, 8, 10, 12)
    ]
    bits = ctx.param("bits")
    group = QRGroup.for_bits(bits)
    runs = ctx.param("runs")

    def transfer_batch():
        for _ in range(runs):
            out = run_ot(group, b"label-zero!!!!!!", b"label-one!!!!!!!",
                         ctx.rng.randrange(2), ctx.rng)
            assert out in (b"label-zero!!!!!!", b"label-one!!!!!!!")

    _, elapsed = ctx.timeit(transfer_batch)
    records.append({
        "id": f"executable-k{bits}",
        "bits": bits,
        "transfers": runs,
        "metrics": {"ot_s": round(elapsed / runs, 6)},
    })
    return records


@register(
    "costmodel.appendix-a-comparison",
    smoke={"cr_samples": 2000},
    full={"cr_samples": 20000},
    summary="A.2 circuit-vs-ours tables (bits and operation counts) "
            "with the 144-days-vs-0.5-hours headline and measured C_r.",
)
def appendixA_comparison(ctx) -> list[dict]:
    """Regenerate both A.2 tables and locate this machine's C_r."""
    cm = CircuitCostModel()
    records = []
    for row in cm.comparison_table():
        p_in, p_tab, p_ours = _PAPER_COMM[row.n]
        c_in, c_ev, c_ours = _PAPER_COMP[row.n]
        assert _close(row.circuit_input_bits, p_in, 0.03)
        assert _close(row.circuit_tables_bits, p_tab, 0.05)
        assert _close(row.ours_bits, p_ours, 0.03)
        assert _close(row.circuit_input_ce, c_in, 0.02)
        assert _close(row.circuit_eval_cr, c_ev, 0.05)
        assert _close(row.ours_ce, c_ours, 0.01)
        records.append({
            "id": f"n{row.n:.0e}",
            "n": row.n,
            "circuit_input_bits": row.circuit_input_bits,
            "circuit_tables_bits": row.circuit_tables_bits,
            "ours_bits": row.ours_bits,
            "circuit_input_ce": row.circuit_input_ce,
            "circuit_eval_cr": row.circuit_eval_cr,
            "ours_ce": row.ours_ce,
        })
    row_1m = {r.n: r for r in cm.comparison_table()}[10**6]
    circuit_days = cm.t1_transfer_days(row_1m.circuit_tables_bits)
    ours_hours = cm.t1_transfer_days(row_1m.ours_bits) * 24
    assert _close(circuit_days, 144, 0.05)
    assert _close(ours_hours, 0.5, 0.15)

    samples = ctx.param("cr_samples")
    payload = b"label-a" * 3 + b"label-b" * 3

    def prf_batch():
        for i in range(samples):
            hashlib.sha256(payload + i.to_bytes(4, "big")).digest()

    _, elapsed = ctx.timeit(prf_batch)
    records.append({
        "id": "headline",
        "circuit_t1_days": round(circuit_days, 1),
        "ours_t1_hours": round(ours_hours, 3),
        "paper": "144 days vs 0.5 hours",
        "metrics": {"cr_s": elapsed / samples},
    })
    return records


@register(
    "costmodel.section6-communication",
    smoke={"pairs": [[30, 30], [20, 60]], "bits": 128},
    full={"pairs": [[50, 50], [30, 90], [100, 20]], "bits": 128},
    summary="S6.1: codewords on the wire match the (n_S + 2 n_R) k and "
            "equijoin bit formulas exactly.",
)
def section6_communication(ctx) -> list[dict]:
    """Count codewords on real transcripts against the bit formulas."""
    bits = ctx.param("bits")

    def codewords(protocol, v_r, s_data, seed) -> int:
        result = run(protocol, v_r, s_data, bits=bits, seed=seed)
        return sum(
            len(view.flat_integers())
            for view in (result.transcript.r_view, result.transcript.s_view)
        )

    records = []
    for n_r, n_s in ctx.param("pairs"):
        v_r, v_s = [f"r{i}" for i in range(n_r)], [f"s{i}" for i in range(n_s)]
        assert codewords("intersection-size", v_r, v_s, n_r) == n_s + 2 * n_r
        assert codewords("intersection", v_r, v_s, n_r + 1) == n_s + 3 * n_r
        ext = {v: b"payload" for v in v_s}
        assert codewords("equijoin", v_r, ext, n_r + 2) == 4 * n_r + 2 * n_s
        records.append({
            "id": f"r{n_r}-s{n_s}",
            "n_r": n_r,
            "n_s": n_s,
            "size_codewords": n_s + 2 * n_r,
            "intersection_codewords": n_s + 3 * n_r,
            "equijoin_codewords": 4 * n_r + 2 * n_s,
        })
    model = ProtocolCostModel(CostConstants())
    assert model.intersection_bits(10**6, 10**6) == 3 * 10**6 * 1024
    records.append({
        "id": "paper-scale-t1",
        "n": 10**6,
        "intersection_bits": model.intersection_bits(10**6, 10**6),
        "t1_hours": round(
            model.transfer_seconds(model.intersection_bits(10**6, 10**6))
            / 3600, 3
        ),
    })
    return records


@register(
    "costmodel.section6-computation",
    smoke={"pairs": [[20, 20], [10, 40]], "calib_bits": 256,
           "calib_samples": 4},
    full={"pairs": [[50, 50], [20, 80], [100, 10]], "calib_bits": 1024,
          "calib_samples": 20},
    summary="S6.1: instrumented modexp counts equal the operation "
            "formulas; extrapolation to n=1M (paper: 2.22 h, P=10).",
)
def section6_computation(ctx) -> list[dict]:
    """Count modexps against the model, then extrapolate to paper scale."""
    model = ProtocolCostModel()
    records = []
    for n_r, n_s in ctx.param("pairs"):
        cs = counting_suite(bits=64)
        run_pair(
            "intersection", [f"r{i}" for i in range(n_r)],
            [f"s{i}" for i in range(n_s)], cs.params, *cs.rngs, crypto=cs.crypto,
        )
        predicted = model.intersection_ops(n_s, n_r)
        assert cs.counter.encryptions == predicted.encryptions
        inter_ops = cs.counter.encryptions

        cs = counting_suite(bits=64)
        run_pair(
            "equijoin", [f"s{i}" for i in range(n_r)],
            {f"s{i}": b"row" for i in range(n_s)}, cs.params, *cs.rngs,
            crypto=cs.crypto,
        )
        predicted_join = model.join_ops(n_s, n_r, min(n_r, n_s))
        assert cs.counter.encryptions == predicted_join.encryptions
        records.append({
            "id": f"r{n_r}-s{n_s}",
            "n_r": n_r,
            "n_s": n_s,
            "intersection_modexps": inter_ops,
            "equijoin_modexps": cs.counter.encryptions,
        })

    calibration, calib_s = ctx.timeit(lambda: calibrate(
        bits=ctx.param("calib_bits"), samples=ctx.param("calib_samples")
    ))
    measured = ProtocolCostModel(calibration.constants.with_processors(10))
    paper = ProtocolCostModel(CostConstants())
    n = 10**6
    theirs_h = paper.parallel_seconds(paper.intersection_seconds(n, n)) / 3600
    ours_h = (
        measured.parallel_seconds(measured.intersection_seconds(n, n)) / 3600
    )
    assert abs(theirs_h - 2.22) < 0.05
    records.append({
        "id": "extrapolate-1M",
        "n": n,
        "paper_hours": round(theirs_h, 3),
        "metrics": {
            "machine_hours": round(ours_h, 3),
            "calibrate_s": round(calib_s, 4),
        },
    })
    return records
