"""Area ``incremental`` — repeated queries through the Catalog API.

The repeated-query claim the Catalog/Peer redesign makes: after one
full run, a query over a churned table costs O(|delta|) modexp work,
not O(|V|).  This area measures exactly that crossover — a sweep of
churn fractions over a fixed table, each fraction timing (a) the
delta query through a warm :class:`repro.Catalog` pair and (b) a full
re-run over the same mutated tables — and records the speedup.  Tiny
deltas should sit far above 1x (the acceptance floor for the 1%
point is 5x at |V|=2000); at 50% churn the delta path's bookkeeping
approaches the full run and the ratio flattens toward 1, which is
the honest shape of the tradeoff, not a regression.

Every fraction is measured a second time on catalogs with a
``cache_dir`` (fsync on): the ``-cached`` records time the same delta
query including its commit to the on-disk catalog cache and count the
bytes and writes that commit put through the cache's I/O seam, so the
regression gate also watches the write path - which must stay
O(|delta|) - that the uncached sweep never touches (the byte count is
exact, so it is gated too: smoke timings sit under the gate's noise
floor, a rewrite-per-delta does not).
"""

from __future__ import annotations

import random
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from ...net.diskfaults import JournalIO
from ..registry import register

__all__ = ["sweep_fractions"]


def _tables(n: int) -> tuple[list[str], list[str]]:
    """Two tables with a 50% overlap, |V| = n each."""
    half = n // 2
    common = [f"common-{i}" for i in range(half)]
    v_r = common + [f"r-only-{i}" for i in range(n - half)]
    v_s = common + [f"s-only-{i}" for i in range(n - half)]
    return v_r, v_s


def _churn(catalog, prefix: str, k: int, victims: list[str]) -> None:
    """Stage ``k`` inserts and ``k`` deletes on one catalog."""
    for i in range(k):
        catalog.insert(f"{prefix}-new-{i}")
    for value in victims[:k]:
        catalog.delete(value)


class _CountingIO(JournalIO):
    """Real cache I/O, with the writes and their bytes counted."""

    writes = bytes = 0

    def write(self, fh, data: bytes) -> None:
        self.writes += 1
        self.bytes += len(data)
        super().write(fh, data)


def _delta_after_full(v_r, v_s, k, bits, protocol, seeds, cache_root=None):
    """A fresh pair's full query, ``k`` inserts + ``k`` deletes staged
    per side, and the delta query; with ``cache_root`` both catalogs
    persist to it (fsync on).  Returns the mutated tables, the two
    wall times, the delta's answer and the cache I/O of its commit."""
    import repro

    io = _CountingIO()
    cat_r, cat_s = (
        repro.open_catalog(
            list(values), bits=bits, seed=seed, cache_io=io,
            cache_dir=cache_root and Path(cache_root, side),
        )
        for side, values, seed in zip("rs", (v_r, v_s), seeds)
    )
    peer = cat_r.pair(cat_s)
    started = time.perf_counter()
    peer.query(protocol)
    full_s = time.perf_counter() - started

    _churn(cat_r, "r", k, v_r)
    _churn(cat_s, "s", k, v_s)
    writes, nbytes = io.writes, io.bytes
    started = time.perf_counter()
    delta = peer.query(protocol)
    delta_s = time.perf_counter() - started
    assert delta.mode == "delta"
    return SimpleNamespace(
        tables=(list(cat_r.data), list(cat_s.data)),
        full_s=full_s, delta_s=delta_s, answer=delta.answer,
        cache_writes=io.writes - writes, cache_bytes=io.bytes - nbytes,
    )


def sweep_fractions(
    n: int,
    fractions: list[float],
    bits: int,
    protocol: str,
    rng: random.Random,
) -> list[dict]:
    """Two records per churn fraction: delta vs full-rerun wall time,
    then the same delta on cache-backed catalogs.

    Every fraction gets fresh catalogs (so one point's committed
    delta never warms the next), one full query to establish the
    incremental state, ``k = max(1, n*fraction)`` staged inserts plus
    ``k`` deletes per side, and then two timed runs over identical
    mutated tables: the delta query on the warm pair and a cold full
    exchange on a second pair.  Both answers must agree — a fast
    wrong answer is not a speedup.  The ``-cached`` record repeats the
    warm pair with a ``cache_dir`` each and reports what the delta's
    commit wrote.
    """
    import repro

    v_r, v_s = _tables(n)
    records, cached_records = [], []
    for fraction in fractions:
        k = max(1, int(n * fraction))
        seeds = rng.getrandbits(64), rng.getrandbits(64)
        warm = _delta_after_full(v_r, v_s, k, bits, protocol, seeds)

        # The baseline: a cold full run over the same mutated tables.
        cold_r, cold_s = (
            repro.open_catalog(table, bits=bits, seed=rng.getrandbits(64))
            for table in warm.tables
        )
        started = time.perf_counter()
        rerun = cold_r.pair(cold_s).query(protocol)
        rerun_s = time.perf_counter() - started

        facts = {"fraction": fraction, "n": n, "delta_values": 2 * k}
        records.append({
            "id": f"n{n}-frac-{fraction}",
            **facts,
            "answers_agree": warm.answer == rerun.answer,
            "metrics": {
                "elapsed_s": round(warm.full_s + warm.delta_s + rerun_s, 6),
                "full_first_s": round(warm.full_s, 6),
                "delta_s": round(warm.delta_s, 6),
                "full_rerun_s": round(rerun_s, 6),
                "speedup": (
                    round(rerun_s / warm.delta_s, 3) if warm.delta_s else 0.0
                ),
            },
        })

        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            cached = _delta_after_full(v_r, v_s, k, bits, protocol, seeds, tmp)
        cached_records.append({
            "id": f"n{n}-frac-{fraction}-cached",
            **facts,
            "answers_agree": cached.answer == rerun.answer,
            "cache_writes_per_delta": cached.cache_writes,
            "metrics": {
                "elapsed_s": round(cached.full_s + cached.delta_s, 6),
                "delta_cached_s": round(cached.delta_s, 6),
                # Exact, so the gate on it is free of timing noise.
                "cache_bytes_per_delta": cached.cache_bytes,
            },
        })
    return records + cached_records


@register(
    "incremental.delta-sweep",
    smoke={
        "n": 200, "bits": 96, "protocol": "intersection",
        "fractions": [0.01, 0.1],
    },
    full={
        "n": 2000, "bits": 128, "protocol": "intersection",
        "fractions": [0.001, 0.01, 0.1, 0.5],
    },
    source="benchmarks/bench_incremental.py",
    summary="Delta-query vs full-rerun wall time through the Catalog "
            "API, swept over churn fractions of |V| (the repeated-"
            "query crossover the incremental protocol buys), then "
            "the same deltas committing to an fsync'd catalog cache.",
    regress_on=(
        "delta_s", "full_rerun_s", "delta_cached_s", "cache_bytes_per_delta",
    ),
)
def delta_sweep(ctx) -> list[dict]:
    """Sweep churn fractions; record the delta/full crossover."""
    return sweep_fractions(
        n=ctx.param("n"),
        fractions=list(ctx.param("fractions")),
        bits=ctx.param("bits"),
        protocol=ctx.param("protocol"),
        rng=ctx.rng,
    )
