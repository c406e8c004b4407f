"""Area ``leakage`` — S5.2 equijoin-size leakage characterization.

The duplicate-distribution sweep between the paper's two extremes,
plus the live-protocol check that the wire-visible overlap matrix
equals the plaintext analysis.
"""

from __future__ import annotations

from ...analysis.leakage import equijoin_size_leak, leakage_profile
from ...crypto.numtheory import _party_rngs
from ...db.multiset import ValueMultiset
from ...protocols.parties import PublicParams
from ...protocols.spec import PROTOCOLS, run_pair
from ...workloads.generator import multiset_pair
from ..registry import register

__all__ = []


def _distinct_count_multisets(n: int, overlap: int):
    """Every value gets a unique duplicate count (the worst case)."""
    values_r = [f"v{i}" for i in range(n)]
    values_s = (
        [f"v{i}" for i in range(overlap)]
        + [f"s{i}" for i in range(n - overlap)]
    )
    ms_r = ValueMultiset.from_values(
        [v for i, v in enumerate(values_r) for _ in range(i + 1)]
    )
    ms_s = ValueMultiset.from_values(
        [v for i, v in enumerate(values_s) for _ in range(i + 1)]
    )
    return ms_r, ms_s


@register(
    "leakage.duplicate-distributions",
    smoke={"n": 20, "overlap": 8, "live_n": 12, "live_overlap": 5,
           "bits": 128},
    full={"n": 40, "overlap": 16, "live_n": 12, "live_overlap": 5,
          "bits": 128},
    summary="S5.2: identified fraction from uniform duplicates (0.0) "
            "to all-distinct counts (1.0), Zipf points in between; "
            "live protocol leak equals the plaintext analysis.",
)
def duplicate_distributions(ctx) -> list[dict]:
    """Sweep duplicate distributions and check the live protocol."""
    n, overlap = ctx.param("n"), ctx.param("overlap")
    records = []

    def profile_record(rec_id: str, ms_r, ms_s, **extra) -> dict:
        fraction = leakage_profile(ms_r, ms_s).identified_fraction(n)
        assert 0.0 <= fraction <= 1.0
        return {
            "id": rec_id,
            "n": n,
            "overlap": overlap,
            "identified_fraction": round(fraction, 4),
            **extra,
        }

    ms_r, ms_s = multiset_pair(n, n, overlap, ctx.rng, uniform_count=3)
    uniform = profile_record("uniform-d3", ms_r, ms_s, distribution="uniform")
    assert uniform["identified_fraction"] == 0.0
    records.append(uniform)

    for alpha in (2.5, 1.1):
        ms_r, ms_s = multiset_pair(n, n, overlap, ctx.rng, alpha=alpha)
        records.append(profile_record(
            f"zipf-a{alpha}", ms_r, ms_s, distribution=f"zipf({alpha})"
        ))

    ms_r, ms_s = _distinct_count_multisets(n, overlap)
    distinct = profile_record(
        "all-distinct", ms_r, ms_s, distribution="distinct-counts"
    )
    assert distinct["identified_fraction"] == 1.0
    records.append(distinct)

    live_n = ctx.param("live_n")
    ms_r, ms_s = multiset_pair(
        live_n, live_n, ctx.param("live_overlap"), ctx.rng
    )
    receiver, sender, wires = run_pair(
        "equijoin-size", ms_r, ms_s, PublicParams.for_bits(ctx.param("bits")),
        *_party_rngs(6),
    )
    transcript = PROTOCOLS["equijoin-size"].transcript(wires)
    leak = equijoin_size_leak(receiver, sender, transcript)
    profile = leakage_profile(ms_r, ms_s)
    assert leak.partition_overlap == profile.matrix
    records.append({
        "id": "live-protocol",
        "n": live_n,
        "overlap": ctx.param("live_overlap"),
        "wire_matrix_equals_analysis": True,
        "partitions": len(profile.matrix),
    })
    return records
