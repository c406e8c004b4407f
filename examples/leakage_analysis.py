#!/usr/bin/env python3
"""Exploring the equijoin-size protocol's characterized leak (S5.2).

The equijoin-size protocol reveals duplicate distributions, and R
learns |V_R(d) ∩ V_S(d')| for every pair of duplicate classes. This
demo sweeps duplicate structures from uniform (leak-free beyond the
size) to all-distinct (full intersection recovered) and shows the
fraction of R's values whose membership gets pinned down.

Run:  python examples/leakage_analysis.py
"""

import random

import repro
from repro.analysis.leakage import duplicate_distribution, leakage_profile
from repro.db.multiset import ValueMultiset
from repro.workloads.generator import multiset_pair


def main() -> None:
    rng = random.Random(3)
    n, overlap = 16, 7

    print("Equijoin-size leakage across duplicate distributions")
    print(f"(|V_R| = |V_S| = {n}, true intersection = {overlap})\n")

    scenarios = {
        "uniform duplicates (d=2)": multiset_pair(n, n, overlap, rng, uniform_count=2),
        "Zipf duplicates (alpha=1.5)": multiset_pair(n, n, overlap, rng, alpha=1.5),
    }
    # Worst case: every value occurs a distinct number of times.
    shared = [f"v{i}" for i in range(overlap)]
    only_r = [f"r{i}" for i in range(n - overlap)]
    only_s = [f"s{i}" for i in range(n - overlap)]
    ms_r = ValueMultiset.from_values(
        [v for i, v in enumerate(shared + only_r) for _ in range(i + 1)]
    )
    ms_s = ValueMultiset.from_values(
        [v for i, v in enumerate(shared + only_s) for _ in range(i + 1)]
    )
    scenarios["all-distinct duplicate counts"] = (ms_r, ms_s)

    for name, (ms_r, ms_s) in scenarios.items():
        result = repro.run("equijoin-size", ms_r, ms_s, bits=512, seed=3)
        profile = leakage_profile(ms_r, ms_s)
        fraction = profile.identified_fraction(ms_r.distinct_size)
        print(f"{name}:")
        print(f"  join size computed by R: {result.answer} "
              f"(truth: {ms_r.join_size(ms_s)})")
        seen = duplicate_distribution(result.transcript.r_view, "4a:Y_S")
        print(f"  R saw S's duplicate distribution: {seen}")
        print(f"  overlap matrix |V_R(d) ∩ V_S(d')|: {profile.matrix}")
        print(f"  -> R pinned down membership of {fraction:.0%} of its values"
              f" ({sorted(profile.certain_members)[:4]}{'...' if len(profile.certain_members) > 4 else ''} certain members)\n")

    print("Takeaway: the protocol's answer is identical in all three "
          "scenarios, but the side information ranges from 'nothing "
          "beyond the size' to 'the entire intersection' - exactly the "
          "paper's Section 5.2 characterization. Applications should "
          "check their duplicate structure before using equijoin size.")


if __name__ == "__main__":
    main()
