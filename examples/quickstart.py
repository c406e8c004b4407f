#!/usr/bin/env python3
"""Quickstart: the four minimal-sharing protocols in a few lines each.

Two parties - R(eceiver) and S(ender) - hold private value sets. Each
protocol computes one query while revealing only the answer plus the
set sizes (Section 2.2 of the paper).

Run:  python examples/quickstart.py
"""

import repro
from repro import PublicParams, Table
from repro.analysis.leakage import duplicate_distribution
from repro.db.query import (
    EquijoinQuery,
    EquijoinSizeQuery,
    IntersectionQuery,
    IntersectionSizeQuery,
)
from repro.protocols import join_tables


def main() -> None:
    customers_r = ["alice@x.com", "bob@y.org", "carol@z.net", "dave@w.io"]
    customers_s = ["bob@y.org", "dave@w.io", "erin@v.com"]

    # ------------------------------------------------------------------
    # 0. The one-call facade: any registered protocol, one line. The
    #    same call streams million-item sets with chunk_size=..., and
    #    repro.serve/repro.connect run it over real TCP.
    # ------------------------------------------------------------------
    quick = repro.run(
        "intersection", customers_r, customers_s, bits=512, seed=2003
    )
    print("One-call facade")
    print(f"  repro.run('intersection', ...) -> {sorted(quick.answer)}")
    print(f"  R learned |V_S| = {quick.size_v_s}; "
          f"S learned |V_R| = {quick.size_v_r}\n")

    # Agreed public parameters: a 512-bit safe prime group and the hash
    # into it. Each party draws its secret keys from its own randomness
    # (derived from the seed here, the OS CSPRNG without one). Every
    # result carries the run's transcript: both parties' views and the
    # bytes on the wire.
    params = PublicParams.for_bits(512)

    # ------------------------------------------------------------------
    # 1. Intersection (Section 3): R learns which values are shared.
    # ------------------------------------------------------------------
    result = repro.run(
        "intersection", customers_r, customers_s, params=params, seed=2003
    )
    print("Intersection protocol")
    print(f"  {IntersectionQuery().profile.describe()}")
    print(f"  R's answer: {sorted(result.answer)}")
    print(f"  R also learned |V_S| = {result.size_v_s}; "
          f"S learned |V_R| = {result.size_v_r}")
    print(f"  wire traffic: {result.transcript.total_bytes} bytes\n")

    # ------------------------------------------------------------------
    # 2. Intersection size (Section 5.1): R learns only the count.
    # ------------------------------------------------------------------
    result = repro.run(
        "intersection-size", customers_r, customers_s, params=params, seed=2003
    )
    print("Intersection-size protocol")
    print(f"  {IntersectionSizeQuery().profile.describe()}")
    print(f"  R's answer: |V_S ∩ V_R| = {result.answer}\n")

    # ------------------------------------------------------------------
    # 3. Equijoin (Section 4): R gets S's records for matching keys.
    # ------------------------------------------------------------------
    t_r = Table(("email", "segment"), [(e, i % 2) for i, e in enumerate(customers_r)])
    t_s = Table(
        ("email", "ltv"),
        [("bob@y.org", 120), ("dave@w.io", 45), ("erin@v.com", 990)],
    )
    joined, _ = join_tables(t_r, t_s, "email", params=params)
    print("Equijoin protocol")
    print(f"  {EquijoinQuery().profile.describe()}")
    print(f"  joined table columns: {joined.columns}")
    for row in joined.rows:
        print(f"    {row}")
    print()

    # ------------------------------------------------------------------
    # 4. Equijoin size (Section 5.2): only the join cardinality - but
    #    note the characterized duplicate-distribution leak.
    # ------------------------------------------------------------------
    purchases_r = ["bob@y.org"] * 3 + ["alice@x.com"] * 2
    purchases_s = ["bob@y.org"] * 2 + ["erin@v.com"]
    result = repro.run(
        "equijoin-size", purchases_r, purchases_s, params=params, seed=2003
    )
    leak = duplicate_distribution(result.transcript.r_view, "4a:Y_S")
    print("Equijoin-size protocol")
    print(f"  {EquijoinSizeQuery().profile.describe()}")
    print(f"  R's answer: |T_S ⋈ T_R| = {result.answer}")
    print(f"  leak: R saw S's duplicate distribution {leak}")


if __name__ == "__main__":
    main()
