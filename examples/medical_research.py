#!/usr/bin/env python3
"""Application 2 - medical research (Sections 1.1, 6.2.2, Figure 2).

A researcher T wants the contingency table of

    select pattern, reaction, count(*)
    from T_R, T_S
    where T_R.person_id = T_S.person_id and T_S.drug = true
    group by T_R.pattern, T_S.reaction

where the DNA table T_R and the medical-history table T_S live in two
enterprises that refuse to reveal any individual's data. Figure 2's
algorithm answers it with four intersection-size runs whose doubly
encrypted sets go to T, so even the counts stay hidden from R and S.

Run:  python examples/medical_research.py
"""

import random

from repro.analysis.estimates import medical_research_estimate
from repro.apps.medical import plaintext_contingency, run_medical_research
from repro.protocols.parties import PublicParams
from repro.workloads.generator import medical_workload


def main() -> None:
    # Synthetic population with a planted DNA-reaction association.
    workload = medical_workload(
        400,
        random.Random(42),
        p_pattern=0.3,
        p_drug=0.55,
        p_reaction_given_pattern=0.65,
        p_reaction_without_pattern=0.08,
    )
    print(f"T_R: {len(workload.t_r)} DNA records at enterprise R")
    print(f"T_S: {len(workload.t_s)} medical histories at enterprise S\n")

    result = run_medical_research(
        workload.t_r, workload.t_s, PublicParams.for_bits(512),
        (random.Random("42/R"), random.Random("42/S")),
    )
    table = result.table

    print("Researcher T's contingency table (drug takers only):")
    print("                     reaction   no reaction")
    print(f"  DNA pattern      {table.pattern_reaction:9d} {table.pattern_no_reaction:12d}")
    print(f"  no DNA pattern   {table.no_pattern_reaction:9d} {table.no_pattern_no_reaction:12d}")

    with_pattern = table.pattern_reaction / max(
        table.pattern_reaction + table.pattern_no_reaction, 1
    )
    without = table.no_pattern_reaction / max(
        table.no_pattern_reaction + table.no_pattern_no_reaction, 1
    )
    print(f"\nAdverse-reaction rate: {with_pattern:.0%} with the pattern vs "
          f"{without:.0%} without - hypothesis supported.")

    # Validation against the plaintext SQL (only possible because this
    # demo owns both tables; the protocol parties never see this).
    truth = plaintext_contingency(workload.t_r, workload.t_s)
    assert table.as_dict() == truth.as_dict()
    print("(validated against the co-located plaintext SQL)\n")

    print(f"Wire traffic for the four queries: "
          f"{result.run.total_bytes / 1024:.0f} kB; "
          f"T received {len(result.run.t_view.received)} encrypted sets "
          f"and learned only the four counts.")

    est = medical_research_estimate()
    print(f"\nAt the paper's scale (1M ids/side): "
          f"~{est.computation_hours:.1f} h compute (paper: ~4 h), "
          f"~{est.communication_hours:.1f} h on a T1 (paper: ~1.5 h)")


if __name__ == "__main__":
    main()
