#!/usr/bin/env python3
"""Beyond the paper's four operations: aggregation and selection.

The paper's conclusions ask for minimal-disclosure protocols "for other
database operations such as aggregations", and its related work points
at PIR for the selection operation. This demo runs both extensions:

* equijoin-sum - R learns SUM(val_S(v)) over the intersection (e.g.
  combined exposure across common counterparties) without learning the
  individual amounts or which of its values matched;
* private selection - R retrieves one record by position without S
  learning which one (symmetric-PIR-style, built on 1-of-n OT).

Run:  python examples/aggregates_and_selection.py
"""

import random

from repro.db.query import EquijoinSumQuery, SelectionQuery
from repro.protocols.parties import PublicParams
from repro.protocols.selection import run_selection
from repro.protocols.spec import PROTOCOLS, run_pair


def main() -> None:
    params = PublicParams.for_bits(512)

    # ------------------------------------------------------------------
    # Equijoin-sum: two banks computing combined exposure to shared
    # counterparties, without revealing their client lists or amounts.
    # ------------------------------------------------------------------
    bank_r_clients = ["acme", "globex", "initech", "umbrella"]
    bank_s_exposures = {"globex": 1_200_000, "initech": 350_000,
                        "wayne": 9_000_000, "stark": 50_000}

    # Both parties in one process, each on its own randomness; R's
    # machine holds the answer and the match count it learned.
    spec = PROTOCOLS["equijoin-sum"]
    receiver, _, wires = run_pair(
        spec, bank_r_clients, bank_s_exposures, params,
        random.Random("77/R"), random.Random("77/S"),
    )
    total = receiver.finish()
    print("Equijoin-sum (aggregate over the intersection)")
    print(f"  {EquijoinSumQuery().profile.describe()}")
    print(f"  R's answer: combined exposure = ${total:,}")
    print(f"  matches found (count only): {receiver.state.match_count}")
    print(f"  wire traffic: {spec.transcript(wires).total_bytes} bytes")
    expected = sum(v for k, v in bank_s_exposures.items() if k in bank_r_clients)
    assert total == expected
    print(f"  (matches plaintext: ${expected:,})\n")

    # ------------------------------------------------------------------
    # Private selection: R fetches record #2 from S's table of 6
    # records; S cannot tell which record was taken.
    # ------------------------------------------------------------------
    records = [f"dossier for case {i:03d}".encode() for i in range(6)]
    selection = run_selection(
        2, records, params, (random.Random("sel/R"), random.Random("sel/S"))
    )
    print("Private selection (symmetric-PIR-style)")
    print(f"  {SelectionQuery().profile.describe()}")
    print(f"  R retrieved: {selection.record.decode()!r}")
    print(f"  S's entire view: {len(list(selection.run.s_view.received))} "
          f"message(s) of uniform group elements - index hidden")
    print(f"  wire traffic: {selection.run.total_bytes} bytes "
          f"(O(n): all {selection.n_records} records ship encrypted)")


if __name__ == "__main__":
    main()
