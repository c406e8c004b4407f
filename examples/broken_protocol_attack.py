#!/usr/bin/env python3
"""Why the naive hash protocol is broken (Section 3.1), live.

The "simple protocol that appears to work" ships S's hashed set to R.
A semi-honest R then hashes every candidate value in the domain and
tests membership - over a small domain (SSNs, phone numbers, diagnosis
codes...) it recovers S's entire set. The commutative-encryption
protocol of Section 3.3 resists the identical attack.

Run:  python examples/broken_protocol_attack.py
"""

import repro
from repro.protocols.naive_hash import dictionary_attack, run_naive_intersection
from repro.protocols.parties import PublicParams


def main() -> None:
    # Both protocols hash with the h these public parameters name.
    params = PublicParams.for_bits(512)
    _, hash_, _ = params.build()

    # A small value domain: 4-digit patient codes.
    domain = [f"patient-{i:04d}" for i in range(2000)]
    v_s = domain[250:400]  # S's private patients
    v_r = domain[300:330]  # R legitimately shares a few

    print(f"Domain: {len(domain)} possible values")
    print(f"S holds {len(v_s)} values; R holds {len(v_r)}; "
          f"true intersection = {len(set(v_s) & set(v_r))}\n")

    # ------------------------------------------------------------------
    # The naive protocol: correct answer, catastrophic leak.
    # ------------------------------------------------------------------
    naive = run_naive_intersection(v_r, v_s, params)
    print(f"[naive] R computed the intersection: {len(naive.intersection)} values. But...")
    recovered = dictionary_attack(naive.observed_hashes, domain, hash_)
    extra = recovered - naive.intersection
    print(f"[naive] dictionary attack recovered {len(recovered)}/{len(v_s)} "
          f"of S's set - {len(extra)} values R was never entitled to!\n")
    assert recovered == set(v_s)

    # ------------------------------------------------------------------
    # The Section 3.3 protocol: same answer, attack finds nothing.
    # ------------------------------------------------------------------
    secure = repro.run("intersection", v_r, v_s, params=params, seed=13)
    assert secure.answer == naive.intersection
    observed = set(secure.transcript.r_view.flat_integers())
    recovered = dictionary_attack(observed, domain, hash_)
    print(f"[S3.3]  R computed the same intersection: {len(secure.answer)} values.")
    print(f"[S3.3]  the same attack against R's full view recovered "
          f"{len(recovered)} values - every codeword is f_eS(h(v)) under "
          f"S's secret key, useless without e_S.")


if __name__ == "__main__":
    main()
