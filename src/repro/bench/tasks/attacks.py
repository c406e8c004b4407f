"""Area ``attacks`` — the paper's negative results, measured.

The S3.1 dictionary attack on the naive hash protocol, and the
footnote-3 positional attack on a size protocol whose step-4(b)
reordering can be switched off.
"""

from __future__ import annotations

from ...net.runner import ProtocolRun
from ...protocols.audit import audit_view
from ...protocols.base import ProtocolSuite, sorted_ciphertexts
from ...protocols.intersection import run_intersection
from ...protocols.naive_hash import dictionary_attack, run_naive_intersection
from ...workloads.generator import overlapping_sets
from ..registry import register

__all__ = []


def intersection_size_run(v_r, v_s, suite, reorder_z_r: bool):
    """The S5.1 size protocol with the step-4(b) reordering switchable.

    Returns ``(size, recovered, run)``: the computed intersection size,
    the set R recovers via the positional attack, and the transcript.
    With ``reorder_z_r=False`` the size-only protocol degrades to the
    full intersection protocol — the paper's footnote-3 warning.
    """
    run = ProtocolRun(protocol="intersection_size_ablation")
    r_values = sorted(set(v_r), key=repr)
    s_values = sorted(set(v_s), key=repr)
    x_r = suite.hash_side("R", r_values)
    x_s = suite.hash_side("S", s_values)
    e_r = suite.cipher.sample_key(suite.rng_r)
    e_s = suite.cipher.sample_key(suite.rng_s)

    # R ships Y_R *unsorted* (paired with its own value order, which a
    # semi-honest R legitimately remembers).
    y_r = suite.cipher.encrypt_many(e_r, x_r)
    y_r_received = run.to_s("3:Y_R", y_r)

    y_s_received = run.to_r(
        "4a:Y_S", sorted_ciphertexts(suite.cipher.encrypt_many(e_s, x_s))
    )
    z_r = suite.cipher.encrypt_many(e_s, y_r_received)
    if reorder_z_r:
        z_r = sorted_ciphertexts(z_r)
    z_r_received = run.to_r("4b:Z_R", z_r)

    z_s = set(suite.cipher.encrypt_many(e_r, y_s_received))
    size = len(z_s & set(z_r_received))

    # R's positional attack: if Z_R came back in Y_R order, position i
    # of Z_R corresponds to R's value i.
    recovered = {
        r_values[i] for i, z in enumerate(z_r_received) if z in z_s
    }
    return size, recovered, run


@register(
    "attacks.naive-dictionary",
    smoke={"bits": 128, "domain": 200, "n_s": 40, "n_r": 25},
    full={"bits": 256, "domain": 400, "n_s": 80, "n_r": 50},
    summary="S3.1: dictionary attack recovers 100% of V_S from the "
            "naive hash protocol and 0% from ours.",
)
def naive_dictionary(ctx) -> list[dict]:
    """Run the attack against both protocols over the same domain."""
    bits = ctx.param("bits")
    suite = ProtocolSuite.default(bits=bits, seed=31)
    domain = [f"ssn-{i:05d}" for i in range(ctx.param("domain"))]
    v_s = domain[100:100 + ctx.param("n_s")]
    v_r = domain[: ctx.param("n_r")]

    naive = run_naive_intersection(v_r, v_s, suite)
    recovered_naive, naive_s = ctx.timeit(
        lambda: dictionary_attack(naive.observed_hashes, domain, suite.hash)
    )
    assert recovered_naive == set(v_s)

    secure = run_intersection(v_r, v_s, suite)
    observed = set(secure.run.r_view.flat_integers())
    recovered_secure, secure_s = ctx.timeit(
        lambda: dictionary_attack(observed, domain, suite.hash)
    )
    assert recovered_secure == set()

    return [
        {
            "id": "naive",
            "protocol": "naive-hash",
            "domain": len(domain),
            "recovered": len(recovered_naive),
            "of": len(v_s),
            "metrics": {"attack_s": round(naive_s, 6)},
        },
        {
            "id": "secure",
            "protocol": "intersection-s33",
            "domain": len(domain),
            "recovered": len(recovered_secure),
            "of": len(v_s),
            "metrics": {"attack_s": round(secure_s, 6)},
        },
    ]


@register(
    "attacks.sorting-ablation",
    smoke={"bits": 128, "n_r": 20, "n_s": 25, "overlap": 9},
    full={"bits": 256, "n_r": 40, "n_s": 50, "overlap": 18},
    summary="Footnote 3: skipping the 4(b) reorder lets R's positional "
            "attack recover the full intersection; the audit flags it.",
)
def sorting_ablation(ctx) -> list[dict]:
    """Run the size protocol with and without the 4(b) reorder."""
    bits = ctx.param("bits")
    v_r, v_s, expected = overlapping_sets(
        ctx.param("n_r"), ctx.param("n_s"), ctx.param("overlap"), ctx.rng
    )
    records = []
    for reorder in (True, False):
        suite = ProtocolSuite.default(bits=bits, seed=8)
        size, recovered, run = intersection_size_run(
            v_r, v_s, suite, reorder_z_r=reorder
        )
        assert size == len(expected)
        if not reorder:
            assert recovered == expected
            report = audit_view(
                run.r_view, suite.group, suite.hash,
                counterpart_values=list(v_s),
            )
            failed = {c.name for c in report.failures()}
            assert any(name.startswith("sorted:") for name in failed)
            audit_flagged = True
        else:
            assert len(recovered & expected) < len(expected)
            audit_flagged = False
        records.append({
            "id": "reordered" if reorder else "unsorted",
            "reorder_z_r": reorder,
            "overlap": len(expected),
            "positionally_recovered": len(recovered & expected),
            "audit_flags_sorted_check": audit_flagged,
        })
    return records
