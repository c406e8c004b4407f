"""The equijoin-size protocol (Section 5.2).

Runs the intersection-size protocol on the *multisets* of attribute
values (duplicates kept), then computes the join size instead of the
intersection size: every matched codeword contributes the product of
its multiplicities on the two sides.

The paper characterizes exactly what extra information this leaks:

* R learns the distribution of duplicates in ``T_S.A`` and S learns the
  distribution of duplicates in ``T_R.A`` (multiplicities of identical
  ciphertexts are visible);
* partitioning values by duplicate count ``d``, R learns
  ``|V_R(d) ∩ V_S(d')|`` for every pair of partitions - so with all
  counts equal only the size leaks, while with all counts distinct R
  recovers the full intersection.

The result object reports the leak explicitly so applications can
decide whether it is acceptable (see :mod:`repro.analysis.leakage`).
"""

from __future__ import annotations

from collections import Counter
from typing import Hashable, Iterable

from ..db.multiset import ValueMultiset
from .base import EquijoinSizeResult, ProtocolSuite
from .spec import run_recorded

__all__ = ["run_equijoin_size", "join_size_tables"]


def run_equijoin_size(
    v_r: Iterable[Hashable] | ValueMultiset,
    v_s: Iterable[Hashable] | ValueMultiset,
    suite: ProtocolSuite | None = None,
) -> EquijoinSizeResult:
    """Execute the Section 5.2 protocol; R learns ``|T_S ⋈ T_R|``.

    The steps live in
    :class:`~repro.protocols.parties.EquijoinSizeReceiver` /
    ``EquijoinSizeSender``; this driver runs the registered
    ``"equijoin-size"`` spec in process, records it and then derives
    the leakage diagnostics from the parties' retained observations.

    Args:
        v_r: R's attribute values *with duplicates* (or a multiset).
        v_s: S's attribute values with duplicates.
        suite: agreed parameters; fresh 1024-bit default when omitted.
    """
    join_size, r_state, s_state, run = run_recorded(
        "equijoin-size", v_r, v_s, suite
    )

    # What R can further deduce (Section 5.2's characterization):
    # group matched codewords by their (d_R, d_S) duplicate classes.
    # R knows d_R for each of its values and sees d_S per matched
    # codeword, so it learns |V_R(d) ∩ V_S(d')| for all d, d'.
    z_s_counts, z_r_counts = r_state._z_s, r_state._z_r
    partition_overlap: dict[tuple[int, int], int] = {}
    doubly_r = {
        s_state.cipher.encrypt(s_state._key, y): v
        for v, y in r_state._y_by_value.items()
        # R cannot do this itself (it lacks e_S); this mirrors what R
        # infers from multiplicities alone and is validated against the
        # plaintext computation in the tests.  A diagnostic, not a
        # protocol step: one ``cipher.encrypt`` at a time, outside the
        # engine, which is what keeps it out of every modexp count.
    }
    for codeword, s_count in z_s_counts.items():
        if codeword in z_r_counts:
            v = doubly_r.get(codeword)
            d_r = r_state._counts[v]
            key = (d_r, s_count)
            partition_overlap[key] = partition_overlap.get(key, 0) + 1

    return EquijoinSizeResult(
        join_size=join_size,
        size_v_s=r_state.size_v_s,
        size_v_r=s_state.size_v_r,
        r_learns_s_duplicates=_distribution(z_s_counts),
        s_learns_r_duplicates=_distribution(
            Counter(next(run.s_view.payloads("3:Y_R")))
        ),
        partition_overlap=partition_overlap,
        run=run,
    )


def _distribution(code_counts: Counter) -> dict[int, int]:
    """Duplicate distribution ``d -> number of values with d copies``."""
    histogram: Counter = Counter(code_counts.values())
    return dict(sorted(histogram.items()))


def join_size_tables(
    t_r,
    t_s,
    r_attr: str,
    s_attr: str | None = None,
    suite: ProtocolSuite | None = None,
) -> EquijoinSizeResult:
    """Table-level convenience: ``|T_S ⋈ T_R|`` on named attributes.

    Extracts each table's attribute multiset (duplicates preserved -
    they are the whole point of this protocol) and runs
    :func:`run_equijoin_size`.
    """
    s_attr = s_attr or r_attr
    ms_r = ValueMultiset.from_table(t_r, r_attr)
    ms_s = ValueMultiset.from_table(t_s, s_attr)
    return run_equijoin_size(ms_r, ms_s, suite)
