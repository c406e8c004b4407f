"""The equijoin protocol (Section 4.3).

Extends the intersection protocol so that R additionally obtains
``ext(v)`` - S's records joining on ``v`` - for every ``v`` in the
intersection, while still learning nothing about ``ext(v)`` for
``v ∈ V_S − V_R`` (Statements 3 and 4).

S uses *two* keys: ``e_S`` for the match codewords and ``e'_S`` to
derive the per-value ext-encryption key ``κ(v) = f_{e'_S}(h(v))``.
R recovers ``κ(v)`` only for its own values by stripping its own
encryption: ``f_eR^{-1}(f_{e'_S}(f_eR(h(v)))) = f_{e'_S}(h(v))``.

The module offers two levels:

* :func:`run_equijoin` - the raw protocol on value sets plus an
  ``ext`` byte-payload map (exactly the paper's objects);
* :func:`join_tables` - a convenience wrapper joining two
  :class:`~repro.db.table.Table` relations, serializing S's record
  groups into ``ext(v)`` and materializing the joined table at R.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from ..db.table import Table
from ..net import serialization
from .base import EquijoinResult, ProtocolSuite
from .spec import run_recorded

__all__ = ["run_equijoin", "join_tables"]


def run_equijoin(
    v_r: Sequence[Hashable],
    ext_s: Mapping[Hashable, bytes],
    suite: ProtocolSuite | None = None,
) -> EquijoinResult:
    """Execute the Section 4.3 protocol.

    The steps live in :class:`~repro.protocols.parties.EquijoinReceiver`
    / ``EquijoinSender``; this driver runs the registered
    ``"equijoin"`` spec in process and records it. Step 8 (computing
    ``T_S ⋈ T_R`` from ext) is the caller's job; see
    :func:`join_tables` for the table-level wrapper.

    Args:
        v_r: R's value set.
        ext_s: S's side as a map ``v -> ext(v)`` (the values are
            ``V_S``, the payloads the joined extra information).
        suite: agreed parameters; fresh 1024-bit default when omitted.
    """
    matches, r_state, s_state, run = run_recorded("equijoin", v_r, ext_s, suite)
    return EquijoinResult(
        intersection=set(matches),
        matches=matches,
        size_v_s=r_state.size_v_s,
        size_v_r=s_state.size_v_r,
        run=run,
    )


def serialize_rows(rows: Sequence[tuple]) -> bytes:
    """Encode a group of S-records as one ``ext(v)`` payload."""
    return serialization.encode([list(row) for row in rows])


def deserialize_rows(payload: bytes) -> list[tuple]:
    """Inverse of :func:`serialize_rows`."""
    return [tuple(row) for row in serialization.decode(payload)]


def join_tables(
    t_r: Table,
    t_s: Table,
    r_attr: str,
    s_attr: str | None = None,
    suite: ProtocolSuite | None = None,
) -> tuple[Table, EquijoinResult]:
    """Privately compute ``T_S ⋈ T_R`` and materialize it at R.

    R contributes the distinct values of ``T_R.r_attr``; S contributes
    ``ext(v)`` = its records grouped by ``T_S.s_attr``. The returned
    table has R's columns followed by S's (renamed on collision),
    mirroring the plaintext :func:`repro.db.engine.equijoin` so results
    can be compared directly.
    """
    s_attr = s_attr or r_attr
    ext = {
        v: serialize_rows(rows) for v, rows in t_s.group_rows_by(s_attr).items()
    }
    result = run_equijoin(list(t_r.distinct_values(r_attr)), ext, suite)

    taken = set(t_r.columns)
    s_out_cols = tuple(c if c not in taken else f"s_{c}" for c in t_s.columns)
    out_columns = t_r.columns + s_out_cols

    r_idx = t_r.column_index(r_attr)
    out_rows = []
    for r_row in t_r.rows:
        payload = result.matches.get(r_row[r_idx])
        if payload is None:
            continue
        for s_row in deserialize_rows(payload):
            out_rows.append(r_row + s_row)
    joined = Table(out_columns, out_rows, name="private_join")
    return joined, result
