"""The equijoin protocol (Section 4.3).

Extends the intersection protocol so that R additionally obtains
``ext(v)`` - S's records joining on ``v`` - for every ``v`` in the
intersection, while still learning nothing about ``ext(v)`` for
``v ∈ V_S − V_R`` (Statements 3 and 4).

S uses *two* keys: ``e_S`` for the match codewords and ``e'_S`` to
derive the per-value ext-encryption key ``κ(v) = f_{e'_S}(h(v))``.
R recovers ``κ(v)`` only for its own values by stripping its own
encryption: ``f_eR^{-1}(f_{e'_S}(f_eR(h(v)))) = f_{e'_S}(h(v))``.

The steps live in :class:`~repro.protocols.parties.EquijoinReceiver` /
``EquijoinSender`` and run as the registered ``"equijoin"`` spec
(:func:`repro.run` on value sets plus an ``ext`` byte-payload map -
exactly the paper's objects). Step 8 (computing ``T_S ⋈ T_R`` from
ext) is the caller's job; :func:`join_tables` does it for two
:class:`~repro.db.table.Table` relations, serializing S's record groups
into ``ext(v)`` and materializing the joined table at R.
:func:`join_size_tables` is its Section 5.2 counterpart: the join's
size alone, from the two tables' attribute multisets.
"""

from __future__ import annotations

import random
from typing import Any, Hashable, Sequence

from ..crypto.numtheory import _party_rngs
from ..db.multiset import ValueMultiset
from ..db.table import Table
from ..net import serialization
from .parties import PublicParams
from .spec import run_pair

__all__ = ["join_tables", "join_size_tables"]


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
    *,
    params: PublicParams,
    rngs: tuple[random.Random, random.Random] | None = None,
) -> tuple[Table, dict[Hashable, bytes]]:
    """Privately compute ``T_S ⋈ T_R`` and materialize it at R.

    R contributes the distinct values of ``T_R.r_attr``; S contributes
    ``ext(v)`` = its records grouped by ``T_S.s_attr``. The returned
    table has R's columns followed by S's (renamed on collision),
    mirroring the plaintext :func:`repro.db.engine.equijoin` so results
    can be compared directly. Returned beside it: R's answer, ``v ->
    ext(v)`` for each ``v`` in the intersection. ``rngs`` is R's and
    S's randomness (the operating system's CSPRNG when omitted).
    """
    s_attr = s_attr or r_attr
    ext = {
        v: serialize_rows(rows) for v, rows in t_s.group_rows_by(s_attr).items()
    }
    matches = _answer(
        "equijoin", list(t_r.distinct_values(r_attr)), ext, params, rngs
    )

    taken = set(t_r.columns)
    s_out_cols = tuple(c if c not in taken else f"s_{c}" for c in t_s.columns)
    out_columns = t_r.columns + s_out_cols

    r_idx = t_r.column_index(r_attr)
    out_rows = []
    for r_row in t_r.rows:
        payload = matches.get(r_row[r_idx])
        if payload is None:
            continue
        for s_row in deserialize_rows(payload):
            out_rows.append(r_row + s_row)
    joined = Table(out_columns, out_rows, name="private_join")
    return joined, matches


def join_size_tables(
    t_r: Table,
    t_s: Table,
    r_attr: str,
    s_attr: str | None = None,
    *,
    params: PublicParams,
    rngs: tuple[random.Random, random.Random] | None = None,
) -> int:
    """``|T_S ⋈ T_R|`` on named attributes, by the Section 5.2 protocol.

    Runs the registered ``"equijoin-size"`` spec on each table's
    attribute multiset (duplicates preserved - they are the whole point
    of that protocol; what they leak is
    :func:`repro.analysis.leakage.equijoin_size_leak`).
    """
    s_attr = s_attr or r_attr
    return _answer(
        "equijoin-size",
        ValueMultiset.from_table(t_r, r_attr),
        ValueMultiset.from_table(t_s, s_attr),
        params,
        rngs,
    )


def _answer(
    protocol: str,
    r_data: Any,
    s_data: Any,
    params: PublicParams,
    rngs: tuple[random.Random, random.Random] | None,
) -> Any:
    """R's answer of one in-process run of ``protocol``."""
    receiver, _, _ = run_pair(
        protocol, r_data, s_data, params, *(rngs or _party_rngs())
    )
    return receiver.finish()
