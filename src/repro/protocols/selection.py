"""Private selection (the operation Section 2.4 points PIR at).

Related work, Section 2.4: "In the problem of private information
retrieval, the receiver R obtains the i-th record from a set of n
records held by the sender S without revealing i to S. With the
additional restriction that R should only learn the value of one
record, the problem becomes symmetric private information retrieval.
This literature will be useful for developing protocols for the
selection operation in our setting."

This module builds exactly that selection operation on the library's
own substrate: a symmetric-PIR-style protocol from 1-out-of-n
oblivious transfer over the quadratic-residue group. Communication is
O(n) (the OT ships all n ciphertexts) - fine at database-row scale and
honest about what the simple construction costs; sublinear PIR is out
of scope.

Guarantees (semi-honest, like the rest of the library):

* S learns nothing about the index ``i`` (the per-bit OT first
  messages are single uniform group elements);
* R learns record ``i``, the record count ``n`` and the (padded)
  record length, and nothing about the other records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..crypto.groups import QRGroup
from ..crypto.numtheory import _party_rngs
from ..crypto.ot_n import OneOfNReceiver, OneOfNSender
from ..net.runner import ProtocolRun
from .parties import PublicParams

__all__ = ["SelectionResult", "run_selection"]

#: Longest record the 2-byte length prefix can restore.
_MAX_RECORD_BYTES = 0xFFFF


@dataclass
class SelectionResult:
    """Outcome of one private selection."""

    record: bytes
    n_records: int
    run: ProtocolRun


def run_selection(
    index: int,
    records: Sequence[bytes],
    params: PublicParams,
    rngs: tuple[random.Random, random.Random] | None = None,
) -> SelectionResult:
    """R retrieves ``records[index]`` from S without revealing ``index``.

    Records are padded to the maximum length before encryption so their
    sizes do not distinguish them; the 2-byte length prefix restores the
    original payload. The OT runs in the group ``params`` names, on R's
    and S's ``rngs`` (the operating system's CSPRNG when omitted).
    """
    if not records:
        raise ValueError("selection over an empty record set")
    if not 0 <= index < len(records):
        raise ValueError(f"index {index} outside [0, {len(records)})")
    # S pads its records to uniform length (R may learn the maximum
    # record size - declared).
    width = max(len(r) for r in records)
    if width > _MAX_RECORD_BYTES:
        raise ValueError(
            f"a {width}-byte record exceeds the {_MAX_RECORD_BYTES}-byte "
            "limit of the 2-byte length prefix"
        )

    group = QRGroup(params.p)
    rng_r, rng_s = rngs or _party_rngs()
    run = ProtocolRun(protocol="selection")
    padded = [
        len(r).to_bytes(2, "big") + bytes(r).ljust(width, b"\0") for r in records
    ]

    sender = OneOfNSender(group, padded, rng_s)
    receiver = OneOfNReceiver(group, len(records), index, rng_r)

    # S -> R: the public OT points (one per index bit).
    c_points = run.to_r("1:C", sender.c_points)

    # R -> S: per-bit OT first messages (uniform group elements; this
    # is everything S ever sees, so S learns nothing about the index).
    pk0s = run.to_s("2:PK0", receiver.first_messages(c_points))

    # S -> R: the per-bit OT answers plus all n encrypted records.
    transfer = sender.respond(pk0s)
    payload = run.to_r(
        "3:transfer",
        (
            [(t.g_r0, t.c0, t.g_r1, t.c1) for t in transfer.ot_transfers],
            transfer.ciphertexts,
        ),
    )

    # R reconstructs its one record locally from the received material.
    from ..crypto.ot import OTTransfer

    received = type(transfer)(
        c_points=c_points,
        ot_transfers=[
            OTTransfer(g_r0=a, c0=b, g_r1=c, c1=d) for a, b, c, d in payload[0]
        ],
        ciphertexts=list(payload[1]),
    )
    framed = receiver.receive(received)
    length = int.from_bytes(framed[:2], "big")
    record = framed[2 : 2 + length]

    return SelectionResult(record=record, n_records=len(records), run=run)
