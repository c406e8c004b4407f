"""Chaos: crashes mid-delta-round must recover to the exact answer.

The delta schedules are registered ProtocolSpecs, so the chaos
harness runs them unchanged: both parties journal their resumable
sessions, the schedule SIGKILLs one mid-round, the supervisor
respawns it from the journal, and the finished journals must be
byte-identical to a clean reference run.  ``intersection+delta`` is
the deterministic representative (``equijoin-sum``'s delta draws
fresh Paillier randomness per query and is documented as not
journal-replay-safe).
"""

from __future__ import annotations

import random

import pytest

from repro.net.chaos import ChaosSchedule, run_schedule
from repro.protocols.delta import DeltaExchange
from repro.protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from repro.protocols.spec import get_spec

PARAMS = PublicParams.for_bits(128)
V_R = [f"v{i}" for i in range(10)]
V_S = [f"v{i}" for i in range(5, 15)]


def _base_states():
    """Complete one full intersection run; return both parties' states."""
    spec = get_spec("intersection")
    receiver = ReceiverMachine(spec, V_R, PARAMS, random.Random("base-r"))
    sender = SenderMachine(spec, V_S, PARAMS, random.Random("base-s"))
    spec.exchange(receiver, sender)
    assert receiver.finish() == set(V_R) & set(V_S)
    return receiver.state, sender.state


def _delta_data():
    r_state, s_state = _base_states()
    r_exchange = DeltaExchange(
        state=r_state, inserts=(("v20", None),), deletes=("v0",)
    )
    s_exchange = DeltaExchange(
        state=s_state, inserts=(("v20", None),), deletes=("v14",)
    )
    return r_exchange, s_exchange


EXPECTED_DELTA = (set(V_R) | {"v20"}) - {"v0"}
EXPECTED_DELTA &= (set(V_S) | {"v20"}) - {"v14"}


def _run_delta(schedule, tmp_path):
    """The delta schedule under ``schedule``: must end in the answer."""
    result = run_schedule(
        schedule,
        protocol="intersection+delta",
        params=PARAMS,
        data=_delta_data(),
        journal_root=tmp_path,
    )
    assert result.ok, result.describe()
    assert result.answer == EXPECTED_DELTA
    return result


@pytest.mark.parametrize(
    "crash_side,point",
    [
        ("sender_crash", ("session.ship.frame", 1)),
        ("receiver_crash", ("session.ship.frame", 1)),
        ("sender_crash", ("journal.append.post", 2)),
    ],
)
def test_delta_round_survives_crash(tmp_path, crash_side, point):
    """Kill one party mid-delta-round; the respawned session must
    finish with the mutated-table answer and byte-identical journals."""
    schedule = ChaosSchedule(seed=71, chunk_size=None, **{crash_side: point})
    result = _run_delta(schedule, tmp_path)
    assert result.journals_ok, result.describe()
    crashed = result.sender if crash_side == "sender_crash" else result.receiver
    assert crashed.restarts >= 1


def test_delta_round_with_disk_and_net_faults(tmp_path):
    """Seeded network flakiness + fsync faults on top of a crash."""
    schedule = ChaosSchedule.generate(
        seed=203, protocol="intersection+delta"
    )
    schedule = ChaosSchedule(
        seed=203,
        chunk_size=None,
        client_net=schedule.client_net,
        server_net=schedule.server_net,
        sender_crash=("session.ship.frame", 2),
        max_restarts=6,
    )
    result = _run_delta(schedule, tmp_path)


def test_clean_delta_schedule_runs_every_protocol(tmp_path):
    """Without faults, the chaos harness runs the delta schedule end
    to end - the same machines the Catalog layer drives."""
    schedule = ChaosSchedule(seed=5, chunk_size=None)
    result = _run_delta(schedule, tmp_path)
    assert result.journals_ok
    assert result.receiver.restarts == 0
    assert result.sender.restarts == 0
