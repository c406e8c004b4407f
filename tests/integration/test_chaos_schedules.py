"""Property suite: seeded chaos schedules never break the invariant.

Every schedule - any composition of network faults, disk faults, and
crash points on either party - must end in either the correct protocol
answer (with journals byte-identical to a fault-free reference run) or
a typed, clean failure. Never a wrong answer, an untyped escape, a
hang, or an undetected-corrupt journal.

Schedules run on the virtual-time shell (``repro.net.virtual``), so
one costs milliseconds and replays exactly. The sweep size is
controlled by ``REPRO_CHAOS_SCHEDULES`` (default 32; CI's chaos-smoke
job and a full local sweep run ``REPRO_CHAOS_SCHEDULES=500 pytest
tests/integration/test_chaos_schedules.py``). A failing seed is its own
reproduction: ``run_schedule(ChaosSchedule.generate(seed))`` replays
the identical run.
"""

from __future__ import annotations

import os

import pytest

from repro.net.chaos import (
    SCHEDULABLE_POINTS,
    ChaosSchedule,
    WorkerCrashSchedule,
    run_schedule,
)
from repro.net.diskfaults import DiskFaultPlan
from repro.net.faults import FaultPlan

SWEEP = int(os.environ.get("REPRO_CHAOS_SCHEDULES", "32"))


# ----------------------------------------------------------------------
# The generated-schedule sweep (the headline property)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(SWEEP))
def test_generated_schedule_holds_invariant(seed):
    """Composed chaos drawn from ``seed``: correct answer or typed error."""
    result = run_schedule(ChaosSchedule.generate(seed))
    assert result.ok, result.describe()


# ----------------------------------------------------------------------
# Clean schedules: every protocol completes with the right answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "protocol",
    ["intersection", "intersection-size", "equijoin", "equijoin-size",
     "equijoin-sum"],
)
def test_clean_schedule_every_protocol(protocol):
    result = run_schedule(
        ChaosSchedule(seed=0, protocol=protocol)
    )
    assert result.ok, result.describe()
    assert result.receiver.kind == "answer"
    assert result.sender.kind == "answer"
    assert result.answer == result.expected
    assert result.receiver.restarts == 0
    assert result.sender.restarts == 0
    assert result.journals_ok


# ----------------------------------------------------------------------
# Crash-point matrix: every schedulable point, on either party
# ----------------------------------------------------------------------
@pytest.mark.parametrize("point", SCHEDULABLE_POINTS)
@pytest.mark.parametrize("party", ["sender", "receiver"])
def test_single_crash_point_recovers(point, party):
    """A single scripted crash at each point: the supervisor restarts
    the party and the run still ends with the correct answer."""
    schedule = ChaosSchedule(
        seed=101,
        protocol="intersection",
        chunk_size=1 if point.startswith("streaming.") else None,
        **{f"{party}_crash": (point, 1)},
    )
    result = run_schedule(schedule)
    assert result.ok, result.describe()
    # ``ok``: the exact answer, or a typed error - the other legal
    # outcome (e.g. the crash landed after the peer finished and left,
    # so the restarted party had nobody to resume with).
    crashed = result.sender if party == "sender" else result.receiver
    # In lock-step the hook's reach is exact: every point fires (R has
    # no incrementally streamed round, so no chunk to yield), and a
    # fired hook is one process death, answered by one restart.
    assert result.crash_stats[party]["fired"] == (
        (party, point) != ("receiver", "streaming.chunk.yield")
    )
    assert crashed.restarts == result.crash_stats[party]["fired"]


# ----------------------------------------------------------------------
# Composition and deterministic replay
# ----------------------------------------------------------------------
def _composed_schedule() -> ChaosSchedule:
    """Every axis at once: chunked wire, lossy links, torn disks, and a
    scripted crash on each party."""
    return ChaosSchedule(
        seed=7001,
        protocol="equijoin",
        chunk_size=2,
        client_net=FaultPlan(seed=1, drop_rate=0.1, corrupt_rate=0.1,
                             max_faults=2),
        server_net=FaultPlan(seed=2, delay_rate=0.2, delay_s=0.002,
                             max_faults=2),
        sender_disk=DiskFaultPlan(seed=3, fsync_error_rate=0.4,
                                  max_faults=1, skip=6),
        receiver_disk=DiskFaultPlan(seed=4, torn_write_rate=0.4,
                                    max_faults=1, skip=6),
        sender_crash=("journal.append.post", 3),
        receiver_crash=("session.ship.frame", 2),
    )


def test_all_axes_composed_schedule_holds_invariant():
    result = run_schedule(_composed_schedule())
    assert result.ok, result.describe()


def test_crash_schedule_replays_deterministically():
    """The reproduction handle: the same schedule twice, equal
    observable outcome - counters included, and with network and disk
    faults in the schedule: virtual time leaves no timing axis."""
    schedules = [ChaosSchedule.generate(seed) for seed in range(100, 124)]
    assert any(s.client_net or s.server_net for s in schedules)
    assert any(s.sender_disk or s.receiver_disk for s in schedules)
    schedules.append(ChaosSchedule(
        seed=4242,
        protocol="intersection-size",
        sender_crash=("journal.append.post", 2),
        receiver_crash=("journal.rotate.pre", 1),
    ))
    answers = 0
    for schedule in schedules:
        first, again = (run_schedule(schedule).as_dict() for _ in range(2))
        assert first["ok"], first
        assert first == again
        answers += first["receiver"] == "answer"
    # Survivable, not only typed: most composed schedules still answer.
    assert answers >= len(schedules) // 2


def test_generated_schedules_are_pure_functions_of_the_seed():
    for seed in (0, 1, 99, 4096):
        assert ChaosSchedule.generate(seed) == ChaosSchedule.generate(seed)
    assert ChaosSchedule.generate(1) != ChaosSchedule.generate(2)


# ----------------------------------------------------------------------
# Worker-crash axis: schedules are pure, seeded, and override-stable
# ----------------------------------------------------------------------
def test_worker_crash_schedules_are_pure_functions_of_the_seed():
    for seed in (0, 1, 99, 4096):
        assert (
            WorkerCrashSchedule.generate(seed)
            == WorkerCrashSchedule.generate(seed)
        )
    assert WorkerCrashSchedule.generate(1) != WorkerCrashSchedule.generate(2)


def test_worker_crash_schedule_overrides_keep_the_draws():
    """Overriding sessions/shards must not shift any random draw - the
    same seed keeps the same kill/hang times, with shard indices
    re-folded into the overridden shard count."""
    for seed in (3, 17, 2024):
        base = WorkerCrashSchedule.generate(seed)
        overridden = WorkerCrashSchedule.generate(seed, sessions=8, shards=2)
        assert overridden.sessions == 8 and overridden.shards == 2
        assert [d for d, _ in overridden.kills] == [d for d, _ in base.kills]
        assert [(d, w) for d, _, w in overridden.hangs] == [
            (d, w) for d, _, w in base.hangs
        ]
        assert all(s < 2 for _, s in overridden.kills)


def test_worker_crash_schedule_describes_every_event():
    schedule = WorkerCrashSchedule(
        seed=5, kills=((0.1, 0), (0.3, 1)), hangs=((0.2, 1, 0.5),)
    )
    text = schedule.describe()
    assert "seed 5" in text
    assert text.count("kill(") == 2
    assert text.count("hang(") == 1
