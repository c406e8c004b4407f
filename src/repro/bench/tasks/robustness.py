"""Area ``robustness`` — what recovering from a fault costs.

Completion under injected faults, journal replay after a crash, and a
SIGKILLed shard worker: the three recoveries ``perf/`` has no workload
for. What a journal or an fsync adds to a clean query is ``perf``'s
ladder (``ladder.journal_add_ms`` / ``ladder.fsync_add_ms``);
composed-fault survival is the seeded sweep in
``tests/integration/test_chaos_schedules.py``.
"""

from __future__ import annotations

import random
import threading
import time

from ...net.faults import FaultInjector, FaultPlan
from ...net.journal import JournalDir, open_session
from ...net.serialization import encode
from ...net.session import RetryPolicy, SessionConfig
from ...net.tcp import connect_resumable_receiver, serve_resumable_sender
from ...protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from ...protocols.spec import PROTOCOLS
from ..registry import register

__all__ = []

#: rate -> RNG seed. Runs are only a handful of frames, so seeds are
#: chosen (deterministically, once) such that the nonzero rates do
#: observably fire within the run.
FAULT_RATES = {0.0: 5, 0.05: 15, 0.10: 15, 0.20: 15}


class TrackingInjector(FaultInjector):
    """Keeps every wrapped endpoint so wire bytes survive reconnects."""

    def __init__(self, plan: FaultPlan):
        super().__init__(plan)
        self.endpoints: list = []

    def wrap(self, transport):
        """Wrap a transport, remembering the endpoint for accounting."""
        endpoint = super().wrap(transport)
        self.endpoints.append(endpoint)
        return endpoint

    __call__ = wrap

    @property
    def total_bytes_sent(self) -> int:
        """Bytes sent across every endpoint this injector wrapped."""
        return sum(e.bytes_sent for e in self.endpoints)

    @property
    def total_bytes_received(self) -> int:
        """Bytes received across every endpoint this injector wrapped."""
        return sum(e.bytes_received for e in self.endpoints)


def session_config() -> SessionConfig:
    """The aggressive-retry session config every robustness run uses."""
    return SessionConfig(
        timeout_s=0.3,
        retry=RetryPolicy(max_attempts=8, base_delay_s=0.01,
                          max_delay_s=0.05),
        max_reconnects=20,
        fin_grace_s=0.05,
    )


def run_once(rate: float, seed: int, bits: int) -> dict:
    """One resumable intersection run under an injected fault rate."""
    v_r = [f"r{i}" for i in range(12)] + [f"c{i}" for i in range(4)]
    v_s = [f"s{i}" for i in range(12)] + [f"c{i}" for i in range(4)]
    expected = {f"c{i}" for i in range(4)}

    plan = FaultPlan(seed=seed, drop_rate=rate / 2, corrupt_rate=rate / 2)
    injector = TrackingInjector(plan)
    config = session_config()
    params = PublicParams.for_bits(bits)
    ready = threading.Event()
    box: dict = {}

    def serve():
        box["server"] = serve_resumable_sender(
            "intersection", v_s, params, random.Random(seed + 1),
            ready_callback=lambda port: (
                box.__setitem__("port", port), ready.set()
            ),
            config=config,
        )

    thread = threading.Thread(target=serve)
    thread.start()
    assert ready.wait(timeout=10)
    started = time.perf_counter()
    answer, client_stats = connect_resumable_receiver(
        "intersection", v_r, random.Random(seed + 2), "127.0.0.1",
        box["port"], config=config, endpoint_wrapper=injector,
    )
    elapsed = time.perf_counter() - started
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert answer == expected, f"rate {rate}: wrong answer {answer!r}"
    _size_v_r, server_stats = box["server"]

    return {
        "protocol": "intersection",
        "fault_rate": rate,
        "seed": seed,
        "bits": bits,
        "n_r": len(v_r),
        "n_s": len(v_s),
        "elapsed_s": round(elapsed, 6),
        "client_bytes_sent": injector.total_bytes_sent,
        "client_bytes_received": injector.total_bytes_received,
        "retransmits": client_stats.retransmits
        + server_stats.retransmits,
        "reconnects": client_stats.reconnects,
        "replayed_frames": client_stats.replayed_frames
        + server_stats.replayed_frames,
        "faults": injector.stats.as_dict(),
    }


def _inputs(n: int):
    half = max(1, n // 4)
    v_r = [f"r{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    v_s = [f"s{i}" for i in range(n - half)] + [f"c{i}" for i in range(half)]
    return v_r, v_s, {f"c{i}" for i in range(half)}


def build_crashed_journal(journal_dir: JournalDir, params, n: int,
                          session_id: int) -> int:
    """A sender journal frozen at the worst crash point.

    All inbound rounds consumed and the final outbound round journaled
    but never shipped - the maximum amount of state a restart has to
    rebuild by replay. Returns the number of journaled rounds.
    """
    spec = PROTOCOLS["intersection"]
    v_r, v_s, _expected = _inputs(n)
    receiver = ReceiverMachine(spec, v_r, params, random.Random("R"))
    sender = SenderMachine(spec, v_s, params, random.Random("S"))
    journal = journal_dir.open_session("sender", "intersection", session_id)
    inbound = outbound = 0
    for source, wire in spec.exchange(receiver, sender):
        if source == "R":
            journal.record_inbound(inbound, encode(wire))
            inbound += 1
        else:
            journal.record_outbound(outbound, encode(wire))
            outbound += 1
    journal.close()
    return inbound + outbound


@register(
    "robustness.fault-tolerance",
    smoke={"bits": 128, "rates": [0.0, 0.10]},
    full={"bits": 256, "rates": [0.0, 0.05, 0.10, 0.20]},
    summary="Completion cost vs injected fault rate over real TCP: "
            "retransmits, reconnects, wire bytes; answers never change.",
)
def fault_tolerance(ctx) -> list[dict]:
    """Sweep fault rates through the resumable session layer."""
    bits = ctx.param("bits")
    records = []
    clean = None
    for rate in ctx.param("rates"):
        row = run_once(rate, seed=FAULT_RATES[rate], bits=bits)
        if rate == 0.0:
            assert row["faults"]["dropped"] == 0
            assert row["faults"]["corrupted"] == 0
            assert row["retransmits"] == 0
            clean = row
        elif clean is not None:
            # Every recovery is extra traffic on top of the protocol's
            # own frames.
            assert row["client_bytes_sent"] >= clean["client_bytes_sent"]
        records.append({
            "id": f"rate{rate:g}",
            "protocol": row["protocol"],
            "fault_rate": rate,
            "bits": bits,
            "n_r": row["n_r"],
            "n_s": row["n_s"],
            "metrics": {
                "elapsed_s": row["elapsed_s"],
                "client_bytes_sent": row["client_bytes_sent"],
                "client_bytes_received": row["client_bytes_received"],
                "retransmits": row["retransmits"],
                "reconnects": row["reconnects"],
                "replayed_frames": row["replayed_frames"],
                "faults_dropped": row["faults"]["dropped"],
                "faults_corrupted": row["faults"]["corrupted"],
            },
        })
    assert any(
        r["metrics"]["faults_dropped"] + r["metrics"]["faults_corrupted"] > 0
        for r in records if r["fault_rate"] > 0
    ), "no faults fired across the swept rates"
    return records


@register(
    "robustness.kill-resume",
    smoke={"bits": 128, "sizes": [8]},
    full={"bits": 256, "sizes": [8, 32]},
    summary="Time to rebuild party S's session from its journal after a "
            "crash at the worst point (all rounds journaled, none "
            "shipped).",
)
def kill_resume(ctx) -> list[dict]:
    """Build a crashed journal per size and time its replay recovery."""
    import tempfile
    from pathlib import Path

    bits = ctx.param("bits")
    params = PublicParams.for_bits(bits)
    spec = PROTOCOLS["intersection"]
    records = []
    with tempfile.TemporaryDirectory(prefix="bench-resume-") as tmp:
        for n in ctx.param("sizes"):
            journal_dir = JournalDir(Path(tmp) / f"resume-{n}", fsync=False)
            rounds = build_crashed_journal(
                journal_dir, params, n, 0xBE0000 + n
            )
            _, v_s, _ = _inputs(n)
            assert len(journal_dir.incomplete("sender", "intersection")) == 1
            started = time.perf_counter()
            session, _ = open_session(
                "sender", "intersection",
                lambda v=v_s: spec.make_sender(
                    v, params, random.Random("S")
                ),
                params=params, journal_dir=journal_dir,
                config=session_config(),
            )
            elapsed = time.perf_counter() - started
            assert session.stats.rounds_recovered == rounds
            session.journal.close()
            records.append({
                "id": f"n{n}",
                "protocol": "intersection",
                "n": n,
                "bits": bits,
                "rounds_recovered": rounds,
                "metrics": {"recovery_s": round(elapsed, 6)},
            })
    # A larger set journals bigger rounds, not more of them.
    assert len({r["rounds_recovered"] for r in records}) == 1
    return records


@register(
    "robustness.worker-failover",
    smoke={"trials": 4, "bits": 96},
    full={"trials": 16, "bits": 128},
    summary="Client-observed recovery latency after a shard worker is "
            "SIGKILLed mid-session: kill-to-answer p50/p95/p99 under "
            "the supervisor's respawn-and-resume path.",
)
def worker_failover(ctx) -> list[dict]:
    """SIGKILL a supervised worker mid-session, time the recovery.

    Each trial runs one journaled chunk-streamed session against a
    single-shard supervised server, kills the worker the moment the
    front end has routed the session, and measures the wall time from
    the kill to the client's (byte-correct) answer - the respawn
    backoff, journal takeover, reconnect and replayed rounds all land
    inside it.
    """
    import concurrent.futures
    import tempfile
    from pathlib import Path

    from ...net.shard import ShardedProtocolServer
    from ...net.server import ProtocolOffer
    from ..schema import percentiles

    bits = ctx.param("bits")
    trials = ctx.param("trials")
    params = PublicParams.for_bits(bits)
    v_r = [f"r{i}" for i in range(10)] + ["c0", "c1"]
    v_s = [f"s{i}" for i in range(10)] + ["c0", "c1"]
    expected = {"c0", "c1"}
    config = SessionConfig(
        timeout_s=2.0,
        retry=RetryPolicy(max_attempts=8, base_delay_s=0.02,
                          max_delay_s=0.2),
        max_reconnects=30,
        fin_grace_s=0.05,
    )

    def trial(server, index: int) -> tuple[float, int]:
        routed_before = server.routed
        with concurrent.futures.ThreadPoolExecutor(1) as client:
            run = client.submit(
                connect_resumable_receiver,
                "intersection", v_r, random.Random(f"failover-{index}"),
                "127.0.0.1", server.port, config=config, chunk_size=1,
            )
            # Kill the instant the front end has handed the session
            # over - the worker dies owning journaled in-flight rounds.
            while server.routed == routed_before:
                time.sleep(0.002)
            server.kill_worker(0)
            killed_at = time.perf_counter()
            answer, stats = run.result()
        recovery = time.perf_counter() - killed_at
        assert set(answer) == expected
        assert stats.reconnects >= 1, "kill landed after the session"
        return recovery, stats.worker_lost

    records = []
    with tempfile.TemporaryDirectory(prefix="bench-failover-") as tmp:
        server = ShardedProtocolServer(
            [ProtocolOffer.from_data(
                "intersection", v_s, params, seed="failover-s"
            )],
            shards=1,
            worker_processes=True,
            config=config,
            journal_dir=Path(tmp),
            max_sessions=4,
            restart_budget=trials + 4,
            heartbeat_s=0.05,
            respawn_backoff_s=0.05,
            chunk_size=1,
        ).start()
        try:
            samples = []
            worker_lost_total = 0
            for index in range(trials):
                recovery, lost = trial(server, index)
                samples.append(recovery)
                worker_lost_total += lost
            respawns = server.respawns
        finally:
            server.shutdown(drain_timeout_s=2.0)
    assert respawns >= trials, "a kill was not answered by a respawn"
    dist = percentiles(samples)
    records.append({
        "id": f"kill-resume-x{trials}",
        "protocol": "intersection",
        "trials": trials,
        "bits": bits,
        "shards": 1,
        "respawns": respawns,
        "worker_lost_notices": worker_lost_total,
        "metrics": {
            "recovery_p50_s": round(dist["p50"], 6),
            "recovery_p95_s": round(dist["p95"], 6),
            "recovery_p99_s": round(dist["p99"], 6),
            "recovery_max_s": round(max(samples), 6),
        },
    })
    return records
