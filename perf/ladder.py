"""The stack-depth ladder: one session shape through each depth of the
serving stack, one closed-loop client, p50 per rung and its step over
the rung below.

The client is the ``herd-small`` client at every networked rung
(``SessionOptions()``, no client journal); only the serving side
deepens. ``fsync`` is a side rung off ``journal`` - the price of
durability, which the workload itself runs without - so ``server`` is
measured over ``journal``, not over ``fsync``.
"""

from __future__ import annotations

import queue
import statistics
import threading
import traceback
from types import SimpleNamespace
from typing import Any, Callable

import repro
from repro.net.journal import JournalDir
from repro.net.server import ProtocolServer

import harness
import spans
from harness import machines_in_memory, party_seed

RUNGS = ("memory", "tcp", "session", "journal", "fsync", "server", "shard")

#: step metric -> (rung, the rung it is measured over, the module charged).
STEPS = {
    "ladder.tcp_add_ms": ("tcp", "memory", "net.tcp"),
    "ladder.session_add_ms": ("session", "tcp", "net.session"),
    "ladder.journal_add_ms": ("journal", "session", "net.journal"),
    "ladder.fsync_add_ms": ("fsync", "journal", "net.journal"),
    "ladder.server_add_ms": ("server", "journal", "net.server, net.aio"),
    "ladder.shard_add_ms": ("shard", "server", "net.shard"),
    "api.facade_ms": ("facade", "memory", "api"),
}


def climb(herd: Any, tracer: spans.Tracer) -> SimpleNamespace:
    """Run every rung; returns ``metrics`` (``ladder.*``, ``api.facade_ms``,
    ``net.journal.*``), ``detail`` (quartiles, unresolved steps) and the
    last in-memory ``drive`` (round messages for the replays)."""
    size = herd.size
    v_r, v_s, expected = herd.inputs
    count = size.ladder_sessions
    last: dict[str, Any] = {}

    def sessions(
        rungs: dict[str, Callable[[str, Any], Any]],
        port: Callable[[], int] = lambda: 0,
    ) -> dict[str, list[float]]:
        """``count`` timed sessions per rung, the rungs taking turns so
        that drift of the box hits them alike; ``port()`` runs before
        the clock starts."""
        out: dict[str, list[float]] = {rung: [] for rung in rungs}
        for index in range(count):
            for rung, one in rungs.items():
                name = f"ladder-{rung}-{index}"
                target = port()
                elapsed, last[rung] = herd.tally.timed(
                    name, expected, lambda: one(name, target)
                )
                if elapsed is not None:
                    out[rung].append(elapsed * 1e3)
        return out

    def dial(name: str, port: int, **session: Any) -> Any:
        return repro.connect(
            "intersection", v_r, port=port,
            seed=party_seed(herd.seed, name, "R"), chunk_size=size.chunk,
            **session,
        )

    def dial_session(name: str, port: int) -> Any:
        return dial(name, port, session=repro.SessionOptions())

    def one_shot(rung: str, serve_options: Callable[[], dict[str, Any]]) -> list[float]:
        """A rung whose party S is a fresh one-shot ``repro.serve`` per
        session, on a thread; the client's call alone is timed, from
        the moment S listens."""
        ports: queue.Queue = queue.Queue()

        def serve_all() -> None:
            for index in range(count):
                try:
                    repro.serve(
                        "intersection", v_s, params=herd.params,
                        seed=party_seed(herd.seed, f"{rung}-{index}", "S"),
                        chunk_size=size.chunk, ready_callback=ports.put,
                        **serve_options(),
                    )
                except Exception:  # the client's failed session is counted
                    traceback.print_exc()

        server = threading.Thread(target=serve_all, daemon=True)
        server.start()
        latencies = sessions(
            {rung: dial if rung == "tcp" else dial_session},
            port=lambda: ports.get(timeout=30),
        )
        server.join(timeout=30)
        return latencies[rung]

    samples = sessions({
        "memory": lambda name, _: machines_in_memory(
            "intersection", v_r, v_s, herd.params,
            party_seed(herd.seed, name, "R"), party_seed(herd.seed, name, "S"),
            size.chunk,
        ),
        "facade": lambda name, _: repro.run(
            "intersection", v_r, v_s, params=herd.params,
            seed=party_seed(herd.seed, name, "RS"), chunk_size=size.chunk,
        ),
    })
    samples["tcp"] = one_shot("tcp", lambda: {"timeout": 30.0})
    samples["session"] = one_shot(
        "session", lambda: {"session": repro.SessionOptions()}
    )
    io = {}
    for rung, fsync in (("journal", False), ("fsync", True)):
        io[rung] = harness.TimingIO(tracer, "net.journal")
        folder = JournalDir(herd.tmp / f"ladder-{rung}", fsync=fsync, io=io[rung])
        samples[rung] = one_shot(rung, lambda: {
            "session": repro.SessionOptions(journal_dir=folder)
        })
    server = ProtocolServer(
        {"intersection": (v_s, herd.params)},
        journal_dir=JournalDir(herd.tmp / "ladder-server", fsync=False),
        chunk_size=size.chunk,
    ).start()
    try:
        samples.update(sessions(
            {"server": dial_session}, port=lambda: server.port
        ))
    finally:
        server.shutdown()
    samples.update(sessions(
        {"shard": dial_session}, port=lambda: herd.server.port
    ))

    p50 = {rung: statistics.median(values) for rung, values in samples.items()}
    metrics = {f"ladder.{rung}_ms": p50[rung] for rung in RUNGS}
    detail: dict[str, Any] = {
        "sessions_per_rung": count,
        "rungs": {rung: spans.spread(values) for rung, values in samples.items()},
        "unresolved": [],
    }
    for metric, (rung, below, module) in STEPS.items():
        metrics[metric] = p50[rung] - p50[below]
        # A step smaller than the quartile spread of either rung is noise.
        noise = max(
            detail["rungs"][r]["q3"] - detail["rungs"][r]["q1"]
            for r in (rung, below)
        )
        if abs(metrics[metric]) < noise:
            detail["unresolved"].append(metric)
        detail["rungs"][rung].update(over=below, charged_to=module)
    # The workload journals without fsync, so its journal numbers are
    # the journal rung's, per session; fsync shows as ladder.fsync_add_ms.
    journal = io["journal"].totals
    metrics.update({
        "net.journal.appends": journal["writes"] / count,
        "net.journal.bytes": journal["bytes"] / count,
        "net.journal.fsyncs": journal["fsyncs"] / count,
        "net.journal.write_s": journal["write_s"] / count,
        "net.journal.fsync_s": journal["fsync_s"] / count,
    })
    detail["fsync_rung_fsyncs_per_session"] = io["fsync"].totals["fsyncs"] / count
    return SimpleNamespace(metrics=metrics, detail=detail, drive=last["memory"])
