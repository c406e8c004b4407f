"""The benchmark's workloads: what each runs, times and traces.

Every workload has a timed pass (tracing off; end-to-end metrics) and
a traced pass (per-layer metrics, spans). Inputs come from the seed
through :func:`repro.workloads.generator.overlapping_sets`; every
answer is checked against a plaintext oracle by :class:`harness.Tally`.
"""

from __future__ import annotations

import random
import socket
import statistics
import threading
import time
from types import SimpleNamespace
from typing import Any, Callable

import repro
from repro.net import serialization
from repro.net.catalog import CatalogCache, table_digest
from repro.net.journal import JournalDir
from repro.net.shard import ShardedProtocolServer
from repro.net.tcp import SocketEndpoint
from repro.protocols.parties import PublicParams
from repro.workloads.generator import overlapping_sets

import harness
import ladder
import spans
from harness import (
    Relay,
    TimingIO,
    add_totals,
    machines_in_memory,
    party_seed,
    wrappers,
)
from spans import Tracer, covered, duration

#: (name, unit, better, bound) - mirrored by BENCHMARK.json. Latency is
#: gated in the paper's currency (``model_ratio``, ``tail_ratio``: time
#: over what Section 6's modexp count costs on this box at that moment),
#: not in seconds: the speed of this shared box drifts by 30-70 % over
#: minutes, seconds of the same code spread past any bound the contract
#: allows, and the ratio to a ``C_e`` read alongside does not
#: (perf/README.md has the measurements). Seconds are printed, kept in
#: the result file and reported per layer as ``api.query_s``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("model_ratio", "ratio", "lower", 0.25),
    ("tail_ratio", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
)

#: (name, unit, better) - mirrored by BENCHMARK.json. A workload that
#: does not exercise a layer reports 0 for it.
PER_LAYER = (
    ("api.query_s", "s", "lower"),
    ("wire_bytes", "bytes", "lower"),
    ("crypto.engine.modexp_count", "count", "lower"),
    ("crypto.engine.busy_s", "s", "lower"),
    ("crypto.engine.batches", "count", "lower"),
    ("crypto.engine.ce_us", "us", "lower"),
    ("crypto.hashing.values", "count", "lower"),
    ("crypto.hashing.busy_s", "s", "lower"),
    ("crypto.ext_cipher.busy_s", "s", "lower"),
    ("protocols.parties.r_setup_s", "s", "lower"),
    ("protocols.parties.r_round1_s", "s", "lower"),
    ("protocols.parties.s_setup_s", "s", "lower"),
    ("protocols.parties.s_round1_s", "s", "lower"),
    ("protocols.parties.r_finish_s", "s", "lower"),
    ("protocols.parties.self_s", "s", "lower"),
    ("protocols.messages.wire_s", "s", "lower"),
    ("net.serialization.encode_s", "s", "lower"),
    ("net.serialization.decode_s", "s", "lower"),
    ("net.serialization.frames", "count", "lower"),
    ("net.serialization.frame_bytes", "bytes", "lower"),
    ("net.tcp.loopback_s", "s", "lower"),
    ("net.session.frames_sent", "count", "lower"),
    ("net.session.frames_received", "count", "lower"),
    ("net.session.retransmits", "count", "lower"),
    ("net.session.reconnects", "count", "lower"),
    ("net.session.chunks_sent", "count", "lower"),
    ("net.journal.appends", "count", "lower"),
    ("net.journal.bytes", "bytes", "lower"),
    ("net.journal.fsyncs", "count", "lower"),
    ("net.journal.write_s", "s", "lower"),
    ("net.journal.fsync_s", "s", "lower"),
    *(
        (f"ladder.{rung}_ms", "ms", "lower")
        for rung in ladder.RUNGS
    ),
    *((step, "ms", "lower") for step in ladder.STEPS),
    ("net.shard.routed", "count", "higher"),
    ("net.shard.respawns", "count", "lower"),
    ("net.shard.worker_lost_notices", "count", "lower"),
    ("net.shard.refused", "count", "lower"),
    ("net.catalog.writes", "count", "lower"),
    ("net.catalog.bytes_written_per_delta", "bytes", "lower"),
    ("net.catalog.fsyncs", "count", "lower"),
    ("net.catalog.io_s", "s", "lower"),
    ("net.catalog.digest_s", "s", "lower"),
    ("net.catalog.lookup_s", "s", "lower"),
    ("net.catalog.cache_bytes", "bytes", "lower"),
    ("protocols.delta.modexp_per_changed_value", "count", "lower"),
    ("protocols.delta.self_ms", "ms", "lower"),
    ("trace.rs_overlap", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ----------------------------------------------------------------------
# Helpers shared by the workloads
# ----------------------------------------------------------------------
def timed_call(call: Callable[[], Any]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def median_time(repeats: int, call: Callable[[], Any]) -> float:
    """Median wall time of ``call`` over ``repeats`` calls."""
    return statistics.median(timed_call(call) for _ in range(repeats))


def replay_hashing(params: PublicParams, *value_sets: Any) -> dict[str, float]:
    """``hash_set`` over the parties' inputs, timed outside the protocol."""
    _group, hasher, _cipher = params.build()
    values = [v for values in value_sets for v in values]
    return {
        "crypto.hashing.values": len(values),
        "crypto.hashing.busy_s": median_time(
            3, lambda: hasher.hash_set(values)
        ),
    }


def replay_messages(drive: SimpleNamespace, net: bool) -> dict[str, float]:
    """Push the captured round messages through ``to_wire``/``from_wire``
    and - for workloads that use ``net/`` - through the wire codec and a
    loopback :class:`~repro.net.tcp.SocketEndpoint` pair."""
    def wire() -> None:
        for cls, message in drive.messages:
            cls.from_wire(message.to_wire())

    out = {"protocols.messages.wire_s": median_time(5, wire)}
    if not net:
        return out
    encoded = [serialization.encode(frame) for frame in drive.frames]
    encode_s = median_time(
        5, lambda: [serialization.encode(frame) for frame in drive.frames]
    )
    decode_s = median_time(
        5, lambda: [serialization.decode(data) for data in encoded]
    )

    def loopback() -> float:
        left, right = socket.socketpair()
        sender, receiver = SocketEndpoint(sock=left), SocketEndpoint(sock=right)
        reader = threading.Thread(
            target=lambda: [receiver.recv() for _ in drive.frames]
        )
        start = time.perf_counter()
        reader.start()
        for frame in drive.frames:
            sender.send(frame)
        reader.join()
        elapsed = time.perf_counter() - start
        sender.close()
        receiver.close()
        return elapsed

    out.update({
        "net.serialization.encode_s": encode_s,
        "net.serialization.decode_s": decode_s,
        "net.serialization.frames": len(encoded),
        "net.serialization.frame_bytes": sum(len(data) for data in encoded),
        # The endpoint pair encodes and decodes too; what is left is the
        # length prefix, the socket calls and the thread hand-over.
        "net.tcp.loopback_s": max(
            0.0,
            statistics.median(loopback() for _ in range(5))
            - encode_s - decode_s,
        ),
    })
    return out


def is_busy(span: dict[str, Any]) -> bool:
    """A span in which a party computes (``wait_*`` phases only wait)."""
    return ".wait_" not in span["name"]


def op_layers(spans: list[dict[str, Any]], root: dict[str, Any]) -> dict[str, float]:
    """Per-layer numbers of one traced operation, from its spans."""
    batches = [s for s in spans if s["name"] == "crypto.engine.pow_many"]
    modexps = sum(s["count"] for s in batches)
    busy = duration(batches)
    out = {
        "crypto.engine.modexp_count": modexps,
        "crypto.engine.busy_s": busy,
        "crypto.engine.batches": len(batches),
        "crypto.engine.ce_us": busy / modexps * 1e6 if modexps else 0.0,
    }
    for phase in ("r.setup", "r.round1", "s.setup", "s.round1", "r.finish"):
        out[f"protocols.parties.{phase.replace('.', '_')}_s"] = duration(
            s for s in spans if s["name"] == f"protocols.parties.{phase}"
        )
    explained = [
        (max(s["start"], root["start"]), min(s["end"], root["end"]))
        for s in spans
        if s is not root and is_busy(s)
    ]
    out["trace.unattributed_s"] = (
        root["end"] - root["start"] - covered(explained)
    )
    return out


def phases_busy(spans: list[dict[str, Any]], role: str = "") -> float:
    """Time in which the party machines of ``role`` computed."""
    return covered(
        (s["start"], s["end"])
        for s in spans
        if s["name"].startswith(f"protocols.parties.{role}") and is_busy(s)
    )


def op_spans(tracer: Tracer, op_id: str) -> list[dict[str, Any]]:
    """The spans of one operation, root first."""
    return [s for s in tracer.spans if s["op_id"] == op_id]


def by_op(spans: list[dict[str, Any]], kind: str) -> list[list[dict[str, Any]]]:
    """The spans of each operation whose root span is named ``kind``,
    root first."""
    groups: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        if span["name"] == kind and span["parent"] is None:
            groups[span["op_id"]] = [span]
    for span in spans:
        group = groups.get(span["op_id"])
        if group is not None and span is not group[0]:
            group.append(span)
    return list(groups.values())


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median of per-operation metric dicts."""
    return {
        key: statistics.median(row[key] for row in rows) for key in rows[0]
    }


def priced(
    slices: list[tuple[list[float], float, float]], model_modexps: int,
    tail: int | None,
) -> dict[str, float]:
    """The gated latency metrics of a timed pass.

    ``slices`` holds, per slice of operations, their latencies, the
    slice's wall time and ``C_e`` around it (the mean of the readings
    before and after, in seconds). Every operation is priced on its
    own: latency over what the model's ``model_modexps``
    exponentiations cost at that moment. ``model_ratio`` is the median
    price over the whole pass, ``tail_ratio`` its ``tail``-th
    percentile. A workload whose sample count supports no percentile
    (``tail`` is ``None``) reports the median for both: the slowest of
    three queries is whatever the neighbours did to it.
    """
    prices = [
        latency / (model_modexps * ce_s)
        for latencies, _wall_s, ce_s in slices
        for latency in latencies
    ]
    median = statistics.median(prices)
    return {
        "model_ratio": median,
        "tail_ratio": spans.percentile(prices, tail) if tail else median,
    }


def as_measured(
    slices: list[tuple[list[float], float, float]], tail: int | None
) -> dict[str, float]:
    """The same pass in seconds, for the printout and the result file:
    this box's numbers at this moment, gated nowhere."""
    pooled = [x for latencies, _wall_s, _ce_s in slices for x in latencies]
    out = {
        "query_s": statistics.median(pooled),
        "queries_per_s": len(pooled) / sum(wall_s for _, wall_s, _ in slices),
        "ce_us": 1e6 * statistics.median(ce_s for _, _, ce_s in slices),
    }
    if tail:
        out["query_tail_s"] = spans.percentile(pooled, tail)
    if len(pooled) >= 100 * spans.MIN_BEYOND:
        out["query_p99_s"] = spans.percentile(pooled, 99)
    return out


# ----------------------------------------------------------------------
# Workload base
# ----------------------------------------------------------------------
class Workload:
    """One workload: sizes, set-up, a timed pass and a traced pass."""

    name = ""
    why = ""
    #: How often set-up is repeated for the ``setup_s`` median (set-ups
    #: that take seconds of pure computation run once).
    prepares = 1
    #: The workload's fsync policy, for the result file.
    fsync = ""
    full: dict[str, Any] = {}
    tiny: dict[str, Any] = {}

    def __init__(self, seed: int, seconds: float, tiny: bool, tally: harness.Tally):
        self.seed, self.seconds, self.tally = seed, seconds, tally
        self.size = SimpleNamespace(
            **(self.tiny if tiny else self.full),
            calibrate_s=0.0 if tiny else 1.0,
        )
        self.detail: dict[str, Any] = {}

    @property
    def model_modexps(self) -> int:
        """Section 6's modexp count for one operation of this workload."""
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def calibrate(self) -> None:
        """Build the ``C_e`` probe at the workload's modulus and let it
        read for a second (part of set-up)."""
        self.probe = harness.CeProbe(self.size.bits, random.Random(self.seed))
        self.probe.settle(self.size.calibrate_s)

    def release(self) -> None:
        """Undo :meth:`prepare` (stop servers, remove temp dirs)."""

    def timed_operation(self, label: str) -> tuple[float | None, Any]:
        """One operation of a one-client workload's timed pass."""
        raise NotImplementedError

    def run_slice(
        self, label: str, ops: int | None = None
    ) -> tuple[list[float], float]:
        """``ops`` (default ``slice_ops``) back-to-back operations of the
        one closed-loop client: their latencies and the wall time."""
        latencies = []
        start = time.perf_counter()
        for index in range(ops or self.size.slice_ops):
            elapsed, _result = self.timed_operation(f"{label}-{index}")
            if elapsed is not None:
                latencies.append(elapsed)
        return latencies, time.perf_counter() - start

    def timed(self) -> dict[str, float]:
        """Slices of operations, a ``C_e`` reading between them, until
        ``min_ops`` operations ran and ``--seconds`` have passed."""
        slices: list[tuple[list[float], float, float]] = []
        start = time.perf_counter()
        before = self.probe.read()
        while (
            len(slices) * self.size.slice_ops < self.size.min_ops
            or time.perf_counter() - start < self.seconds
        ):
            latencies, wall_s = self.run_slice(f"slice-{len(slices)}")
            after = self.probe.read()
            slices.append((latencies, wall_s, (before + after) / 2))
            before = after
        self.detail["slices"] = [
            {"latencies_s": latencies, "wall_s": wall_s, "ce_s": ce_s}
            for latencies, wall_s, ce_s in slices
        ]
        self.detail["as_measured"] = as_measured(slices, self.size.tail)
        return priced(slices, self.model_modexps, self.size.tail)

    def traced(self, tracer: Tracer) -> dict[str, float]:
        raise NotImplementedError

    def operate(
        self, tracer: Tracer | None, kind: str, label: str, expected: Any,
        call: Callable[[dict[str, Any]], Any],
    ) -> tuple[float | None, Any]:
        """One oracle-checked operation, under a root span when traced.
        ``call`` receives the ``engine=``/``recorder=`` kwargs to use."""
        if tracer is None:
            return self.tally.timed(label, expected, lambda: call({}))
        with tracer.op(kind, label) as root:
            return self.tally.timed(
                label, expected,
                lambda: call(wrappers(tracer, label, root["id"])),
            )


# ----------------------------------------------------------------------
# psi-1024
# ----------------------------------------------------------------------
class Psi(Workload):
    name = "psi-1024"
    why = (
        "the paper's regime through the durable one-shot stack, R and S on "
        "separate cores: crypto is ~90% of the work, frames are few and large"
    )
    prepares = 3
    fsync = "journal fsync on, both parties"
    full = dict(bits=1024, n=300, overlap=150, chunk=64, slice_ops=1, min_ops=3, warm_n=16, tail=None)
    tiny = dict(bits=256, n=12, overlap=6, chunk=4, slice_ops=1, min_ops=2, warm_n=4, tail=None)

    @property
    def model_modexps(self) -> int:
        return 2 * (self.size.n + self.size.n)

    def prepare(self) -> None:
        size, rng = self.size, random.Random(self.seed)
        self.inputs = overlapping_sets(size.n, size.n, size.overlap, rng)
        self.params = PublicParams.for_bits(size.bits)
        self.calibrate()
        # Warm-up: a small query through the same stack, so imports,
        # fork and journal code paths are paid before timing.
        warm = overlapping_sets(
            size.warm_n, size.warm_n, size.warm_n // 2, rng, prefix="w"
        )
        self.query("warm-up", warm)

    def query(
        self, label: str, inputs: Any = None, tracer: Tracer | None = None
    ) -> tuple[float | None, Any]:
        """One query: S forked for it, R here, both with a fresh fsync'd
        journal; traced queries go through the counting relay."""
        v_r, v_s, expected = inputs or self.inputs
        tmp = harness.make_tmpdir()
        chunk = self.size.chunk

        def serve(ready: Callable[[int], None]) -> None:
            s_tracer = Tracer() if tracer is not None else None
            io = TimingIO(s_tracer, "net.journal", label) if s_tracer else None
            try:
                repro.serve(
                    "intersection", v_s, params=self.params,
                    seed=party_seed(self.seed, label, "S"), chunk_size=chunk,
                    ready_callback=ready,
                    session=repro.SessionOptions(
                        journal_dir=JournalDir(tmp / "s", fsync=True, io=io)
                    ),
                    **wrappers(s_tracer, label),
                )
            finally:
                if s_tracer is not None:
                    s_tracer.dump(tmp / "s-spans.jsonl", extra=io.totals)

        server = relay = None
        try:
            server = harness.fork_child(serve)
            relay = Relay(server.port, tmp) if tracer is not None else None
            io = TimingIO(tracer, "net.journal", label) if tracer else None
            outcome = self.operate(
                tracer, "psi.query", label, expected,
                lambda instruments: repro.connect(
                    "intersection", v_r,
                    port=relay.port if relay else server.port,
                    seed=party_seed(self.seed, label, "R"), chunk_size=chunk,
                    session=repro.SessionOptions(
                        journal_dir=JournalDir(tmp / "r", fsync=True, io=io)
                    ),
                    **instruments,
                ),
            )
            if server.reap() != 0:
                raise RuntimeError(f"{label}: party S exited with an error")
            server = None
            if tracer is not None:
                self.traced_io = add_totals(
                    io.totals, tracer.absorb(tmp / "s-spans.jsonl")
                )
                self.traced_wire_bytes = relay.stop()
                relay = None
            return outcome
        finally:
            if server is not None:
                server.reap(timeout=0)
            if relay is not None:
                relay.abort()
            harness.remove_tree(tmp)

    def timed_operation(self, label: str) -> tuple[float | None, Any]:
        return self.query(label)

    def traced(self, tracer: Tracer) -> dict[str, float]:
        v_r, v_s, expected = self.inputs
        untraced_s, _ = self.query("untraced-0")
        traced_s, result = self.query("traced-0", tracer=tracer)
        spans = op_spans(tracer, "traced-0")
        root = spans[0]
        layers = op_layers(spans, root)
        busy_r, busy_s = phases_busy(spans, "r."), phases_busy(spans, "s.")
        stats = result.stats
        journal = self.traced_io
        layers.update({
            "wire_bytes": self.traced_wire_bytes,
            "trace.rs_overlap": (
                (busy_r + busy_s - (root["end"] - root["start"]))
                / min(busy_r, busy_s)
            ),
            "api.query_s": untraced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
            "net.session.frames_sent": stats.frames_sent,
            "net.session.frames_received": stats.frames_received,
            "net.session.retransmits": stats.retransmits,
            "net.session.reconnects": stats.reconnects,
            "net.session.chunks_sent": stats.chunks_sent,
            "net.journal.appends": journal["writes"],
            "net.journal.bytes": journal["bytes"],
            "net.journal.fsyncs": journal["fsyncs"],
            "net.journal.write_s": journal["write_s"],
            "net.journal.fsync_s": journal["fsync_s"],
        })
        layers.update(replay_hashing(self.params, v_r, v_s))
        with tracer.op("psi.memory", "memory-0") as memory_root:
            _, drive = self.tally.timed(
                "memory-0", expected,
                lambda: machines_in_memory(
                    "intersection", v_r, v_s, self.params,
                    party_seed(self.seed, "memory-0", "R"),
                    party_seed(self.seed, "memory-0", "S"),
                    self.size.chunk,
                    **wrappers(tracer, "memory-0", memory_root["id"]),
                ),
            )
        layers.update(replay_messages(drive, net=True))
        layers["protocols.parties.self_s"] = (
            phases_busy(spans, "r.") + phases_busy(spans, "s.")
            - layers["crypto.engine.busy_s"] - layers["crypto.hashing.busy_s"]
        )
        self.detail["paper_wire_bytes"] = (
            (self.size.n + 2 * self.size.n) * self.size.bits // 8
        )
        return layers


# ----------------------------------------------------------------------
# equijoin-1024
# ----------------------------------------------------------------------
class Equijoin(Workload):
    name = "equijoin-1024"
    why = (
        "sender-heavy 2n_S+5n_R modexps, per-value keys, ext cipher, "
        "in-process: a net/ change or an intersection-only shortcut must not move it"
    )
    prepares = 3
    fsync = "no disk"
    full = dict(bits=1024, n_r=100, n_s=500, overlap=50, ext_bytes=64, slice_ops=1, min_ops=3, warm=4, tail=None)
    tiny = dict(bits=256, n_r=4, n_s=10, overlap=2, ext_bytes=64, slice_ops=1, min_ops=2, warm=2, tail=None)

    @property
    def model_modexps(self) -> int:
        return 2 * self.size.n_s + 5 * self.size.n_r

    def make_inputs(self, n_r: int, n_s: int, overlap: int, rng: random.Random, prefix: str) -> Any:
        v_r, v_s, common = overlapping_sets(n_r, n_s, overlap, rng, prefix=prefix)
        ext = {v: rng.randbytes(self.size.ext_bytes) for v in v_s}
        return v_r, ext, {v: ext[v] for v in common}

    def prepare(self) -> None:
        size, rng = self.size, random.Random(self.seed)
        self.inputs = self.make_inputs(size.n_r, size.n_s, size.overlap, rng, "v")
        self.params = PublicParams.for_bits(size.bits)
        self.calibrate()
        warm = self.make_inputs(size.warm, 2 * size.warm, size.warm // 2, rng, "w")
        self.query("warm-up", warm)

    def query(
        self, label: str, inputs: Any = None, tracer: Tracer | None = None
    ) -> tuple[float | None, Any]:
        v_r, ext, expected = inputs or self.inputs
        return self.operate(
            tracer, "equijoin.query", label, expected,
            lambda instruments: repro.run(
                "equijoin", v_r, ext, params=self.params,
                seed=party_seed(self.seed, label, "RS"), **instruments,
            ),
        )

    def timed_operation(self, label: str) -> tuple[float | None, Any]:
        return self.query(label)

    def replay_ext_cipher(self) -> float:
        """Encrypt every ``ext(v)`` and decrypt the matches, outside the
        protocol, with the cipher the parties use."""
        from repro.crypto.ext_cipher import BlockExtCipher

        _v_r, ext, expected = self.inputs
        group, hasher, _cipher = self.params.build()
        cipher = BlockExtCipher(group)
        kappas = dict(zip(ext, hasher.hash_set(ext)))

        def replay() -> None:
            sealed = {v: cipher.encrypt(kappas[v], ext[v]) for v in ext}
            for v in expected:
                cipher.decrypt(kappas[v], sealed[v])

        return timed_call(replay)

    def traced(self, tracer: Tracer) -> dict[str, float]:
        v_r, ext, expected = self.inputs
        untraced_s, _ = self.query("untraced-0")
        traced_s, _ = self.query("traced-0", tracer=tracer)
        spans = op_spans(tracer, "traced-0")
        layers = op_layers(spans, spans[0])
        layers["api.query_s"] = untraced_s
        layers["trace.overhead_ratio"] = traced_s / untraced_s
        layers.update(replay_hashing(self.params, v_r, ext))
        layers["crypto.ext_cipher.busy_s"] = self.replay_ext_cipher()
        with tracer.op("equijoin.memory", "memory-0") as memory_root:
            _, drive = self.tally.timed(
                "memory-0", expected,
                lambda: machines_in_memory(
                    "equijoin", v_r, ext, self.params,
                    party_seed(self.seed, "memory-0", "R"),
                    party_seed(self.seed, "memory-0", "S"), None,
                    **wrappers(tracer, "memory-0", memory_root["id"]),
                ),
            )
        layers.update(replay_messages(drive, net=False))
        layers["protocols.parties.self_s"] = (
            phases_busy(spans) - layers["crypto.engine.busy_s"]
            - layers["crypto.hashing.busy_s"]
            - layers["crypto.ext_cipher.busy_s"]
        )
        return layers


# ----------------------------------------------------------------------
# herd-small
# ----------------------------------------------------------------------
class Herd(Workload):
    name = "herd-small"
    why = (
        "many tiny sessions against the sharded journaled server: handshake, "
        "seq/ack/CRC, journal, event loop and shard splice dominate, crypto is a tenth"
    )
    prepares = 3
    fsync = "server journal fsync off (its cost is the ladder's fsync rung)"
    full = dict(bits=256, n=4, overlap=2, chunk=2, slice_ops=10, min_ops=200, warm_sessions=50, traced_sessions=250, ladder_sessions=150, tail=95)
    tiny = dict(bits=128, n=4, overlap=2, chunk=2, slice_ops=3, min_ops=6, warm_sessions=2, traced_sessions=6, ladder_sessions=3, tail=None)

    @property
    def model_modexps(self) -> int:
        return 2 * (self.size.n + self.size.n)

    def prepare(self) -> None:
        size, rng = self.size, random.Random(self.seed)
        self.inputs = overlapping_sets(size.n, size.n, size.overlap, rng)
        self.params = PublicParams.for_bits(size.bits)
        self.calibrate()
        self.tmp = harness.make_tmpdir()
        self.server = ShardedProtocolServer(
            {"intersection": (self.inputs[1], self.params)}, shards=2,
            worker_processes=True, journal_dir=self.tmp / "journal",
            journal_fsync=False, chunk_size=size.chunk,
        ).start()
        self.run_slice("warm-up", size.warm_sessions)

    def release(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            self.server = None
            server.shutdown()
            harness.remove_tree(self.tmp)

    def session(
        self, label: str, tracer: Tracer | None = None, port: int | None = None
    ) -> tuple[float | None, Any]:
        """One session of the closed-loop client (each partner
        institution waits for its answer)."""
        v_r, _v_s, expected = self.inputs
        return self.operate(
            tracer, "herd.session", label, expected,
            lambda instruments: repro.connect(
                "intersection", v_r, port=port or self.server.port,
                seed=party_seed(self.seed, label, "R"),
                chunk_size=self.size.chunk,
                session=repro.SessionOptions(), **instruments,
            ),
        )

    def timed_operation(self, label: str) -> tuple[float | None, Any]:
        return self.session(label)

    def traced(self, tracer: Tracer) -> dict[str, float]:
        size = self.size
        v_r, v_s, expected = self.inputs
        untraced, _ = self.run_slice("untraced", size.traced_sessions)
        relay = Relay(self.server.port, self.tmp)
        try:
            done = [
                self.session(f"traced-{index}", tracer, relay.port)
                for index in range(size.traced_sessions)
            ]
        finally:
            wire_bytes = relay.stop()
        traced = [elapsed for elapsed, _ in done if elapsed is not None]
        stats = [result.stats for elapsed, result in done if elapsed is not None]
        layers = {
            "api.query_s": statistics.median(untraced),
            "wire_bytes": wire_bytes / len(traced),
            "trace.overhead_ratio": (
                statistics.median(traced) / statistics.median(untraced)
            ),
            "trace.unattributed_s": statistics.median(
                op_layers(spans, spans[0])["trace.unattributed_s"]
                for spans in by_op(tracer.spans, "herd.session")
            ),
            "net.shard.routed": self.server.routed,
            "net.shard.respawns": self.server.respawns,
            "net.shard.worker_lost_notices": self.server.worker_lost_notices,
            "net.shard.refused": (
                self.server.refused_unroutable + self.server.refused_failed
            ),
        }
        for field in (
            "frames_sent", "frames_received", "retransmits", "reconnects",
            "chunks_sent",
        ):
            layers[f"net.session.{field}"] = statistics.median(
                getattr(s, field) for s in stats
            )
        rungs = ladder.climb(self, tracer)
        layers.update(rungs.metrics)
        self.detail["ladder"] = rungs.detail
        # Both parties' crypto and phases come from traced in-memory
        # sessions: the shard workers are separate processes that take
        # no engine or recorder from outside.
        memory = []
        for index in range(max(1, size.ladder_sessions // 5)):
            name = f"memory-{index}"
            with tracer.op("herd.memory", name) as root:
                self.tally.timed(name, expected, lambda: machines_in_memory(
                    "intersection", v_r, v_s, self.params,
                    party_seed(self.seed, name, "R"),
                    party_seed(self.seed, name, "S"), size.chunk,
                    **wrappers(tracer, name, root["id"]),
                ))
        for spans in by_op(tracer.spans, "herd.memory"):
            row = op_layers(spans, spans[0])
            del row["trace.unattributed_s"]  # the sessions' own is reported
            row["protocols.parties.busy_s"] = phases_busy(spans)
            memory.append(row)
        layers.update(medians(memory))
        layers.update(replay_hashing(self.params, v_r, v_s))
        layers.update(replay_messages(rungs.drive, net=True))
        layers["protocols.parties.self_s"] = (
            layers.pop("protocols.parties.busy_s")
            - layers["crypto.engine.busy_s"] - layers["crypto.hashing.busy_s"]
        )
        return layers


# ----------------------------------------------------------------------
# delta-churn and delta-reopen
# ----------------------------------------------------------------------
class CatalogPair:
    """Two paired catalogs with on-disk caches, their plaintext tables
    (the oracle) and the churn that mutates both."""

    def __init__(self, workload: "DeltaChurn", tag: str, tracer: Tracer | None = None):
        size = workload.size
        self.workload, self.tag, self.tracer = workload, tag, tracer
        self.rng = random.Random(f"{workload.seed}/{tag}")
        self.staged = 0
        v_r, v_s, _ = overlapping_sets(size.n, size.n, size.overlap, self.rng)
        self.tables = {"r": v_r, "s": v_s}
        self.dirs = {
            side: workload.tmp / f"{tag}-{side}" for side in self.tables
        }
        self.io = {
            side: TimingIO(tracer, "net.catalog") if tracer else None
            for side in self.tables
        }
        self.open()

    def open(self) -> None:
        """(Re)open both catalogs on their cache dirs and pair them."""
        catalogs = {
            side: repro.open_catalog(
                list(values), bits=self.workload.size.bits,
                seed=party_seed(self.workload.seed, "catalog", side),
                cache_dir=self.dirs[side], cache_io=self.io[side],
                **wrappers(self.tracer),
            )
            for side, values in self.tables.items()
        }
        self.catalogs = catalogs
        self.peer = catalogs["r"].pair(catalogs["s"])

    @property
    def expected(self) -> set:
        return set(self.tables["r"]) & set(self.tables["s"])

    def stage(self) -> None:
        """Stage ``churn`` deletes and ``churn`` inserts on each side;
        half of the inserts are common to both sides."""
        churn = self.workload.size.churn
        self.staged += 1
        for side, values in self.tables.items():
            for _ in range(churn):
                position = self.rng.randrange(len(values))
                values[position], values[-1] = values[-1], values[position]
                self.catalogs[side].delete(values.pop())
            for i in range(churn):
                owner = "both" if i % 2 else side
                value = f"new-{owner}-{self.staged}-{i}"
                values.append(value)
                self.catalogs[side].insert(value)

    def query(self, kind: str, label: str, mode: str, reopen: bool = False) -> tuple[float | None, Any]:
        def call(_instruments: dict[str, Any]) -> Any:
            if reopen:
                self.open()
            result = self.peer.query("intersection")
            if result.mode != mode or (reopen and not result.cache_hit):
                raise RuntimeError(
                    f"expected a {mode} query (cache hit on reopen), got "
                    f"mode={result.mode} cache_hit={result.cache_hit}"
                )
            return result

        return self.workload.operate(
            self.tracer, kind, label, self.expected, call
        )

    def io_totals(self) -> dict[str, float]:
        return add_totals(*(io.totals for io in self.io.values()))

    def cache_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for folder in self.dirs.values()
            for path in folder.iterdir()
        )


class DeltaChurn(Workload):
    name = "delta-churn"
    why = (
        "series-of-queries traffic at 0.1% churn: crypto is O(|delta|) and "
        "small, net.catalog's cache write path and protocols.delta dominate"
    )
    fsync = "catalog cache fsync on (cache_fsync default)"
    full = dict(bits=256, n=4000, overlap=2000, churn=4, slice_ops=2, min_ops=200, traced_ops=60, tail=90)
    tiny = dict(bits=128, n=40, overlap=20, churn=2, slice_ops=2, min_ops=4, traced_ops=3, tail=None)

    @property
    def model_modexps(self) -> int:
        # Section 6 priced on the changed values alone: each side stages
        # `churn` inserts and `churn` deletes.
        return 2 * (2 * self.size.churn + 2 * self.size.churn)

    def prepare(self) -> None:
        self.calibrate()
        self.tmp = harness.make_tmpdir()
        self.pair = CatalogPair(self, "timed")
        self.pair.query("delta.full", "first-full", "full")

    def release(self) -> None:
        if getattr(self, "tmp", None) is not None:
            harness.remove_tree(self.tmp)
            self.tmp = None

    def timed_operation(self, label: str) -> tuple[float | None, Any]:
        self.pair.stage()
        return self.pair.query("delta.query", label, "delta")

    def traced(self, tracer: Tracer) -> dict[str, float]:
        size = self.size
        traced_pair = CatalogPair(self, "traced", tracer)
        traced_pair.query("delta.full", "traced-full", "full")
        untraced, traced, rows = [], [], []
        # Alternate short blocks so drift of the box hits both alike.
        blocks = 3
        for _ in range(blocks):
            for _ in range(size.traced_ops // blocks or 1):
                self.pair.stage()
                untraced.append(self.pair.query(
                    "delta.query", f"untraced-{len(untraced)}", "delta"
                )[0])
            for _ in range(size.traced_ops // blocks or 1):
                before = traced_pair.io_totals()
                traced_pair.stage()
                label = f"traced-{len(traced)}"
                traced.append(
                    traced_pair.query("delta.query", label, "delta")[0]
                )
                rows.append(self.delta_row(
                    tracer, label, before, traced_pair.io_totals()
                ))
        layers = medians(rows)
        layers["api.query_s"] = statistics.median(
            t for t in untraced if t is not None
        )
        layers["trace.overhead_ratio"] = (
            statistics.median(t for t in traced if t is not None)
            / layers["api.query_s"]
        )
        layers.update(catalog_replays(traced_pair))
        layers.update(replay_hashing(
            PublicParams.for_bits(size.bits),
            traced_pair.tables["r"][-size.churn:],
            traced_pair.tables["s"][-size.churn:],
        ))
        layers["protocols.delta.self_ms"] = 1e3 * (
            statistics.median(t for t in traced if t is not None)
            - layers["crypto.engine.busy_s"] - layers["net.catalog.io_s"]
            - layers["net.catalog.digest_s"]
        )
        return layers

    def delta_row(
        self, tracer: Tracer, label: str,
        before: dict[str, float], after: dict[str, float],
    ) -> dict[str, float]:
        """Per-layer numbers of one traced delta query."""
        spans = op_spans(tracer, label)
        io = {key: after[key] - before[key] for key in after}
        row = op_layers(spans, spans[0])
        # Appends have no spans (see TimingIO); they are explained time.
        row["trace.unattributed_s"] -= io["write_s"]
        row.update({
            "net.catalog.writes": io["writes"],
            "net.catalog.bytes_written_per_delta": io["bytes"],
            "net.catalog.fsyncs": io["fsyncs"],
            "net.catalog.io_s": io["write_s"] + io["fsync_s"] + io["other_s"],
            "protocols.delta.modexp_per_changed_value": (
                row["crypto.engine.modexp_count"] / (4 * self.size.churn)
            ),
        })
        return row


def catalog_replays(pair: CatalogPair) -> dict[str, float]:
    """``table_digest`` and ``CatalogCache.lookup`` on both parties'
    current tables and cache files, timed outside the protocol."""
    digests = {
        side: table_digest(values) for side, values in pair.tables.items()
    }

    def lookups() -> None:
        for side, folder in pair.dirs.items():
            for path in folder.glob("*.cat"):
                protocol = path.name.split(".", 1)[1].removesuffix(".cat")
                if CatalogCache(folder).lookup(digests[side], protocol) is None:
                    raise RuntimeError(f"no cache entry for {path.name}")

    return {
        "net.catalog.digest_s": median_time(
            3, lambda: [table_digest(values) for values in pair.tables.values()]
        ),
        "net.catalog.lookup_s": median_time(3, lookups),
        "net.catalog.cache_bytes": pair.cache_bytes(),
    }


class DeltaReopen(DeltaChurn):
    name = "delta-reopen"
    why = (
        "restart of both parties on a warm cache: exercises the cache read "
        "path (lookup) that delta-churn's write path must not be traded against"
    )
    full = dict(bits=256, n=4000, overlap=2000, churn=4, slice_ops=1, min_ops=7, warm_deltas=8, traced_ops=3, tail=None)
    tiny = dict(bits=128, n=40, overlap=20, churn=2, slice_ops=1, min_ops=2, warm_deltas=2, traced_ops=2, tail=None)

    @property
    def model_modexps(self) -> int:
        # The model knows no cache: a full intersection query.
        return 2 * (self.size.n + self.size.n)

    def prepare(self) -> None:
        super().prepare()
        self.churned(self.pair)

    def churned(self, pair: CatalogPair) -> None:
        """A few delta queries, so the cache file has been appended to
        and re-keyed the way a live one has."""
        for index in range(self.size.warm_deltas):
            pair.stage()
            pair.query("delta.query", f"{pair.tag}-warm-delta-{index}", "delta")

    def timed_operation(self, label: str) -> tuple[float | None, Any]:
        return self.pair.query("reopen.query", label, "full", reopen=True)

    def traced(self, tracer: Tracer) -> dict[str, float]:
        traced_pair = CatalogPair(self, "traced", tracer)
        traced_pair.query("delta.full", "traced-full", "full")
        self.churned(traced_pair)
        untraced, traced, rows = [], [], []
        for index in range(self.size.traced_ops):
            untraced.append(self.pair.query(
                "reopen.query", f"untraced-{index}", "full", reopen=True
            )[0])
            before = traced_pair.io_totals()
            label = f"traced-{index}"
            traced.append(
                traced_pair.query("reopen.query", label, "full", reopen=True)[0]
            )
            row = self.delta_row(tracer, label, before, traced_pair.io_totals())
            row["protocols.delta.modexp_per_changed_value"] = 0
            rows.append(row)
        layers = medians(rows)
        layers["api.query_s"] = statistics.median(untraced)
        layers["trace.overhead_ratio"] = (
            statistics.median(traced) / layers["api.query_s"]
        )
        layers.update(catalog_replays(traced_pair))
        return layers


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Psi, Equijoin, Herd, DeltaChurn, DeltaReopen)
}
