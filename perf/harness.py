"""Measuring tools of the ``perf/`` benchmark.

Everything here looks at ``repro`` from outside: statistics with the
"ten samples beyond" rule, an oracle tally, spans kept in memory, and
timing subclasses for the injection points the public API already has
(``engine=``, ``recorder=``, ``JournalDir(io=...)``, ``cache_io=``).
Nothing in ``src/`` knows this module exists.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from repro.analysis.instrumentation import MetricsRecorder
from repro.crypto.engine import CryptoEngine
from repro.net import serialization
from repro.net.diskfaults import JournalIO
from repro.protocols.parties import (
    PublicParams,
    ReceiverMachine,
    SenderMachine,
)
from repro.protocols.spec import get_spec

from spans import Tracer

PERF = Path(__file__).resolve().parent
REPO = PERF.parent
OUT = PERF / "out"

# ----------------------------------------------------------------------
# Oracle tally
# ----------------------------------------------------------------------
class Tally:
    """Counts operations attempted and failed against a plaintext oracle.

    An operation fails when it raises or when its ``.answer`` differs
    from the expected value; either way it is printed with the seed and
    contributes no latency sample.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()

    def timed(
        self, label: str, expected: Any, operation: Callable[[], Any]
    ) -> tuple[float | None, Any]:
        """Run ``operation``; returns ``(seconds, result)``, with
        ``seconds`` ``None`` when the operation failed."""
        start = time.perf_counter()
        try:
            result = operation()
        except Exception as exc:  # a failed operation is a counted outcome
            self._count(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        if result.answer != expected:
            self._count(f"{label}: answer differs from the plaintext oracle")
            return None, result
        self._count(None)
        return elapsed, result

    def _count(self, failure: str | None) -> None:
        with self._lock:
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                self.failures.append(failure)
                print(f"FAILED (seed {self.seed}) {failure}", flush=True)


# ----------------------------------------------------------------------
# Timing wrappers for the public injection points
# ----------------------------------------------------------------------
class TimingEngine(CryptoEngine):
    """The serial engine with a span (and a modexp count) per batch."""

    def __init__(
        self, tracer: Tracer, op_id: str | None = None,
        parent: int | None = None,
    ):
        self.tracer, self.op_id, self.parent = tracer, op_id, parent

    def pow_many(self, xs: Any, exponent: int, modulus: int) -> list[int]:
        with self.tracer.span(
            "crypto.engine.pow_many", self.op_id, self.parent
        ) as record:
            out = [pow(x, exponent, modulus) for x in xs]
            record["count"] = len(out)
        return out


class SpanRecorder(MetricsRecorder):
    """A recorder whose phases are also spans
    (``protocols.parties.<role>.<phase>``)."""

    def __init__(
        self, tracer: Tracer, op_id: str | None = None,
        parent: int | None = None,
    ):
        super().__init__()
        self.tracer, self.op_id, self.parent = tracer, op_id, parent

    @contextmanager
    def phase(self, name: str) -> Iterator[Any]:
        with self.tracer.span(
            f"protocols.parties.{name}", self.op_id, self.parent
        ), super().phase(name) as stats:
            yield stats


class TimingIO(JournalIO):
    """Real file operations, counted and timed.

    Appends are too many to give a span each (a catalog-cache rewrite
    is thousands of small writes), so writes and flushes are summed in
    :attr:`totals`; the rare slow calls (fsync, rename, open) are spans
    named ``<layer>.<call>``.
    """

    def __init__(self, tracer: Tracer, layer: str, op_id: str | None = None):
        self.tracer, self.layer, self.op_id = tracer, layer, op_id
        self.totals = {
            "writes": 0, "bytes": 0, "write_s": 0.0,
            "fsyncs": 0, "fsync_s": 0.0, "other_s": 0.0,
        }

    def write(self, fh: Any, data: bytes) -> None:
        start = time.perf_counter()
        super().write(fh, data)
        self.totals["write_s"] += time.perf_counter() - start
        self.totals["writes"] += 1
        self.totals["bytes"] += len(data)

    def flush(self, fh: Any) -> None:
        start = time.perf_counter()
        super().flush(fh)
        self.totals["write_s"] += time.perf_counter() - start

    def _spanned(self, call: str, total: str, *args: Any) -> Any:
        with self.tracer.span(f"{self.layer}.{call}", self.op_id) as record:
            result = getattr(super(), call)(*args)
        self.totals[total] += record["end"] - record["start"]
        return result

    def fsync(self, fh: Any) -> None:
        self.totals["fsyncs"] += 1
        self._spanned("fsync", "fsync_s", fh)

    def fsync_dir(self, path: Path) -> None:
        self.totals["fsyncs"] += 1
        self._spanned("fsync_dir", "fsync_s", path)

    def open_append(self, path: Path) -> Any:
        return self._spanned("open_append", "other_s", path)

    def truncate(self, path: Path, size: int) -> None:
        self._spanned("truncate", "other_s", path, size)

    def replace(self, src: Path, dst: Path) -> None:
        self._spanned("replace", "other_s", src, dst)


def add_totals(*totals: dict[str, float]) -> dict[str, float]:
    """Key-wise sum of :attr:`TimingIO.totals` dicts."""
    out: dict[str, float] = {}
    for item in totals:
        for key, value in item.items():
            out[key] = out.get(key, 0) + value
    return out


# ----------------------------------------------------------------------
# Driving the party machines without a transport
# ----------------------------------------------------------------------
def wrappers(
    tracer: Tracer | None, op_id: str | None = None, parent: int | None = None
) -> dict[str, Any]:
    """``engine=``/``recorder=`` keyword arguments: timing wrappers in a
    traced operation, nothing (the library's defaults) in a timed one."""
    if tracer is None:
        return {}
    return {
        "engine": TimingEngine(tracer, op_id, parent),
        "recorder": SpanRecorder(tracer, op_id, parent),
    }


def party_seed(seed: int, label: str, party: str) -> int:
    """A key seed per (run seed, operation, party): fresh for each query,
    the same for the same ``--seed``."""
    return random.Random(f"{seed}/{label}/{party}").getrandbits(64)


def drive_in_memory(
    spec: Any, receiver: Any, sender: Any, chunk_size: int | None
) -> SimpleNamespace:
    """Exchange a spec's rounds between two machines in this process.

    Returns the answer plus the typed round messages and the frames a
    TCP driver would have put on the wire for them, for the replays.
    """
    messages, frames = [], []
    for rnd in spec.rounds:
        producer, consumer = (
            (receiver, sender) if rnd.source == "R" else (sender, receiver)
        )
        if chunk_size is not None and rnd.chunkable:
            payloads = list(producer.produce_chunks(rnd, chunk_size))
            consumer.consume_chunks(rnd, payloads)
            frames += [
                serialization.chunk_frame(i, payload)
                for i, payload in enumerate(payloads)
            ]
            frames.append(
                serialization.chunk_end_frame(len(payloads))
            )
        else:
            wire = producer.produce(rnd).to_wire()
            consumer.consume(rnd, wire)
            frames.append(wire)
        messages.append((rnd.message, producer.inbox[rnd.name]))
    return SimpleNamespace(
        answer=receiver.finish(), messages=messages, frames=frames
    )


def machines_in_memory(
    protocol: str, v_r: Any, v_s: Any, params: PublicParams,
    seed_r: int, seed_s: int, chunk_size: int | None, **instruments: Any,
) -> SimpleNamespace:
    """Build both party machines and :func:`drive_in_memory` them."""
    spec = get_spec(protocol)
    receiver = ReceiverMachine(
        spec, v_r, params, random.Random(seed_r), **instruments
    )
    sender = SenderMachine(
        spec, v_s, params, random.Random(seed_s), **instruments
    )
    return drive_in_memory(spec, receiver, sender, chunk_size)


# ----------------------------------------------------------------------
# Calibration, memory, environment
# ----------------------------------------------------------------------
class CeProbe:
    """``C_e`` read beside the work: the median built-in ``pow(x, e, p)``
    over random quadratic residues at a ``bits``-bit modulus.

    The speed of this shared box changes by tens of percent for minutes
    at a time, so one calibration per pass says little about the second
    in which an operation ran. A timed pass therefore takes a short
    reading (25 exponentiations at 1024 bits, 100 below: 10-100 ms)
    before and after every slice of operations, and prices each
    operation with the two readings around it.
    """

    def __init__(self, bits: int, rng: random.Random, residues: int = 200):
        self.p = PublicParams.for_bits(bits).p
        self.exponent = rng.randrange(1, (self.p - 1) // 2)
        self.residues = [
            pow(rng.randrange(2, self.p - 1), 2, self.p) for _ in range(residues)
        ]
        self.batch = 25 if bits > 512 else 100
        self.readings: list[float] = []

    def read(self) -> float:
        """One reading, in seconds; each takes the next ``batch`` residues."""
        first = len(self.readings) * self.batch
        times = []
        for index in range(first, first + self.batch):
            x = self.residues[index % len(self.residues)]
            start = time.perf_counter()
            pow(x, self.exponent, self.p)
            times.append(time.perf_counter() - start)
        self.readings.append(statistics.median(times))
        return self.readings[-1]

    def settle(self, seconds: float) -> None:
        """Read for ``seconds`` (at least once): the calibration window
        of a set-up. A fixed window, not a fixed count, so that a slow
        minute of the box gets no longer a look than a fast one."""
        start = time.perf_counter()
        self.read()
        while time.perf_counter() - start < seconds:
            self.read()


def peak_rss_mb() -> float:
    """Largest resident set of this interpreter and its reaped children."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def _filesystem(path: Path) -> str:
    """The type of the filesystem holding ``path`` (``/proc/mounts``)."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        _dev, mount, kind = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, fstype = mount, kind
    return fstype


def environment() -> dict[str, Any]:
    """Where the numbers were taken (recorded in every result file)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "network": "loopback only",
        "tmp_filesystem": _filesystem(OUT),
        "git_commit": commit,
    }


def make_tmpdir() -> Path:
    """A fresh scratch directory under ``perf/out`` (the benchmark may
    write only inside its checkout)."""
    root = OUT / "tmp"
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=root))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class Child:
    """A forked helper process that announced a port."""

    def __init__(self, pid: int, port: int):
        self.pid, self.port = pid, port

    def reap(self, timeout: float = 30.0, sig: int | None = None) -> int:
        """Wait for the child (after sending ``sig``, if any); a child
        still alive after ``timeout`` seconds is killed. Returns the
        wait status."""
        if sig is not None:
            os.kill(self.pid, sig)
        deadline = time.monotonic() + timeout
        while True:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                return status
            if time.monotonic() > deadline:
                os.kill(self.pid, signal.SIGKILL)
                return os.waitpid(self.pid, 0)[1]
            time.sleep(0.005)


def fork_child(
    main: Callable[[Callable[[int], None]], None], timeout: float = 30.0
) -> Child:
    """Fork; the child runs ``main(ready)`` and exits, the parent
    returns once the child called ``ready(port)``."""
    sys.stdout.flush()
    sys.stderr.flush()
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(reader)
            main(lambda port: os.write(writer, b"%d\n" % port))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(writer)
    try:
        if not select.select([reader], [], [], timeout)[0]:
            raise TimeoutError("child process never announced its port")
        line = os.read(reader, 32)
        if not line:
            raise RuntimeError("child process died before listening")
        return Child(pid, int(line))
    except BaseException:
        Child(pid, 0).reap(timeout=0)
        raise
    finally:
        os.close(reader)


class Relay:
    """A counting loopback relay in its own process.

    Clients dial :attr:`port`; every byte is forwarded to
    ``target_port`` and back, and :meth:`stop` returns the bytes
    carried both ways. Its own process, so that forwarding never waits
    for the interpreter lock of a party that is exponentiating.
    """

    def __init__(self, target_port: int, tmp: Path):
        self._report = tmp / "relay-bytes"
        self._child = fork_child(lambda ready: self._main(target_port, ready))
        self.port = self._child.port

    def stop(self) -> int:
        """Stop the relay; returns the bytes it carried."""
        self._child.reap(sig=signal.SIGTERM)
        return int(self._report.read_text())

    def abort(self) -> None:
        """Kill the relay without a report (clean-up after a failure)."""
        self._child.reap(timeout=0)

    def _main(self, target_port: int, ready: Callable[[int], None]) -> None:
        carried = [0]
        lock = threading.Lock()

        def finish(*_: Any) -> None:
            self._report.write_text(str(carried[0]))
            os._exit(0)

        def pump(client: socket.socket) -> None:
            upstream = socket.create_connection(("127.0.0.1", target_port))
            peer = {client: upstream, upstream: client}
            for sock in peer:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reading = set(peer)
            try:
                while reading:
                    for sock in select.select(list(reading), [], [])[0]:
                        data = sock.recv(1 << 16)
                        if data:
                            peer[sock].sendall(data)
                            with lock:
                                carried[0] += len(data)
                        else:
                            reading.discard(sock)
                            peer[sock].shutdown(socket.SHUT_WR)
            except OSError:
                pass  # either side hung up; the parties report it
            finally:
                client.close()
                upstream.close()

        signal.signal(signal.SIGTERM, finish)
        listener = socket.create_server(("127.0.0.1", 0), backlog=16)
        ready(listener.getsockname()[1])
        while True:
            client, _addr = listener.accept()
            threading.Thread(target=pump, args=(client,), daemon=True).start()
