"""Command-line interface: ``python -m repro <command> ...``.

Runs the minimal-sharing protocols on newline-delimited value files
(both parties simulated in-process - the CLI is a study/demo tool, not
a network endpoint), prints cost estimates, and regenerates the
paper's tables.

Commands:

    intersection       private set intersection (Section 3)
    intersection-size  only the size (Section 5.1)
    equijoin-size      multiset join size (Section 5.2)
    equijoin-sum       SUM aggregate over the intersection (extension)
    estimate           the Section 6.2 application estimates
    tables             the Appendix A comparison tables
    calibrate          measure C_e/C_h/C_K/C_s on this machine
    serve              party S of any protocol as a real TCP server
    connect            party R of any protocol as a TCP client
    catalog            repeated incremental queries (stateful Catalog
                       API): ``catalog query`` in-process, ``catalog
                       serve``/``catalog connect`` over TCP, with
                       ``--insert``/``--delete`` staging a delta round
                       and ``--cache-dir`` persisting the encrypted
                       catalog across restarts

``serve``/``connect`` accept ``--protocol`` (every protocol in the
:mod:`repro.protocols.spec` registry - new registrations appear here
automatically), ``--timeout``, and ``--resumable``. Every run is a
session of checksummed, acknowledged frames; without ``--resumable``
it is one connection with no retry and no deadline but ``--timeout``,
with it the session reconnects and resumes after disconnects and
prints its stats. ``--workers N`` runs the
party's batch encryption on ``N`` processes (the Section 6.2
``P``-processor model; see docs/PERFORMANCE.md), and ``--metrics``
prints a per-phase wall-clock + modexp-count JSON report to stderr
(implied by ``--workers > 1``).

Resumable runs gain crash durability with ``--journal-dir DIR``: every
round is journaled to disk before it is acted on, and a killed process
restarted with the same directory recovers the interrupted run instead
of restarting the protocol (docs/PROTOCOLS.md, "Crash durability &
supervision"). ``serve --resumable --max-sessions N`` (N > 1) hosts a
supervised :class:`~repro.net.server.ProtocolServer` serving up to
``N`` concurrent sessions, draining gracefully on SIGTERM within
``--drain-timeout`` seconds.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Sequence

from .analysis.calibration import calibrate
from .analysis.estimates import (
    document_sharing_estimate,
    medical_research_estimate,
)
from .analysis.leakage import duplicate_distribution
from .circuits.costmodel import CircuitCostModel
from .crypto.numtheory import _party_rngs
from .protocols.parties import PublicParams
from .protocols.spec import PROTOCOLS, get_spec, run_pair

__all__ = [
    "main",
    "build_parser",
    "EXIT_HANDSHAKE",
    "EXIT_BUSY",
    "EXIT_UNREACHABLE",
    "EXIT_TIMEOUT",
    "EXIT_JOURNAL",
    "EXIT_SESSION",
]

#: Exit code: the server speaks a different version or protocol.
EXIT_HANDSHAKE = 3
#: Exit code: the server refused the session (capacity/draining).
EXIT_BUSY = 4
#: Exit code: nothing answered at the address (connection refused).
EXIT_UNREACHABLE = 5
#: Exit code: the peer answered but the run timed out.
EXIT_TIMEOUT = 6
#: Exit code: the session journal is unreadable or fail-stopped.
EXIT_JOURNAL = 7
#: Exit code: any other typed session-layer failure.
EXIT_SESSION = 8


class _Stderr(logging.Handler):
    """A record's message, printed to whatever ``sys.stderr`` is then."""

    def emit(self, record: logging.LogRecord) -> None:
        print(self.format(record), file=sys.stderr)


#: The CLI's ``repro: ...`` lines: printed as they are, never passed up
#: to ``repro``'s handlers.
_log = logging.getLogger(__name__)
_log.addHandler(_Stderr())
_log.propagate = False
_log.setLevel(logging.INFO)


def _read_values(path: str) -> list[str]:
    """Newline-delimited values; blank lines ignored."""
    text = Path(path).read_text(encoding="utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def _read_value_amounts(path: str) -> dict[str, int]:
    """Lines of ``value<TAB or ,>amount`` for the sum aggregate."""
    out: dict[str, int] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        value, _, amount = (
            line.partition("\t") if "\t" in line else line.partition(",")
        )
        out[value.strip()] = int(amount.strip())
    return out


def _read_value_ext(path: str) -> dict[str, bytes]:
    """Lines of ``value<TAB or ,>ext-payload`` for the equijoin sender."""
    out: dict[str, bytes] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        value, _, ext = (
            line.partition("\t") if "\t" in line else line.partition(",")
        )
        out[value.strip()] = ext.strip().encode("utf-8")
    return out


#: ``serve``/``connect`` choices come straight from the spec registry,
#: so a protocol registered there is network-runnable with no CLI edit.
#: Delta schedules (``<name>+delta``) are internal - the catalog layer
#: selects them automatically - so they are filtered from the choices.
NET_PROTOCOLS = tuple(
    name for name, spec in PROTOCOLS.items() if spec.delta_of is None
)

#: How each spec's declared ``sender_input`` shape maps to a file reader.
_SENDER_READERS = {
    "values": _read_values,
    "ext": _read_value_ext,
    "amounts": _read_value_amounts,
}


def _add_engine_options(p: argparse.ArgumentParser) -> None:
    """The batch-crypto engine knobs shared by ``serve`` and ``connect``."""
    p.add_argument(
        "--workers", type=int, default=1,
        help="threads for batch encryption (Section 6.2's P; default 1)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=None,
        help="stream chunkable rounds in slices of this many items, "
             "pipelining crypto with the wire (default: whole-round "
             "frames, the legacy format)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="print a per-phase metrics JSON to stderr "
             "(implied by --workers > 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimal-sharing protocols (Agrawal et al., SIGMOD 2003)",
    )
    parser.add_argument(
        "--bits", type=int, default=512,
        help="safe-prime modulus size (default 512; paper uses 1024)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="deterministic randomness seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_sets in [
        ("intersection", True),
        ("intersection-size", True),
        ("equijoin-size", True),
    ]:
        p = sub.add_parser(name, help=f"run the {name} protocol")
        if needs_sets:
            p.add_argument("--receiver", required=True, help="R's value file")
            p.add_argument("--sender", required=True, help="S's value file")

    p = sub.add_parser("equijoin-sum", help="SUM aggregate over the intersection")
    p.add_argument("--receiver", required=True, help="R's value file")
    p.add_argument("--sender", required=True, help="S's value,amount file")

    sub.add_parser("estimate", help="Section 6.2 application estimates")
    sub.add_parser("tables", help="Appendix A comparison tables")
    p = sub.add_parser("calibrate", help="measure primitive costs here")
    p.add_argument("--samples", type=int, default=15)

    p = sub.add_parser(
        "serve", help="run party S of a protocol over TCP"
    )
    p.add_argument(
        "--sender", required=True,
        help="S's value file (equijoin: value,ext-payload lines; "
             "equijoin-sum: value,amount lines)",
    )
    p.add_argument(
        "--protocol", choices=NET_PROTOCOLS, default="intersection",
        help="which protocol to serve (default intersection)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = pick a free port")
    p.add_argument(
        "--timeout", type=float, default=None,
        help="frame deadline in seconds (default: block forever; "
             "5 with --resumable)",
    )
    p.add_argument(
        "--resumable", action="store_true",
        help="reconnect and resume after failures (default: one "
             "connection, the first failure ends the run)",
    )
    p.add_argument(
        "--journal-dir", default=None,
        help="journal resumable rounds to this directory and recover "
             "an interrupted run from it on restart (requires --resumable)",
    )
    p.add_argument(
        "--max-sessions", type=int, default=1,
        help="host up to N concurrent sessions via the supervised "
             "ProtocolServer (default 1 = single classic session; "
             "requires --resumable)",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="seconds the supervised server lets in-flight sessions "
             "finish after SIGTERM before aborting them (default 5)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="split the supervised server into N worker processes "
             "routed by session id (default 1 = one process; "
             "requires --resumable and --max-sessions > 1)",
    )
    p.add_argument(
        "--restart-budget", type=int, default=3,
        help="respawns allowed per shard worker before the shard is "
             "marked failed and refuses new sessions (default 3; "
             "needs --shards > 1)",
    )
    p.add_argument(
        "--heartbeat-s", type=float, default=1.0,
        help="shard worker heartbeat period in seconds; a worker "
             "silent for 4x this is killed and respawned (default 1.0; "
             "needs --shards > 1)",
    )
    _add_engine_options(p)

    p = sub.add_parser(
        "connect", help="run party R of a protocol over TCP"
    )
    p.add_argument("--receiver", required=True, help="R's value file")
    p.add_argument(
        "--protocol", choices=NET_PROTOCOLS, default="intersection",
        help="which protocol to run (default intersection)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--timeout", type=float, default=None,
        help="frame deadline in seconds (default: block forever; "
             "5 with --resumable)",
    )
    p.add_argument(
        "--resumable", action="store_true",
        help="reconnect and resume after failures (default: one "
             "connection, the first failure ends the run)",
    )
    p.add_argument(
        "--journal-dir", default=None,
        help="journal resumable rounds to this directory and recover "
             "an interrupted run from it on restart (requires --resumable)",
    )
    p.add_argument(
        "--retry-policy", default=None, metavar="SPEC",
        help="unified retry policy as 'key=value,...' "
             "(keys: attempts, timeout, deadline, base, multiplier, "
             "max-delay, jitter, busy, worker-lost); redials typed "
             "busy and worker-lost refusals with jittered exponential "
             "backoff under a total deadline (default: no redial)",
    )
    _add_engine_options(p)

    p = sub.add_parser(
        "catalog",
        help="repeated incremental queries via the stateful Catalog API",
    )
    cat_sub = p.add_subparsers(dest="catalog_command", required=True)

    def _add_catalog_common(cp: argparse.ArgumentParser) -> None:
        cp.add_argument(
            "--protocol", choices=NET_PROTOCOLS, default="intersection",
            help="which protocol to query (default intersection)",
        )
        cp.add_argument(
            "--cache-dir", default=None,
            help="persist this party's encrypted catalog here so a "
                 "restart warm-starts the first query (holds raw keys - "
                 "keep private)",
        )
        cp.add_argument(
            "--insert", action="append", default=[], metavar="VALUE",
            help="stage an insert after the first query (repeatable; "
                 "mapping protocols take value,payload)",
        )
        cp.add_argument(
            "--delete", action="append", default=[], metavar="VALUE",
            help="stage a delete after the first query (repeatable)",
        )

    cp = cat_sub.add_parser(
        "query", help="both parties in-process: full query, then a "
                      "delta query after staged mutations",
    )
    cp.add_argument("--receiver", required=True, help="R's value file")
    cp.add_argument(
        "--sender", required=True,
        help="S's value file (equijoin: value,ext lines; "
             "equijoin-sum: value,amount lines)",
    )
    _add_catalog_common(cp)

    cp = cat_sub.add_parser(
        "serve", help="serve a catalog as party S, answering N queries",
    )
    cp.add_argument(
        "--sender", required=True,
        help="S's value file (equijoin: value,ext lines; "
             "equijoin-sum: value,amount lines)",
    )
    cp.add_argument("--host", default="127.0.0.1")
    cp.add_argument("--port", type=int, default=0, help="0 = pick a free port")
    cp.add_argument(
        "--timeout", type=float, default=None,
        help="frame deadline in seconds (default: block forever; "
             "5 with --resumable)",
    )
    cp.add_argument(
        "--queries", type=int, default=1,
        help="how many client queries to answer before exiting "
             "(default 1; staged --insert/--delete apply after the "
             "first answered query)",
    )
    _add_catalog_common(cp)

    cp = cat_sub.add_parser(
        "connect", help="query a serving catalog as party R",
    )
    cp.add_argument("--receiver", required=True, help="R's value file")
    cp.add_argument("--host", default="127.0.0.1")
    cp.add_argument("--port", type=int, required=True)
    cp.add_argument(
        "--timeout", type=float, default=None,
        help="frame deadline in seconds (default: block forever; "
             "5 with --resumable)",
    )
    _add_catalog_common(cp)

    return parser


def _cmd_protocol(args: argparse.Namespace) -> int:
    spec = get_spec(args.command)
    receiver, sender, wires = run_pair(
        spec,
        _read_values(args.receiver),
        # equijoin-size reads multisets: duplicates in the files count.
        _SENDER_READERS[spec.sender_input](args.sender),
        PublicParams.for_bits(args.bits),
        *_party_rngs(args.seed),
    )
    answer = receiver.finish()
    run = spec.transcript(wires)
    n_r, n_s = sender.state.size_v_r, receiver.state.size_v_s
    sizes = f"|V_R|={n_r} |V_S|={n_s}"

    if spec.name == "equijoin-sum":
        print(f"sum over intersection: {answer}")
        print(f"matches: {receiver.state.match_count}  |V_R|={n_r}  |V_S|={n_s}")
        print(f"wire bytes: {run.total_bytes}")
    elif spec.name == "intersection":
        for value in sorted(answer, key=repr):
            print(value)
        print(
            f"# |intersection|={len(answer)} {sizes} bytes={run.total_bytes}",
            file=sys.stderr,
        )
    elif spec.name == "intersection-size":
        print(answer)
        print(f"# {sizes} bytes={run.total_bytes}", file=sys.stderr)
    else:  # equijoin-size
        print(answer)
        print(
            "# S's duplicate distribution seen by R: "
            f"{duplicate_distribution(run.r_view, '4a:Y_S')}",
            file=sys.stderr,
        )
    return 0


def _cmd_estimate() -> int:
    for est in (document_sharing_estimate(), medical_research_estimate()):
        print(est.round_trip_summary())
    return 0


def _cmd_tables() -> int:
    cm = CircuitCostModel()
    print("Appendix A - partitioning circuit (w=32):")
    for row in cm.circuit_size_table():
        print(f"  n={row.n:.0e}  m={row.m}  f(n)={row.gates:.2e}")
    print("Appendix A - comparison (per row: circuit vs ours):")
    for row in cm.comparison_table():
        print(
            f"  n={row.n:.0e}  comp {row.circuit_input_ce:.1e} C_e + "
            f"{row.circuit_eval_cr:.1e} C_r vs {row.ours_ce:.1e} C_e;  "
            f"comm {row.circuit_input_bits + row.circuit_tables_bits:.1e} "
            f"vs {row.ours_bits:.1e} bits"
        )
    headline = {r.n: r for r in cm.comparison_table()}[10**6]
    print(
        "  headline (n=1e6, T1): "
        f"{cm.t1_transfer_days(headline.circuit_tables_bits):.0f} days vs "
        f"{cm.t1_transfer_days(headline.ours_bits)*24:.1f} hours"
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cal = calibrate(bits=args.bits, samples=args.samples)
    c = cal.constants
    print(f"bits={cal.bits} samples={cal.samples}")
    print(f"C_e = {c.ce_seconds:.6f} s "
          f"({cal.exponentiations_per_hour():.3e} modexp/hour)")
    print(f"C_h = {c.ch_seconds:.6f} s")
    print(f"C_K = {c.ck_seconds:.6f} s")
    print(f"C_s = {c.cs_seconds:.3e} s per item-step")
    return 0


def _session_options(args: argparse.Namespace, config=None):
    """``--resumable`` as the facade's ``session=`` (``None`` = one
    connection, no retry); with no ``config`` the facade makes
    ``--timeout`` the frame deadline."""
    from .api import SessionOptions

    if not args.resumable:
        return None
    return SessionOptions(journal_dir=args.journal_dir, config=config)


def _build_engine_and_recorder(args: argparse.Namespace):
    """The ``--workers`` engine plus a recorder wired to count its work."""
    from .analysis.instrumentation import MetricsRecorder
    from .api import _metered
    from .crypto.engine import create_engine

    recorder = MetricsRecorder()
    return _metered(create_engine(args.workers), recorder), recorder


def _emit_metrics(args: argparse.Namespace, recorder) -> None:
    """Print the metrics JSON to stderr when asked (or parallel)."""
    if args.metrics or args.workers > 1:
        import json

        print(json.dumps(recorder.report()), file=sys.stderr)


def _print_answer(protocol: str, answer) -> None:
    kind = get_spec(protocol).answer_kind
    if kind == "set":
        for value in sorted(answer, key=repr):
            print(value)
        print(f"# |intersection|={len(answer)}", file=sys.stderr)
    elif kind == "ext-map":
        for value in sorted(answer, key=repr):
            print(f"{value}\t{answer[value].decode('utf-8', 'replace')}")
        print(f"# matches={len(answer)}", file=sys.stderr)
    else:  # "number": sizes and aggregates answer with one number
        print(answer)


def _cmd_serve(args: argparse.Namespace) -> int:
    from . import api

    data = _SENDER_READERS[get_spec(args.protocol).sender_input](args.sender)
    params = PublicParams.for_bits(args.bits)
    engine, recorder = _build_engine_and_recorder(args)

    def announce(port: int) -> None:
        print(f"serving {args.protocol} as party S on {args.host}:{port} "
              f"({len(data)} values)", flush=True)

    if (args.journal_dir or args.max_sessions > 1) and not args.resumable:
        print("--journal-dir/--max-sessions require --resumable",
              file=sys.stderr)
        return 2
    if args.shards > 1 and args.max_sessions <= 1:
        print("--shards requires --max-sessions > 1", file=sys.stderr)
        return 2

    if args.resumable and args.max_sessions > 1:
        return _serve_supervised(
            args, data, params, engine, recorder, announce
        )
    served = api.serve(
        args.protocol, data, host=args.host, port=args.port,
        params=params, seed=args.seed, ready_callback=announce,
        timeout=args.timeout, engine=engine, recorder=recorder,
        chunk_size=args.chunk_size,
        session=_session_options(args),
    )
    print(f"run complete; S learned |V_R| = {served.size_v_r}")
    if args.resumable:
        print(f"# session stats: {served.stats.as_dict()}",
              file=sys.stderr)
    _emit_metrics(args, recorder)
    return 0


def _serve_supervised(
    args: argparse.Namespace, data, params, engine, recorder, announce
) -> int:
    """``serve --resumable --max-sessions N``: the supervised server.

    Hosts up to N concurrent sessions of the chosen protocol until
    SIGTERM/SIGINT, then drains within ``--drain-timeout`` seconds and
    prints one stats line per hosted session. With ``--shards K`` the
    sessions are spread over K supervised worker processes routed by
    session id (``--max-sessions`` stays the per-worker ceiling): dead
    or hung workers are respawned against their journal dirs up to
    ``--restart-budget`` times, and SIGUSR1 prints a per-shard
    ``health()`` snapshot to stderr.
    """
    import json as _json
    import signal as _signal

    from .api import _session_config
    from .net.server import ProtocolOffer, ProtocolServer
    from .net.shard import ShardedProtocolServer

    config = _session_config(_session_options(args), args.timeout)
    if args.shards > 1:
        server = ShardedProtocolServer(
            [ProtocolOffer.from_data(
                args.protocol, data, params, seed=args.seed
            )],
            shards=args.shards,
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            config=config,
            journal_dir=args.journal_dir,
            chunk_size=args.chunk_size,
            restart_budget=args.restart_budget,
            heartbeat_s=args.heartbeat_s,
        )
    else:
        server = ProtocolServer(
            [ProtocolOffer.from_data(
                args.protocol, data, params, seed=args.seed, engine=engine
            )],
            host=args.host,
            port=args.port,
            max_sessions=args.max_sessions,
            config=config,
            journal_dir=args.journal_dir,
            recorder=recorder,
            chunk_size=args.chunk_size,
        )
    server.start()
    announce(server.port)
    server.install_signal_handlers(drain_timeout_s=args.drain_timeout)
    if args.shards > 1:

        def _print_health(signum, frame) -> None:
            print(
                "# health: " + _json.dumps(server.health()),
                file=sys.stderr,
                flush=True,
            )

        _signal.signal(_signal.SIGUSR1, _print_health)
    capacity = args.max_sessions * max(args.shards, 1)
    print(
        f"supervising up to {capacity} concurrent sessions"
        + (f" across {args.shards} shard processes" if args.shards > 1 else "")
        + f" (SIGTERM drains within {args.drain_timeout}s; "
        + ("SIGUSR1 prints shard health)" if args.shards > 1 else
           "supervised single process)"),
        flush=True,
    )
    server.wait_closed()
    for summary in server.results():
        print(f"# session: {summary}", file=sys.stderr)
    if args.shards > 1:
        for row in server.drain_report:
            print(f"# shard drain: {row}", file=sys.stderr)
    _emit_metrics(args, recorder)
    return 0


def _cmd_connect(args: argparse.Namespace) -> int:
    from . import api
    from .crypto.numtheory import _key_rng
    from .net.session import ClientRetryPolicy

    v_r = _read_values(args.receiver)

    if args.journal_dir and not args.resumable:
        print("--journal-dir requires --resumable", file=sys.stderr)
        return 2
    policy = None
    if args.retry_policy is not None:
        try:
            policy = ClientRetryPolicy.parse(args.retry_policy)
        except ValueError as exc:
            print(f"bad --retry-policy: {exc}", file=sys.stderr)
            return 2

    engine, recorder = _build_engine_and_recorder(args)

    # An explicit --timeout outranks the policy's per-attempt one.
    config = (
        policy.session_config()
        if policy is not None and args.timeout is None
        else None
    )

    def attempt() -> int:
        connected = api.connect(
            args.protocol, v_r, host=args.host, port=args.port,
            seed=args.seed, timeout=args.timeout, engine=engine,
            recorder=recorder, chunk_size=args.chunk_size,
            session=_session_options(args, config),
        )
        _print_answer(args.protocol, connected.answer)
        if args.resumable:
            print(f"# session stats: {connected.stats.as_dict()}",
                  file=sys.stderr)
        _emit_metrics(args, recorder)
        return 0

    def announce(exc: Exception, delay: float, attempt_no: int) -> None:
        _log.warning(
            "repro: %s; retrying in %.3fs (attempt %d/%d)",
            type(exc).__name__, delay, attempt_no, policy.max_attempts,
        )

    if policy is None:
        return attempt()
    # Jittered independently of the protocol seed so identically
    # seeded clients refused in one burst do not redial in lockstep.
    return policy.redial(attempt, _key_rng(), on_retry=announce)[0]


def _split_insert(raw: str) -> tuple[str, str | None]:
    """One ``--insert`` operand: ``value`` or ``value,payload``."""
    value, sep, payload = raw.partition(",")
    return value.strip(), (payload.strip() if sep else None)


def _sender_payload(shape: str, value: str, payload: str | None):
    """Parse an insert payload per the spec's sender-input shape."""
    if shape == "values":
        if payload is not None:
            raise SystemExit(_fail(
                1, f"--insert {value},{payload}: {shape!r} protocols "
                "take bare values"
            ))
        return None
    if payload is None:
        raise SystemExit(_fail(
            1, f"--insert {value}: this protocol needs value,"
            f"{'ext' if shape == 'ext' else 'amount'}"
        ))
    return payload.encode("utf-8") if shape == "ext" else int(payload)


def _stage(catalog, inserts, deletes, shape: str | None) -> None:
    """Apply ``--insert``/``--delete`` operands to one catalog.

    ``shape`` is the sender-input shape for a sender-side catalog, or
    ``None`` for a receiver (bare values). Deletes of absent values
    are skipped so one shared operand list can drive both parties.
    """
    for value, payload in inserts:
        if shape is None:
            catalog.insert(value)
        else:
            catalog.insert(value, _sender_payload(shape, value, payload))
    for value in deletes:
        if value in catalog.data:
            catalog.delete(value)


def _cmd_catalog(args: argparse.Namespace) -> int:
    """The ``catalog`` subcommands: stateful repeated-query runs."""
    from .api import open_catalog

    spec = get_spec(args.protocol)
    shape = spec.sender_input
    inserts = [_split_insert(raw) for raw in args.insert]
    deletes = [v.strip() for v in args.delete]
    mutating = bool(inserts or deletes)

    if args.catalog_command == "query":
        rng_r, rng_s = _party_rngs(args.seed)
        base = Path(args.cache_dir) if args.cache_dir else None
        cat_r = open_catalog(
            _read_values(args.receiver), bits=args.bits, rng=rng_r,
            cache_dir=base / "receiver" if base else None,
        )
        cat_s = open_catalog(
            _SENDER_READERS[shape](args.sender), bits=args.bits, rng=rng_s,
            cache_dir=base / "sender" if base else None,
        )
        peer = cat_r.pair(cat_s)
        result = peer.query(spec)
        print(
            f"# query 1: mode={result.mode} cache_hit={result.cache_hit}",
            file=sys.stderr,
        )
        _print_answer(spec.name, result.answer)
        if mutating:
            _stage(cat_r, inserts, deletes, None)
            _stage(cat_s, inserts, deletes, shape)
            result = peer.query(spec)
            print(f"# query 2: mode={result.mode}", file=sys.stderr)
            _print_answer(spec.name, result.answer)
        return 0

    if args.catalog_command == "serve":
        catalog = open_catalog(
            _SENDER_READERS[shape](args.sender), bits=args.bits,
            seed=args.seed, cache_dir=args.cache_dir,
        )

        def announce(port: int) -> None:
            print(
                f"serving {spec.name} catalog as party S on "
                f"{args.host}:{port} ({len(catalog.data)} values)",
                flush=True,
            )

        peer = catalog.serve(
            host=args.host, port=args.port, ready_callback=announce,
            timeout=args.timeout,
        )
        try:
            for i in range(max(args.queries, 1)):
                result = peer.query(spec)
                print(
                    f"# query {i + 1}: mode={result.mode} "
                    f"|V_R|={result.size_v_r}",
                    file=sys.stderr,
                )
                if i == 0 and mutating:
                    _stage(catalog, inserts, deletes, shape)
        finally:
            peer.close()
        return 0

    # catalog connect: party R dials a serving catalog.
    catalog = open_catalog(
        _read_values(args.receiver), bits=args.bits, seed=args.seed,
        cache_dir=args.cache_dir,
    )
    peer = catalog.connect(args.host, port=args.port, timeout=args.timeout)
    result = peer.query(spec)
    print(
        f"# query 1: mode={result.mode} cache_hit={result.cache_hit}",
        file=sys.stderr,
    )
    _print_answer(spec.name, result.answer)
    if mutating:
        _stage(catalog, inserts, deletes, None)
        result = peer.query(spec)
        print(f"# query 2: mode={result.mode}", file=sys.stderr)
        _print_answer(spec.name, result.answer)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("intersection", "intersection-size",
                        "equijoin-size", "equijoin-sum"):
        return _cmd_protocol(args)
    if args.command == "estimate":
        return _cmd_estimate()
    if args.command == "tables":
        return _cmd_tables()
    if args.command == "calibrate":
        return _cmd_calibrate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "connect":
        return _cmd_connect(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _fail(code: int, message: str) -> int:
    _log.error("repro: %s", message)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    Expected operational failures exit with a one-line message and a
    distinct code instead of a traceback: handshake mismatch
    (:data:`EXIT_HANDSHAKE`), server busy (:data:`EXIT_BUSY`), nothing
    listening (:data:`EXIT_UNREACHABLE`), timeout
    (:data:`EXIT_TIMEOUT`), a fail-stopped journal
    (:data:`EXIT_JOURNAL`) and other session failures
    (:data:`EXIT_SESSION`). Unexpected errors (bad input files,
    genuine bugs) still raise.
    """
    from .net.journal import JournalError
    from .net.session import (
        HandshakeError,
        ServerBusyError,
        SessionError,
        WorkerLost,
    )

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ServerBusyError as exc:
        return _fail(EXIT_BUSY, f"server busy: {exc}")
    except WorkerLost as exc:
        return _fail(EXIT_SESSION, f"server lost its worker: {exc}")
    except HandshakeError as exc:
        return _fail(EXIT_HANDSHAKE, f"handshake failed: {exc}")
    except JournalError as exc:
        return _fail(EXIT_JOURNAL, f"journal failure: {exc}")
    except SessionError as exc:
        # A session gives up by wrapping the last transport failure;
        # classify by the root cause so "nothing is listening" exits
        # the same whether or not the session layer retried first.
        cause: BaseException | None = exc.__cause__
        while cause is not None and cause.__cause__ is not None:
            cause = cause.__cause__
        if isinstance(cause, ConnectionError):
            return _fail(EXIT_UNREACHABLE, f"cannot reach the server: {exc}")
        if isinstance(cause, TimeoutError):
            return _fail(EXIT_TIMEOUT, f"timed out waiting for the peer: {exc}")
        return _fail(EXIT_SESSION, f"session failed: {exc}")
    except ConnectionError as exc:
        return _fail(EXIT_UNREACHABLE, f"cannot reach the server: {exc}")
    except TimeoutError as exc:
        detail = f": {exc}" if str(exc) else ""
        return _fail(EXIT_TIMEOUT, f"timed out waiting for the peer{detail}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
