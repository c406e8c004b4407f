"""A hosted step's declared work bounds what its engine does.

The asyncio shell runs a machine step on the event loop when the core
declares its work at most ``INLINE_WORK`` (``repro.net.aio``). That
keeps every other session's frames moving only if the declaration is
an upper bound. Here party S of each registered protocol and of its
``+delta`` form is hosted on a :class:`ProtocolServer` whose party
computes through a :class:`MeteredEngine`; every request S's core
yields with a declared ``work`` is wrapped to count the
exponentiations run under it (a step's only, since one party's steps
never overlap and R computes on its own engine), and each counted
exponentiation is priced at ``bits**3`` - at least its real
``exponent bits x modulus bits^2``. Party R of each base protocol is
audited the same way on its own loop.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.engine import MeteredEngine, SerialEngine
from repro.net import aio
from repro.net import server as server_module
from repro.net import tcp
from repro.net.server import ProtocolOffer, ProtocolServer
from repro.net.session import RetryPolicy, SessionConfig
from repro.protocols.delta import DeltaExchange
from repro.protocols.parties import PublicParams, ReceiverMachine, SenderMachine
from repro.protocols.spec import PROTOCOLS

from ..protocols import make_golden_fixture as golden

BITS = 128
BASES = [name for name, spec in PROTOCOLS.items() if spec.delta_of is None]
CONSUME = "_Party._recv_round.<locals>.<lambda>"
PULL = "TimedIterator.pull"


@pytest.fixture(scope="module")
def params():
    return PublicParams.for_bits(BITS)


class _WorkLog:
    """``(step, declared work, exponentiations x bits**3)`` per step."""

    def __init__(self, bits):
        self.bits = bits
        self.modexps: list[int] = []  # the metered engine's batch sizes
        self.rows: list[tuple[str, int, int]] = []

    def step(self, name, work, fn):
        before = sum(self.modexps)
        try:
            return fn()
        finally:
            used = (sum(self.modexps) - before) * self.bits**3
            self.rows.append((name, work, used))

    def audited(self, steps):
        """A session core's request stream, each declared step metered."""
        reply = failure = None
        while True:
            try:
                request = (
                    steps.send(reply) if failure is None else steps.throw(failure)
                )
            except StopIteration as stop:
                return stop.value
            if getattr(request, "work", None) is not None:
                fn, name = request.fn, request.fn.__qualname__
                request = request._replace(
                    fn=lambda fn=fn, name=name, work=request.work:
                    self.step(name, work, fn)
                )
            reply = failure = None
            try:
                reply = yield request
            except BaseException as exc:
                failure = exc


def _config():
    return SessionConfig(
        timeout_s=5.0,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05),
        max_reconnects=2,
        fin_grace_s=0.05,
    )


def _host(monkeypatch, protocol, offer, r_data, chunk_size, log):
    """One hosted session of ``offer`` with S's requests audited into
    ``log``; returns R's answer."""
    run_async = server_module.run_async
    monkeypatch.setattr(
        server_module, "run_async",
        lambda steps, dial, executor: run_async(log.audited(steps), dial, executor),
    )
    with ProtocolServer(
        [offer], config=_config(), chunk_size=chunk_size
    ) as server:
        answer, _ = tcp.connect_resumable_receiver(
            protocol, r_data, random.Random("R"), "127.0.0.1", server.port,
            config=_config(), chunk_size=chunk_size,
        )
        assert server.wait_for_sessions(1, timeout=10)
    assert [row["status"] for row in server.results()] == ["done"]
    return answer


def _in_memory(protocol, r_data, s_data, params):
    spec = PROTOCOLS[protocol]
    receiver = ReceiverMachine(spec, r_data, params, random.Random("R"))
    sender = SenderMachine(spec, s_data, params, random.Random("S"))
    spec.exchange(receiver, sender)
    return receiver.finish()


def _assert_bounded(log):
    assert log.rows, "no step declared its work"
    for name, declared, used in log.rows:
        assert declared >= used, (name, declared, used)
    consumes = [used for name, _, used in log.rows if name == CONSUME]
    assert consumes and not any(consumes)  # decoding runs no engine batch


@pytest.mark.parametrize("chunk_size", [None, 2])
@pytest.mark.parametrize("protocol", BASES)
def test_a_full_query_declares_at_least_what_s_computes(
    monkeypatch, params, protocol, chunk_size
):
    r_data, s_data = golden._chunk_inputs(protocol)
    log = _WorkLog(BITS)
    offer = ProtocolOffer.from_data(
        protocol, s_data, params, seed="S",
        engine=MeteredEngine(SerialEngine(), log.modexps.append),
    )
    answer = _host(monkeypatch, protocol, offer, r_data, chunk_size, log)
    assert answer == _in_memory(protocol, r_data, s_data, params)
    _assert_bounded(log)
    declared = {name for name, _, _ in log.rows}
    assert {"_Machine.warm", CONSUME} <= declared
    # Building S is declared unless it draws a Paillier keypair.
    assert ("_Machine.ensure_state" in declared) is (protocol != "equijoin-sum")
    # S's own set really was exponentiated under its declaration.
    assert all(used for name, _, used in log.rows if name == "_Machine.warm")
    if chunk_size is not None and PROTOCOLS[protocol].rounds[1].chunk_step:
        assert sum(used for name, _, used in log.rows if name == PULL)


@pytest.mark.parametrize("chunk_size", [None, 2])
@pytest.mark.parametrize("protocol", BASES)
def test_a_full_query_declares_at_least_what_r_computes(
    monkeypatch, params, protocol, chunk_size
):
    """Party R's core declares its set-up (its table's size), its whole
    rounds, the eager step on each ``Y_S`` chunk and its answer - each
    at least what R's engine does under it."""
    r_data, s_data = golden._chunk_inputs(protocol)
    log = _WorkLog(BITS)
    run_async = aio.run_async
    monkeypatch.setattr(
        aio, "run_async",
        lambda steps, dial, executor=None: run_async(
            log.audited(steps), dial, executor
        ),
    )
    offer = ProtocolOffer.from_data(protocol, s_data, params, seed="S")
    with ProtocolServer(
        [offer], config=_config(), chunk_size=chunk_size
    ) as server:
        answer, _ = tcp.connect_resumable_receiver(
            protocol, r_data, random.Random("R"), "127.0.0.1", server.port,
            config=_config(), chunk_size=chunk_size,
            engine=MeteredEngine(SerialEngine(), log.modexps.append),
        )
        assert server.wait_for_sessions(1, timeout=10)
    assert answer == _in_memory(protocol, r_data, s_data, params)
    _assert_bounded(log)
    declared = {name for name, _, _ in log.rows}
    assert {"_Machine.ensure_state", "ReceiverMachine.finish"} <= declared
    # R's opening round really was exponentiated under its declaration.
    whole = "_Party._produce_whole.<locals>.<lambda>"
    assert sum(used for name, _, used in log.rows if name == whole)
    if chunk_size is not None and PROTOCOLS[protocol].rounds[1].eager:
        eager = "_Machine.eager.<locals>.run"
        assert sum(used for name, _, used in log.rows if name == eager)


@pytest.mark.parametrize("protocol", BASES)
def test_a_delta_query_declares_at_least_what_s_computes(
    monkeypatch, params, protocol
):
    log = _WorkLog(BITS)
    r_state, s_state = golden.full_run_states(
        protocol, params, random.Random("R"), random.Random("S"),
        engines=(None, MeteredEngine(SerialEngine(), log.modexps.append)),
    )
    r_ins, r_del, s_ins, s_del = golden.fixture_churn(protocol)
    r_exchange = DeltaExchange(state=r_state, inserts=r_ins, deletes=r_del)
    s_exchange = DeltaExchange(state=s_state, inserts=s_ins, deletes=s_del)
    name = f"{protocol}+delta"
    expected = _in_memory(name, r_exchange, s_exchange, params)
    log.modexps.clear()
    offer = ProtocolOffer.from_data(name, s_exchange, params, seed="S")
    answer = _host(monkeypatch, name, offer, r_exchange, None, log)
    assert answer == expected
    _assert_bounded(log)


def test_a_chunk_can_cost_its_whole_round(monkeypatch, params):
    """Why a streamed round declares the whole round on every chunk:
    ``Z_R`` is sorted, so with |V_R| far above |V_S| its first chunk
    answers every ``Y_R`` segment the ``Y_S`` chunks did not - many
    times ``chunk_size`` exponentiations in one pull."""
    v_s = ["c0", "c1", "s0", "s1"]
    v_r = ["c0", "c1"] + [f"r{i}" for i in range(28)]
    log = _WorkLog(BITS)
    offer = ProtocolOffer.from_data(
        "intersection-size", v_s, params, seed="S",
        engine=MeteredEngine(SerialEngine(), log.modexps.append),
    )
    assert _host(monkeypatch, "intersection-size", offer, v_r, 2, log) == 2
    _assert_bounded(log)
    # The second Y_S chunk answered Y_R's first segment; the first Z_R
    # chunk answers the other fourteen, 28 exponentiations in one pull.
    chunks = [used for name, _, used in log.rows if name == PULL]
    assert max(chunks) == (len(v_r) - 2) * BITS**3
