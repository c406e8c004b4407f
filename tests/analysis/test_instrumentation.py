"""Tests that live protocol runs perform *exactly* the operation counts
the Section 6.1 cost model predicts - the strongest validation of the
model short of wall-clock timing."""

from __future__ import annotations

import json
import random
import sys
import threading

import pytest

import repro
from repro.analysis.costmodel import ProtocolCostModel
from repro.analysis.instrumentation import MetricsRecorder, counting_suite
from repro.crypto.engine import create_engine
from repro.protocols.parties import IntersectionReceiver, IntersectionSender, PublicParams
from repro.protocols.spec import run_pair

from ..protocols import make_golden_fixture as golden


@pytest.fixture()
def model():
    return ProtocolCostModel()


def run_counted(protocol, r_data, s_data, cs):
    """One in-memory run on the counting context ``cs`` counts into."""
    run_pair(protocol, r_data, s_data, cs.params, *cs.rngs, crypto=cs.crypto)


class TestIntersectionOpCounts:
    @pytest.mark.parametrize("n_r, n_s", [(5, 8), (1, 1), (10, 3), (0, 4)])
    def test_encryptions_match_model(self, model, n_r, n_s):
        cs = counting_suite(bits=64)
        run_counted(
            "intersection", [f"r{i}" for i in range(n_r)],
            [f"s{i}" for i in range(n_s)], cs,
        )
        predicted = model.intersection_ops(n_s, n_r)
        assert cs.counter.encryptions == predicted.encryptions  # 2(nS+nR)
        assert cs.counter.hashes == predicted.hashes            # nS+nR

    def test_intersection_size_same_counts(self, model):
        cs = counting_suite(bits=64)
        run_counted(
            "intersection-size", [f"r{i}" for i in range(7)],
            [f"s{i}" for i in range(9)], cs,
        )
        predicted = model.intersection_ops(9, 7)
        assert cs.counter.encryptions == predicted.encryptions


class TestJoinOpCounts:
    @pytest.mark.parametrize("n_r, n_s, common", [(5, 8, 3), (4, 4, 4), (6, 2, 0)])
    def test_encryptions_match_model(self, model, n_r, n_s, common):
        """The paper's join count: 2 Ce nS + 5 Ce nR."""
        cs = counting_suite(bits=64)
        shared = [f"c{i}" for i in range(common)]
        v_r = shared + [f"r{i}" for i in range(n_r - common)]
        ext = {v: b"x" for v in shared + [f"s{i}" for i in range(n_s - common)]}
        run_counted("equijoin", v_r, ext, cs)
        predicted = model.join_ops(n_s, n_r, common)
        assert cs.counter.encryptions == predicted.encryptions  # 2nS + 5nR
        assert cs.counter.hashes == predicted.hashes
        assert cs.counter.k_encryptions == predicted.k_encryptions  # nS + n∩


#: protocol -> the count on the golden inputs.
COUNTED = {
    "intersection": 160,
    "intersection-size": 160,
    "equijoin": 280,
    "equijoin-size": 168,
    "equijoin-sum": 160,
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_the_two_counters_and_the_model_agree(name, model):
    """``counting_suite`` through ``run_pair``, the recorder through
    ``repro.run`` and the Section 6 formula read one number."""
    pinned = COUNTED[name]
    r_data, s_data = golden._chunk_inputs(name)
    cs = counting_suite(bits=64)
    run_counted(name, r_data, s_data, cs)
    recorder = MetricsRecorder()
    repro.run(name, r_data, s_data, bits=64, seed=0, recorder=recorder)
    n_s, n_r = len(set(s_data)), len(set(r_data))
    if name == "equijoin":
        formula = model.join_ops(n_s, n_r).encryptions  # 2nS + 5nR
    elif name == "equijoin-size":
        # Over multisets a party encrypts each *distinct* value of its
        # own once and every *occurrence* the peer sends once, so
        # 2(nS + nR) reads (|V_S| + |V_R|) + (|T_S| + |T_R|): the
        # fixture's 43 / 45 occurrences over 40 / 40 values.
        formula = (n_s + n_r) + (len(s_data) + len(r_data))
    else:
        formula = model.intersection_ops(n_s, n_r).encryptions  # 2(nS + nR)
    assert cs.counter.encryptions == recorder.total_modexp == formula == pinned


class TestCounterMechanics:
    def test_reset(self):
        cs = counting_suite(bits=64)
        run_counted("intersection", ["a"], ["a"], cs)
        assert cs.counter.encryptions > 0
        cs.counter.reset()
        assert cs.counter.encryptions == 0
        assert cs.counter.hashes == 0

    def test_every_hash_call_counted(self):
        """A value in both sets is hashed by both parties - the model's
        C_h (n_S + n_R) term counts calls, not distinct values."""
        cs = counting_suite(bits=64)
        cs.crypto.hash.hash_value("v")
        cs.crypto.hash.hash_value("v")
        assert cs.counter.hashes == 2


class TestMetricsRecorder:
    def test_phases_and_attribution(self):
        rec = MetricsRecorder()
        with rec.phase("a"):
            rec.count_modexp(3)
        with rec.phase("b"):
            rec.count_modexp(2)
        rec.count_modexp(5)  # outside any phase
        assert rec.phases["a"].modexp == 3
        assert rec.phases["b"].modexp == 2
        assert rec.unattributed_modexp == 5
        assert rec.total_modexp == 10

    def test_nested_phase_attributes_innermost(self):
        rec = MetricsRecorder()
        with rec.phase("outer"):
            with rec.phase("inner"):
                rec.count_modexp(4)
            rec.count_modexp(1)
        assert rec.phases["inner"].modexp == 4
        assert rec.phases["outer"].modexp == 1

    def test_phase_reentry_accumulates(self):
        rec = MetricsRecorder()
        for _ in range(3):
            with rec.phase("loop"):
                rec.count_modexp(1)
        stats = rec.phases["loop"]
        assert stats.calls == 3
        assert stats.modexp == 3
        assert stats.wall_s > 0

    def test_open_phases_are_per_thread(self):
        """A step running in the background (``s.round1``) opens and
        closes its phase while the session thread sits in ``s.wait_m1``:
        each thread's exponentiations land in its own innermost phase,
        and closing one thread's phase leaves the other's open."""
        rec = MetricsRecorder()
        opened, counted = threading.Event(), threading.Event()

        def background():
            with rec.phase("s.round1"):
                rec.count_modexp(300)
                opened.set()
                assert counted.wait(timeout=10)
            rec.count_modexp(1)  # no phase open on this thread

        worker = threading.Thread(target=background, daemon=True)
        with rec.phase("s.wait_m1"):
            worker.start()
            assert opened.wait(timeout=10)
            rec.count_modexp(7)  # while s.round1 is open over there
            counted.set()
            worker.join(timeout=10)
            assert not worker.is_alive()
            rec.count_modexp(2)  # and after it closed
        assert rec.phases["s.round1"].modexp == 300
        assert rec.phases["s.wait_m1"].modexp == 9
        assert rec.unattributed_modexp == 1
        assert rec.total_modexp == 310

    def test_shared_totals_lose_no_update_between_threads(self):
        """Eight threads on two cores hammer one phase and the
        unattributed counter under a short switch interval."""
        rec = MetricsRecorder()
        rounds = 2000

        def hammer():
            for _ in range(rounds):
                with rec.phase("shared"):
                    rec.count_modexp(1)
                rec.count_modexp(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert rec.phases["shared"].calls == 8 * rounds
        assert rec.phases["shared"].modexp == 8 * rounds
        assert rec.unattributed_modexp == 8 * rounds

    def test_report_is_json_dumpable(self):
        rec = MetricsRecorder()
        engine = create_engine(1, on_modexp=rec.count_modexp)
        rec.attach_engine(engine)
        with rec.phase("p"):
            engine.pow_many([2, 3], 5, 23)
        report = json.loads(json.dumps(rec.report()))
        assert report["engine"]["engine"] == "SerialEngine"
        assert report["total_modexp"] == 2
        assert report["unattributed_modexp"] == 0
        assert report["phases"]["p"]["modexp"] == 2
        assert report["phases"]["p"]["calls"] == 1
        assert report["total_wall_s"] >= 0

    def test_protocol_run_attributes_every_modexp(self):
        """A metered protocol run leaves nothing unattributed, and the
        per-phase counts sum to the cost model's 2(nS + nR)."""
        rec = MetricsRecorder()
        engine = create_engine(1, on_modexp=rec.count_modexp)
        rec.attach_engine(engine)
        params = PublicParams.for_bits(64)
        n = 6
        receiver = IntersectionReceiver(
            [f"r{i}" for i in range(n)], params, random.Random(1), engine=engine
        )
        sender = IntersectionSender(
            [f"s{i}" for i in range(n)], params, random.Random(2), engine=engine
        )
        with rec.phase("r.round1"):
            m1 = receiver.round1()
        with rec.phase("s.round1"):
            m2 = sender.round1(m1)
        with rec.phase("r.finish"):
            receiver.finish(m2)
        assert rec.unattributed_modexp == 0
        assert rec.total_modexp == 2 * (n + n)
        assert rec.phases["r.round1"].modexp == n
        assert rec.phases["s.round1"].modexp == 2 * n
        assert rec.phases["r.finish"].modexp == n
