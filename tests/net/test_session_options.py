"""SessionOptions: the one way the one-shot facades select the
fault-tolerant session layer (``session=SessionOptions(...)``)."""

from __future__ import annotations

import random
import threading
import warnings

import repro
from repro.analysis.instrumentation import MetricsRecorder
from repro.crypto.engine import available_cpus
from repro.net.session import RetryPolicy, SessionConfig

V_R = [f"v{i}" for i in range(10)]
V_S = [f"v{i}" for i in range(5, 15)]
EXPECTED = set(V_R) & set(V_S)


def _config(timeout_s=5.0):
    return SessionConfig(
        timeout_s=timeout_s,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.02, max_delay_s=0.1),
        max_reconnects=4,
        fin_grace_s=0.05,
    )


def _serve_connect(serve_kwargs, connect_kwargs):
    ready, ports = threading.Event(), []
    box = {}

    def serve_thread():
        box["serve"] = repro.serve(
            "intersection", V_S, bits=128, seed=3, port=0,
            ready_callback=lambda p: (ports.append(p), ready.set()),
            timeout=10.0, **serve_kwargs,
        )

    thread = threading.Thread(target=serve_thread)
    thread.start()
    assert ready.wait(timeout=10)
    box["connect"] = repro.connect(
        "intersection", V_R, host="127.0.0.1", port=ports[0],
        seed=4, timeout=10.0, **connect_kwargs,
    )
    thread.join(timeout=30)
    return box


class TestSessionOptions:
    def test_dataclass_defaults(self):
        opts = repro.SessionOptions()
        assert opts.journal_dir is None
        assert opts.config is None
        assert opts.journal_fsync is True

    def test_session_kwarg_runs_resumable(self, tmp_path):
        box = _serve_connect(
            {"session": repro.SessionOptions(journal_dir=tmp_path / "s", config=_config())},
            {"session": repro.SessionOptions(journal_dir=tmp_path / "r", config=_config())},
        )
        assert box["connect"].answer == EXPECTED
        assert box["connect"].stats is not None
        assert box["serve"].stats is not None
        assert any(tmp_path.joinpath("s").iterdir())
        assert any(tmp_path.joinpath("r").iterdir())

    def test_session_kwarg_emits_no_warning(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            box = _serve_connect(
                {"session": repro.SessionOptions(config=_config())},
                {"session": repro.SessionOptions(config=_config())},
            )
        assert box["connect"].answer == EXPECTED

    def test_timeout_is_the_frame_deadline_of_a_session_without_config(
        self, monkeypatch
    ):
        """``timeout=`` is not dropped when ``session=`` is given: it is
        the session's ``timeout_s`` unless ``session.config`` says."""
        from repro.net import tcp

        seen = []
        monkeypatch.setattr(
            tcp, "connect_resumable_receiver",
            lambda *args, config, **kwargs: (seen.append(config), None),
        )
        for options in (repro.SessionOptions(),
                        repro.SessionOptions(config=_config(9.0))):
            repro.connect(
                "intersection", V_R, port=1, timeout=1.5, session=options
            )
        assert [config.timeout_s for config in seen] == [1.5, 9.0]


class TestServeResultPort:
    def test_port_zero_reports_bound_port(self):
        """serve(port=0) must expose the kernel-chosen port on the
        result and agree with the ready_callback value."""
        ports, ready = [], threading.Event()
        box = {}

        def serve_thread():
            box["serve"] = repro.serve(
                "intersection", V_S, bits=128, seed=5, port=0,
                ready_callback=lambda p: (ports.append(p), ready.set()),
                timeout=10.0,
            )

        thread = threading.Thread(target=serve_thread)
        thread.start()
        assert ready.wait(timeout=10)
        assert ports[0] != 0
        result = repro.connect(
            "intersection", V_R, host="127.0.0.1", port=ports[0],
            seed=6, timeout=10.0,
        )
        thread.join(timeout=30)
        assert result.answer == EXPECTED
        assert box["serve"].port == ports[0]

    def test_catalog_serve_port_zero(self):
        catalog = repro.open_catalog(V_S, bits=128, rng=random.Random(1))
        peer = catalog.serve(port=0, timeout=5.0)
        try:
            assert peer.port != 0
        finally:
            peer.close()


class TestRecorderThroughTheFacade:
    """A ``recorder=`` passed to any facade entry point counts the
    run's exponentiations: intersection costs ``2 (n_R + n_S)``."""

    MODEXP = 2 * (len(V_R) + len(V_S))

    def test_run_and_catalog_pair(self):
        rec = MetricsRecorder()
        repro.run("intersection", V_R, V_S, bits=128, seed=1, recorder=rec)
        report = rec.report()
        assert report["total_modexp"] == self.MODEXP
        # Both parties here: the shared pool where there are two CPUs,
        # which a run this small never leaves the serial path of.
        assert report["engine"]["engine"] == (
            "ThreadPoolEngine" if available_cpus() > 1 else "SerialEngine"
        )
        assert not report["engine"].get("parallel_batches")

        rec = MetricsRecorder()
        receiver, sender = (
            repro.open_catalog(v, bits=128, seed=s, recorder=rec)
            for v, s in ((V_R, 1), (V_S, 2))
        )
        receiver.pair(sender).query("intersection")
        assert rec.total_modexp == self.MODEXP

    def test_serve_and_connect(self):
        for session in (None, repro.SessionOptions(config=_config())):
            recs = MetricsRecorder(), MetricsRecorder()
            box = _serve_connect(
                {"session": session, "recorder": recs[0]},
                {"session": session, "recorder": recs[1]},
            )
            assert box["connect"].answer == EXPECTED
            assert [r.total_modexp for r in recs] == [self.MODEXP // 2] * 2
