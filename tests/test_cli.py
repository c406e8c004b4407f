"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def value_files(tmp_path):
    r = tmp_path / "r.txt"
    s = tmp_path / "s.txt"
    r.write_text("alice\nbob\ncarol\n\n")
    s.write_text("bob\ncarol\ndave\n")
    return str(r), str(s)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_global_options(self):
        args = build_parser().parse_args(
            ["--bits", "128", "--seed", "7", "estimate"]
        )
        assert args.bits == 128
        assert args.seed == 7


class TestIntersectionCommands:
    def test_intersection(self, value_files, capsys):
        r, s = value_files
        code = main(["--bits", "128", "--seed", "1", "intersection",
                     "--receiver", r, "--sender", s])
        assert code == 0
        out = capsys.readouterr()
        assert out.out.splitlines() == ["bob", "carol"]
        assert "|intersection|=2" in out.err

    def test_intersection_size(self, value_files, capsys):
        r, s = value_files
        code = main(["--bits", "128", "intersection-size",
                     "--receiver", r, "--sender", s])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_equijoin_size_counts_duplicates(self, tmp_path, capsys):
        r = tmp_path / "r.txt"
        s = tmp_path / "s.txt"
        r.write_text("a\na\nb\n")
        s.write_text("a\nb\nb\nb\n")
        code = main(["--bits", "128", "equijoin-size",
                     "--receiver", str(r), "--sender", str(s)])
        assert code == 0
        assert capsys.readouterr().out.strip() == str(2 * 1 + 1 * 3)


class TestEquijoinSum:
    def test_sum_with_tab_and_comma(self, tmp_path, capsys):
        r = tmp_path / "r.txt"
        s = tmp_path / "s.csv"
        r.write_text("a\nb\nc\n")
        s.write_text("b\t10\nc,32\nz,999\n")
        code = main(["--bits", "128", "--seed", "2", "equijoin-sum",
                     "--receiver", str(r), "--sender", str(s)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sum over intersection: 42" in out
        assert "matches: 2" in out


class TestInfoCommands:
    def test_estimate(self, capsys):
        assert main(["estimate"]) == 0
        out = capsys.readouterr().out
        assert "document sharing" in out
        assert "medical research" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "m=11" in out
        assert "days" in out

    def test_calibrate(self, capsys):
        assert main(["--bits", "128", "calibrate", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "C_e" in out
        assert "modexp/hour" in out


class TestDistributedCommands:
    def test_serve_and_connect(self, tmp_path, capsys):
        import threading

        r_file = tmp_path / "r.txt"
        s_file = tmp_path / "s.txt"
        r_file.write_text("alice\nbob\ncarol\n")
        s_file.write_text("bob\ncarol\ndave\n")

        # The serve command prints its port via the ready callback; to
        # coordinate in-process we monkey-grab it through a fixed port.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        server_rc = {}

        def serve():
            server_rc["code"] = main(
                ["--bits", "128", "serve", "--sender", str(s_file),
                 "--port", str(port)]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        import time

        from repro.cli import EXIT_TIMEOUT, EXIT_UNREACHABLE

        deadline = time.time() + 10
        while time.time() < deadline:
            code = main(
                ["--bits", "128", "connect", "--receiver", str(r_file),
                 "--host", "127.0.0.1", "--port", str(port)]
            )
            if code not in (EXIT_UNREACHABLE, EXIT_TIMEOUT):
                break
            time.sleep(0.05)
        else:  # pragma: no cover
            raise TimeoutError("server never came up")
        thread.join(timeout=10)
        assert code == 0
        assert server_rc["code"] == 0
        out = capsys.readouterr()
        assert "bob" in out.out and "carol" in out.out
        assert "|V_R| = 3" in out.out


class TestDistributedProtocolOptions:
    def _serve_connect(self, serve_args, connect_args, port):
        import socket
        import threading
        import time

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        server_rc = {}

        def serve():
            server_rc["code"] = main(serve_args + ["--port", str(port)])

        thread = threading.Thread(target=serve)
        thread.start()
        from repro.cli import EXIT_TIMEOUT, EXIT_UNREACHABLE

        deadline = time.time() + 10
        while time.time() < deadline:
            code = main(connect_args + ["--port", str(port)])
            if code not in (EXIT_UNREACHABLE, EXIT_TIMEOUT):
                break
            time.sleep(0.05)
        else:  # pragma: no cover
            raise TimeoutError("server never came up")
        thread.join(timeout=10)
        assert not thread.is_alive()
        return code, server_rc["code"]

    def test_equijoin_over_tcp(self, tmp_path, capsys):
        r_file = tmp_path / "r.txt"
        s_file = tmp_path / "s.csv"
        r_file.write_text("a\nb\nc\n")
        s_file.write_text("b,payload-b\nc\tpayload-c\nz,payload-z\n")
        code, server_code = self._serve_connect(
            ["--bits", "128", "serve", "--protocol", "equijoin",
             "--sender", str(s_file), "--timeout", "10"],
            ["--bits", "128", "connect", "--protocol", "equijoin",
             "--receiver", str(r_file), "--timeout", "10"],
            port=0,
        )
        assert code == 0 and server_code == 0
        out = capsys.readouterr()
        assert "b\tpayload-b" in out.out
        assert "c\tpayload-c" in out.out
        assert "matches=2" in out.err

    def test_resumable_session_prints_stats(self, tmp_path, capsys):
        r_file = tmp_path / "r.txt"
        s_file = tmp_path / "s.txt"
        r_file.write_text("a\na\nb\nc\n")
        s_file.write_text("a\nb\nb\ne\n")
        code, server_code = self._serve_connect(
            ["--bits", "128", "--seed", "1", "serve", "--resumable",
             "--protocol", "equijoin-size", "--sender", str(s_file),
             "--timeout", "5"],
            ["--bits", "128", "--seed", "2", "connect", "--resumable",
             "--protocol", "equijoin-size", "--receiver", str(r_file),
             "--timeout", "5"],
            port=0,
        )
        assert code == 0 and server_code == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[-1] != ""  # join size printed
        assert "4" in out.out  # 2*1 + 1*2 matches
        assert "session stats" in out.err
        assert "'reconnects': 0" in out.err

    def test_parser_accepts_new_options(self):
        args = build_parser().parse_args(
            ["connect", "--receiver", "r.txt", "--protocol",
             "intersection-size", "--port", "9", "--timeout", "2.5",
             "--resumable"]
        )
        assert args.protocol == "intersection-size"
        assert args.timeout == 2.5
        assert args.resumable is True

    def test_parser_accepts_engine_options(self):
        args = build_parser().parse_args(
            ["serve", "--sender", "s.txt", "--workers", "4", "--metrics"]
        )
        assert args.workers == 4
        assert args.metrics is True
        args = build_parser().parse_args(
            ["connect", "--receiver", "r.txt", "--port", "9"]
        )
        assert args.workers == 1
        assert args.metrics is False

    def test_metrics_json_emitted(self, tmp_path, capsys):
        import json

        r_file = tmp_path / "r.txt"
        s_file = tmp_path / "s.txt"
        r_file.write_text("a\nb\nc\n")
        s_file.write_text("b\nc\nd\n")
        code, server_code = self._serve_connect(
            ["--bits", "128", "serve", "--sender", str(s_file),
             "--metrics", "--timeout", "10"],
            ["--bits", "128", "connect", "--receiver", str(r_file),
             "--metrics", "--timeout", "10"],
            port=0,
        )
        assert code == 0 and server_code == 0
        err = capsys.readouterr().err
        reports = [
            json.loads(line) for line in err.splitlines()
            if line.startswith("{")
        ]
        assert len(reports) == 2  # one per endpoint
        for report in reports:
            assert report["engine"]["engine"] == "SerialEngine"
            assert report["total_modexp"] > 0
            assert report["unattributed_modexp"] == 0
            assert report["total_wall_s"] > 0
            for stats in report["phases"].values():
                assert set(stats) == {"wall_s", "modexp", "calls"}
        phase_sets = [set(r["phases"]) for r in reports]
        assert {"s.setup", "s.wait_m1", "s.round1"} in phase_sets
        assert {"r.setup", "r.round1", "r.wait_m2", "r.finish"} in phase_sets

    def test_workers_flag_implies_metrics(self, tmp_path, capsys):
        import json

        r_file = tmp_path / "r.txt"
        s_file = tmp_path / "s.txt"
        r_file.write_text("a\nb\n")
        s_file.write_text("b\nc\n")
        code, server_code = self._serve_connect(
            ["--bits", "128", "serve", "--sender", str(s_file),
             "--workers", "2", "--timeout", "10"],
            ["--bits", "128", "connect", "--receiver", str(r_file),
             "--workers", "2", "--timeout", "10"],
            port=0,
        )
        assert code == 0 and server_code == 0
        out = capsys.readouterr()
        assert "b" in out.out
        reports = [
            json.loads(line) for line in out.err.splitlines()
            if line.startswith("{")
        ]
        assert len(reports) == 2
        for report in reports:
            assert report["engine"]["engine"] == "ThreadPoolEngine"
            assert report["engine"]["workers"] == 2
            # Tiny sets stay under the parallel crossover - routed
            # serially, but still counted.
            assert report["total_modexp"] > 0


#: The keys of ``# session stats:``, as ``SessionStats.as_dict`` names them.
SESSION_STATS_KEYS = {
    "protocol", "frames_sent", "frames_received", "retransmits",
    "implicit_acks", "duplicates_discarded", "checksum_failures",
    "malformed_frames", "naks_sent", "reconnects", "worker_lost",
    "replayed_frames", "chunks_sent", "chunks_received", "rounds_computed",
    "rounds_resumed", "rounds_recovered", "elapsed_s",
}


class TestOneShotServeOutput:
    """What a seeded one-shot ``serve`` prints, whichever host runs it:
    its stdout lines, the keys of its session stats and of its
    ``--metrics`` report - and no ``sessions`` entry, which only the
    supervised server's report has."""

    @pytest.mark.parametrize("resumable", [False, True])
    def test_stdout_stats_and_metrics_keys(
        self, value_files, resumable, capsys
    ):
        import ast
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        r, s = value_files
        flag = ["--resumable"] if resumable else []
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "--bits", "128", "--seed", "1",
             "serve", *flag, "--sender", s, "--port", "0", "--timeout", "10",
             "--metrics"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            first = server.stdout.readline()
            port = int(first.rsplit(":", 1)[1].split()[0])
            code = main(["--bits", "128", "--seed", "2", "connect", *flag,
                         "--receiver", r, "--port", str(port),
                         "--timeout", "10"])
            out, err = server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
        assert code == 0 and server.returncode == 0
        assert capsys.readouterr().out.splitlines() == ["bob", "carol"]
        assert [first.rstrip("\n"), *out.splitlines()] == [
            f"serving intersection as party S on 127.0.0.1:{port} "
            "(3 values)",
            "run complete; S learned |V_R| = 3",
        ]
        lines = err.splitlines()
        stats = [
            ast.literal_eval(line[len("# session stats: "):])
            for line in lines if line.startswith("# session stats: ")
        ]
        reports = [json.loads(line) for line in lines if line.startswith("{")]
        assert len(lines) == len(stats) + len(reports)
        assert [set(entry) for entry in stats] == (
            [SESSION_STATS_KEYS] if resumable else []
        )
        (report,) = reports
        assert set(report) == {
            "engine", "total_wall_s", "total_modexp", "unattributed_modexp",
            "phases",
        }
        assert set(report["engine"]) == {"engine", "workers", "kernel"}
        assert set(report["phases"]) == {"s.setup", "s.wait_m1", "s.round1"}
        for phase in report["phases"].values():
            assert set(phase) == {"wall_s", "modexp", "calls"}


class TestOneShotConnectOutput:
    """What a seeded one-shot ``connect`` prints, whichever shell runs
    party R: its stdout lines, the keys of its session stats and of its
    ``--metrics`` report (the twin of :class:`TestOneShotServeOutput`)."""

    @pytest.mark.parametrize("resumable", [False, True])
    def test_stdout_stats_and_metrics_keys(self, value_files, resumable):
        import ast
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        r, s = value_files
        flag = ["--resumable"] if resumable else []
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        repro = [sys.executable, "-m", "repro", "--bits", "128"]
        server = subprocess.Popen(
            [*repro, "--seed", "1", "serve", *flag, "--sender", s,
             "--port", "0", "--timeout", "10"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            port = int(server.stdout.readline().rsplit(":", 1)[1].split()[0])
            client = subprocess.run(
                [*repro, "--seed", "2", "connect", *flag, "--receiver", r,
                 "--port", str(port), "--timeout", "10", "--metrics"],
                env=env, capture_output=True, text=True, timeout=60,
            )
            server.communicate(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)
        assert client.returncode == 0 and server.returncode == 0
        assert client.stdout.splitlines() == ["bob", "carol"]
        lines = client.stderr.splitlines()
        assert lines[0] == "# |intersection|=2"
        stats = [
            ast.literal_eval(line[len("# session stats: "):])
            for line in lines if line.startswith("# session stats: ")
        ]
        reports = [json.loads(line) for line in lines if line.startswith("{")]
        assert len(lines) == 1 + len(stats) + len(reports)
        assert [set(entry) for entry in stats] == (
            [SESSION_STATS_KEYS] if resumable else []
        )
        (report,) = reports
        assert set(report) == {
            "engine", "total_wall_s", "total_modexp", "unattributed_modexp",
            "phases",
        }
        assert set(report["engine"]) == {"engine", "workers", "kernel"}
        assert set(report["phases"]) == {
            "r.setup", "r.round1", "r.wait_m2", "r.finish",
        }
        for phase in report["phases"].values():
            assert set(phase) == {"wall_s", "modexp", "calls"}


#: Each in-process command's input files and its seeded output,
#: ``(stdout, stderr)`` by seed. The byte counts move with the party
#: keys: seed 18 gives intersection and intersection-size (and seed 13
#: equijoin-sum) one byte less under other per-party rng derivations.
IN_PROCESS_OUTPUT = {
    "intersection": (
        ("alice\nbob\ncarol\n\n", "bob\ncarol\ndave\n"),
        {
            13: ("bob\ncarol\n",
                 "# |intersection|=2 |V_R|=3 |V_S|=3 bytes=282\n"),
            18: ("bob\ncarol\n",
                 "# |intersection|=2 |V_R|=3 |V_S|=3 bytes=281\n"),
        },
    ),
    "intersection-size": (
        ("alice\nbob\ncarol\n\n", "bob\ncarol\ndave\n"),
        {
            13: ("2\n", "# |V_R|=3 |V_S|=3 bytes=204\n"),
            18: ("2\n", "# |V_R|=3 |V_S|=3 bytes=203\n"),
        },
    ),
    "equijoin-size": (
        ("a\na\nb\n", "a\nb\nb\nb\n"),
        {
            seed: ("5\n", "# S's duplicate distribution seen by R: {1: 1, 3: 1}\n")
            for seed in (13, 18)
        },
    ),
    "equijoin-sum": (
        ("a\nb\nc\n", "b\t10\nc,32\nz,999\n"),
        {
            seed: (
                "sum over intersection: 42\n"
                "matches: 2  |V_R|=3  |V_S|=3\n"
                "wire bytes: 574\n",
                "",
            )
            for seed in (13, 18)
        },
    ),
}


class TestInProcessOutput:
    """What a seeded in-process protocol command prints: all of stdout
    and every stderr line, wire byte counts included - so the way a
    ``--seed`` becomes the two parties' keys stays what it was."""

    @pytest.mark.parametrize("seed", [13, 18])
    @pytest.mark.parametrize("command", sorted(IN_PROCESS_OUTPUT))
    def test_stdout_and_stderr(self, tmp_path, command, seed):
        import os
        import subprocess
        import sys
        from pathlib import Path

        (r_text, s_text), outputs = IN_PROCESS_OUTPUT[command]
        r, s = tmp_path / "r.txt", tmp_path / "s.txt"
        r.write_text(r_text)
        s.write_text(s_text)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--bits", "128", "--seed",
             str(seed), command, "--receiver", str(r), "--sender", str(s)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0
        assert (done.stdout, done.stderr) == outputs[seed]


class TestFailureExitCodes:
    """Operational failures exit with a code and one stderr line."""

    def _free_port(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_connection_refused_is_unreachable(self, value_files, capsys):
        from repro.cli import EXIT_UNREACHABLE

        r, _ = value_files
        code = main(["--bits", "128", "connect", "--receiver", r,
                     "--port", str(self._free_port()), "--timeout", "2"])
        assert code == EXIT_UNREACHABLE
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot reach the server")
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_unresponsive_peer_times_out(self, value_files, capsys):
        import socket

        from repro.cli import EXIT_TIMEOUT

        r, _ = value_files
        mute = socket.socket()
        mute.bind(("127.0.0.1", 0))
        mute.listen(1)
        try:
            code = main(["--bits", "128", "connect", "--receiver", r,
                         "--port", str(mute.getsockname()[1]),
                         "--timeout", "0.3"])
        finally:
            mute.close()
        assert code == EXIT_TIMEOUT
        assert capsys.readouterr().err.startswith("repro: timed out")

    @pytest.fixture()
    def busy_server(self):
        from repro.net.server import ProtocolServer
        from repro.protocols.parties import PublicParams

        params = PublicParams.for_bits(128)
        server = ProtocolServer(
            {"intersection": (["b", "c"], params)},
            busy_retry_hint_s=0.05,
        ).start()
        try:
            yield server
        finally:
            server.shutdown(drain_timeout_s=0.1)

    def test_protocol_mismatch_is_handshake(
        self, busy_server, value_files, capsys
    ):
        from repro.cli import EXIT_HANDSHAKE

        r, _ = value_files
        code = main(["--bits", "128", "connect", "--resumable",
                     "--protocol", "intersection-size", "--receiver", r,
                     "--port", str(busy_server.port), "--timeout", "2"])
        assert code == EXIT_HANDSHAKE
        assert capsys.readouterr().err.startswith("repro: handshake failed")

    def test_draining_server_is_busy(self, busy_server, value_files, capsys):
        from repro.cli import EXIT_BUSY

        busy_server._draining.set()
        r, _ = value_files
        code = main(["--bits", "128", "connect", "--resumable",
                     "--receiver", r, "--port", str(busy_server.port),
                     "--timeout", "2"])
        assert code == EXIT_BUSY
        assert capsys.readouterr().err.startswith("repro: server busy")

    def test_retry_busy_honors_server_hint(
        self, busy_server, value_files, capsys
    ):
        import re
        import time

        from repro.cli import EXIT_BUSY

        busy_server._draining.set()
        r, _ = value_files
        start = time.monotonic()
        code = main(["--bits", "128", "connect", "--resumable",
                     "--receiver", r, "--port", str(busy_server.port),
                     "--timeout", "2", "--retry-policy",
                     "attempts=3,base=0.001,max-delay=0.001"])
        elapsed = time.monotonic() - start
        assert code == EXIT_BUSY
        err = capsys.readouterr().err
        # attempts=3 is two retries, each waiting the server's 0.05s
        # hint (it floors the 1 ms policy delay) stretched by additive
        # jitter of at most 50% (never shortened below it).
        delays = [
            float(text) for text in re.findall(r"retrying in ([\d.]+)s", err)
        ]
        assert len(delays) == 2
        assert all(0.05 <= d <= 0.075 + 1e-9 for d in delays)
        assert elapsed >= 0.1


class TestRetryPolicyFlag:
    @pytest.fixture()
    def busy_server(self):
        from repro.net.server import ProtocolServer
        from repro.protocols.parties import PublicParams

        params = PublicParams.for_bits(128)
        server = ProtocolServer(
            {"intersection": (["b", "c"], params)},
            busy_retry_hint_s=0.05,
        ).start()
        try:
            yield server
        finally:
            server.shutdown(drain_timeout_s=0.1)

    def test_parser_accepts_retry_policy_and_serve_supervision_flags(self):
        args = build_parser().parse_args(
            ["connect", "--receiver", "r.txt", "--port", "9",
             "--retry-policy", "attempts=3,deadline=10"]
        )
        assert args.retry_policy == "attempts=3,deadline=10"
        args = build_parser().parse_args(
            ["serve", "--sender", "s.txt", "--shards", "2",
             "--restart-budget", "5", "--heartbeat-s", "0.25"]
        )
        assert args.restart_budget == 5
        assert args.heartbeat_s == 0.25
        # Defaults match the server's own.
        args = build_parser().parse_args(["serve", "--sender", "s.txt"])
        assert args.restart_budget == 3
        assert args.heartbeat_s == 1.0

    def test_bad_retry_policy_spec_is_usage_error(self, value_files, capsys):
        r, _ = value_files
        code = main(["connect", "--receiver", r, "--port", "9",
                     "--retry-policy", "attempts=lots"])
        assert code == 2
        assert "bad --retry-policy" in capsys.readouterr().err

    def test_retry_policy_out_of_range_is_usage_error(self, value_files, capsys):
        r, _ = value_files
        code = main(["connect", "--receiver", r, "--port", "9",
                     "--retry-policy", "jitter=1.5,base=0.5"])
        assert code == 2
        assert "bad --retry-policy: RetryPolicy.jitter must be in [0, 1]" in (
            capsys.readouterr().err
        )

    def test_retry_policy_waits_out_busy(
        self, busy_server, value_files, capsys
    ):
        import re

        from repro.cli import EXIT_BUSY

        busy_server._draining.set()
        r, _ = value_files
        code = main(["--bits", "128", "connect", "--resumable",
                     "--receiver", r, "--port", str(busy_server.port),
                     "--timeout", "2",
                     "--retry-policy", "attempts=3,base=0.01,max-delay=0.1"])
        assert code == EXIT_BUSY
        err = capsys.readouterr().err
        # attempts=3: two retries printed, then the typed busy exit.
        delays = re.findall(r"ServerBusyError; retrying in ([\d.]+)s", err)
        assert len(delays) == 2
        # The server's 0.05s hint floors every delay.
        assert all(float(d) >= 0.05 for d in delays)
        assert err.rstrip().endswith("(attempt 2/3)") or "server busy" in err

    def test_retry_policy_busy_off_fails_fast(
        self, busy_server, value_files, capsys
    ):
        from repro.cli import EXIT_BUSY

        busy_server._draining.set()
        r, _ = value_files
        code = main(["--bits", "128", "connect", "--resumable",
                     "--receiver", r, "--port", str(busy_server.port),
                     "--timeout", "2", "--retry-policy", "busy=no"])
        assert code == EXIT_BUSY
        err = capsys.readouterr().err
        assert "retrying" not in err

    def test_retry_policy_connects_on_a_live_server(
        self, value_files, capsys
    ):
        from repro.net.server import ProtocolServer
        from repro.protocols.parties import PublicParams

        params = PublicParams.for_bits(128)
        r, _ = value_files
        with ProtocolServer(
            {"intersection": (["bob", "carol", "dave"], params)}
        ) as server:
            code = main(["--bits", "128", "connect", "--resumable",
                         "--receiver", r, "--port", str(server.port),
                         "--retry-policy", "attempts=4,timeout=5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bob" in out and "carol" in out
