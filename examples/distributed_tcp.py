#!/usr/bin/env python3
"""The intersection protocol over a real TCP connection.

Everything else in `examples/` simulates both parties in one process;
this demo runs them as genuine network endpoints through the one-call
facade: ``repro.serve`` hosts party S on a localhost socket (here in a
thread - it would normally be another process or machine),
``repro.connect`` runs party R against it, the public parameters
travel in the handshake (S's welcome), and the two parties exchange
exactly the Section 3.3 messages as length-prefixed, checksummed and
acknowledged frames - one connection, no retry; pass
``session=repro.SessionOptions()`` to both for a run that reconnects
and resumes.

A ``chunk_size`` streams S's big reply round in bounded slices, so a
million-item set never has to materialize as one frame - and while one
chunk is on the wire, the next one's crypto is already running
(``docs/PROTOCOLS.md``, "Streaming round pipeline").

Run:  python examples/distributed_tcp.py
"""

import queue
import threading

import repro


def main() -> None:
    v_s = [f"supplier-{i:03d}" for i in range(40, 90)]     # S's private set
    v_r = [f"supplier-{i:03d}" for i in range(60, 100)]    # R's private set
    expected = set(v_s) & set(v_r)

    port_box: "queue.Queue[int]" = queue.Queue()
    served = {}

    def run_sender() -> None:
        # Party S: owns v_s, binds a socket (port=0 = kernel picks a
        # free one, reported through ready_callback), serves one run.
        served["result"] = repro.serve(
            "intersection",
            v_s,
            bits=512,
            port=0,
            ready_callback=port_box.put,
            chunk_size=16,
        )

    server = threading.Thread(target=run_sender, name="party-S")
    server.start()
    port = port_box.get(timeout=10)
    print(f"party S listening on 127.0.0.1:{port} with {len(v_s)} values")

    # Party R: connects, learns nothing but the answer and |V_S|.
    result = repro.connect(
        "intersection", v_r, port=port, chunk_size=16
    )
    server.join()

    answer = result.answer
    print(f"party R connected with {len(v_r)} values")
    print(f"R's answer: {len(answer)} shared suppliers "
          f"(expected {len(expected)}) -> "
          f"{sorted(answer)[:3]}...")
    print(f"S learned only |V_R| = {served['result'].size_v_r} "
          f"(served on port {served['result'].port})")
    assert answer == expected


if __name__ == "__main__":
    main()
