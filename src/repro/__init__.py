"""repro - a reproduction of *Information Sharing Across Private
Databases* (Agrawal, Evfimievski, Srikant; SIGMOD 2003).

The library implements the paper's minimal-sharing protocols -
intersection, equijoin, intersection size and equijoin size - over a
from-scratch commutative-encryption substrate (the power function on
quadratic residues modulo a safe prime), together with the broken
naive-hash baseline and its attack, executable proof simulators and a
disclosure audit, the Section 6 cost model, the Appendix A circuit
baseline (including a working Yao garbled-circuit PSI), and the two
motivating applications (selective document sharing, medical research).

Quickstart (one call, both parties in-process)::

    import repro

    result = repro.run(
        "intersection",
        receiver_data=["alice", "bob", "carol"],
        sender_data=["bob", "carol", "dave"],
        bits=128,
        seed=7,
    )
    assert result.answer == {"bob", "carol"}

Networked runs use the same three-verb facade - ``repro.serve`` hosts
party S on a TCP port (``port=0`` picks a free one and reports it),
``repro.connect`` runs party R against it, and both stream
million-item rounds in bounded chunks when given a ``chunk_size``.
The classic per-protocol helpers (``run_intersection`` and friends)
remain for result objects carrying full transcripts.
"""

from .api import (
    Catalog,
    ConnectResult,
    Peer,
    QueryResult,
    RunResult,
    ServeResult,
    SessionOptions,
    connect,
    open_catalog,
    run,
    serve,
)
from .db import Table, ValueMultiset
from .protocols import (
    EquijoinResult,
    EquijoinSizeResult,
    IntersectionResult,
    IntersectionSizeResult,
    ProtocolSuite,
    ProtocolViolation,
    join_tables,
    run_equijoin,
    run_equijoin_size,
    run_intersection,
    run_intersection_size,
)

__version__ = "1.0.0"

__all__ = [
    "run",
    "serve",
    "connect",
    "RunResult",
    "ServeResult",
    "ConnectResult",
    "open_catalog",
    "Catalog",
    "Peer",
    "QueryResult",
    "SessionOptions",
    "ProtocolSuite",
    "ProtocolViolation",
    "run_intersection",
    "run_intersection_size",
    "run_equijoin",
    "run_equijoin_size",
    "join_tables",
    "IntersectionResult",
    "IntersectionSizeResult",
    "EquijoinResult",
    "EquijoinSizeResult",
    "Table",
    "ValueMultiset",
    "__version__",
]
