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
``repro.run`` is the one in-process driver: its result carries the
recorded ``transcript`` (both parties' views and the wire bytes) for
the simulators, the disclosure audit and the Section 6 accounting.

The library logs under ``repro`` (``repro.net.session``, ``.server``,
``.shard``, ``.journal``, ``repro.catalog``, ``repro.cli``) as
``event key=value ...`` lines, and prints none of them unless the
caller configures logging.
"""

import logging

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
from .protocols import ProtocolViolation, PublicParams, join_tables

__version__ = "1.0.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

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
    "PublicParams",
    "ProtocolViolation",
    "join_tables",
    "Table",
    "ValueMultiset",
    "__version__",
]
