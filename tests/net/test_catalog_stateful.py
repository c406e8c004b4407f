"""A random life of two cache-backed catalogs against a plaintext oracle.

Hypothesis drives insert / delete / replace-payload / query / reopen on
a paired receiver and sender - list-shaped tables, and the mapping the
equijoin sender holds - over the four protocols whose both parties
cache.  After every committed query:

* the answer is the plaintext oracle's;
* each catalog's running digest is ``table_digest`` of its table from
  scratch;
* ``lookup(table_digest(table))`` finds exactly the committed party's
  ``cache_entries()``;
* each cache directory holds the entry's ``.cat`` file and nothing
  else but the files a crashed commit left there (until a cold restart
  empties it);
* the answer R maintains is what the whole-set formula makes of the
  state R holds (the formula ``absorb`` ran on every query before it
  kept the answer: here it is the oracle), each inverse map is the
  exact inverse of its map, and every container of both committed
  parties is a plain one - no staged view outlives ``adopt``.

A crash step runs one query whose cache commit (``store`` or
``append_delta``) meets a seeded disk fault, then restarts both sides:
the next committed answer is still the oracle's, and the cache serves
exactly the committed party's state.
"""

from __future__ import annotations

import copy
import random
import shutil
import tempfile
from collections import Counter
from collections.abc import MutableMapping, MutableSet
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

import repro
from repro.net.catalog import CatalogCache, table_digest
from repro.net.diskfaults import DiskFaultPlan, FaultyJournalIO
from repro.protocols.parties import (
    IntersectionReceiver,
    IntersectionSender,
    PublicParams,
)
from repro.protocols.spec import INTERSECTION

BITS = 128
PROTOCOLS = ["intersection", "intersection-size", "equijoin", "equijoin-size"]
_VALUES = st.integers(min_value=0, max_value=15).map("v{}".format)
_SIDES = st.sampled_from("rs")
_FAULTS = {
    "torn-write": dict(torn_write_rate=1.0),
    "enospc": dict(enospc_rate=1.0),
    "fsync-eio": dict(fsync_error_rate=1.0),
    "rename": dict(rename_error_rate=1.0),
    "dir-fsync": dict(dir_fsync_error_rate=1.0),
}


def _oracle(protocol, v_r, v_s):
    if protocol == "intersection":
        return set(v_r) & set(v_s)
    if protocol == "intersection-size":
        return len(set(v_r) & set(v_s))
    if protocol == "equijoin":
        return {v: v_s[v] for v in v_r if v in v_s}
    count_r, count_s = Counter(v_r), Counter(v_s)
    return sum(n * count_s[v] for v, n in count_r.items())


def _recomputed(protocol, r):
    """R's answer from everything it holds - the whole-set scan."""
    if protocol == "intersection":
        return {v for v, double in r._double_by_value.items() if double in r._z_s}
    if protocol == "equijoin":
        ext_cipher = r.crypto.ext()
        return {
            r._by_codeword[codeword][0]: ext_cipher.decrypt(
                r._by_codeword[codeword][1], list(ciphertext)
            )
            for codeword, ciphertext in r._pairs_by_codeword.items()
            if codeword in r._by_codeword
        }
    return sum(
        count * r._z_r[codeword]
        for codeword, count in r._z_s.items()
        if codeword in r._z_r
    )


def _maintained(protocol, r):
    if protocol == "intersection":
        return set(r._matched)
    return r._matches if protocol == "equijoin" else r._overlap


def _inverse(mapping):
    return {value: key for key, value in mapping.items()}


def _check_party(party):
    assert party._value_by_hash == _inverse(party._hash_by_value)
    assert len(party._value_by_hash) == len(party._hash_by_value)
    for name, value in vars(party).items():
        if isinstance(value, (MutableMapping, MutableSet)):
            assert type(value) in (dict, Counter, set), name


class CatalogLife(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="catalog-life-"))
        self.stamp = 0
        #: The files a crashed commit left behind, until a cold restart.
        self.stale: set[Path] = set()

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @initialize(protocol=st.sampled_from(PROTOCOLS))
    def open(self, protocol):
        self.protocol = protocol
        v_r = [f"v{i}" for i in range(8)]
        v_s = [f"v{i}" for i in range(4, 12)]
        if protocol == "equijoin":
            v_s = {v: f"ext({v})".encode() for v in v_s}
        self.tables = {"r": v_r, "s": v_s}
        self._open()
        self.query()

    def _open(self):
        self.catalogs = {
            side: repro.open_catalog(
                table, bits=BITS, seed=side, cache_dir=self.tmp / side
            )
            for side, table in self.tables.items()
        }
        self.peer = self.catalogs["r"].pair(self.catalogs["s"])
        self.staged = False

    # -- mutations, mirrored on the plaintext tables -------------------
    @rule(side=_SIDES, value=_VALUES)
    def insert(self, side, value):
        table = self.tables[side]
        if isinstance(table, dict):
            self.stamp += 1
            payload = f"ext({value})#{self.stamp}".encode()  # maybe a replace
            table[value] = payload
            self.catalogs[side].insert(value, payload)
        elif value not in table or self.protocol == "equijoin-size":
            table.append(value)
            self.catalogs[side].insert(value)
        else:
            return
        self.staged = True

    @rule(side=_SIDES, value=_VALUES)
    def delete(self, side, value):
        table = self.tables[side]
        if value not in table:
            return
        if isinstance(table, dict):
            del table[value]
        else:
            table.remove(value)
        self.catalogs[side].delete(value)
        self.staged = True

    @rule(value=_VALUES)
    def insert_then_delete(self, value):
        """Churn that nets to nothing must not reach the wire state."""
        if value in self.tables["r"]:
            return
        self.catalogs["r"].insert(value).delete(value)

    # -- queries and restarts ------------------------------------------
    @rule()
    def query(self):
        result = self.peer.query(self.protocol)
        assert result.answer == _oracle(self.protocol, *self.tables.values())
        self.staged = False
        for side in "rs":
            catalog, table = self.catalogs[side], self.tables[side]
            assert catalog._digest.hexdigest() == table_digest(table)
            party = self._party(side)
            files = list((self.tmp / side).iterdir())
            entry = CatalogCache(self.tmp / side).lookup(
                table_digest(table), f"{self.protocol}.{side}"
            )
            assert entry is not None and entry.path in files
            # Nothing collects the file a crashed append leaves under
            # the old table's name, or a crashed store's tmp file.
            assert set(files) <= {entry.path} | self.stale
            assert entry.entries == party.cache_entries()
            assert not catalog._log  # one link: every commit trims it
            _check_party(party)
        receiver = self._party("r")
        assert (
            _maintained(self.protocol, receiver)
            == _recomputed(self.protocol, receiver)
            == result.answer
        )
        if self.protocol == "intersection":
            assert receiver._value_by_double == _inverse(receiver._double_by_value)

    def _party(self, side):
        role = {"r": "receiver", "s": "sender"}[side]
        return self.catalogs[side]._links[(self.protocol, role)]["party"]

    @rule(
        side=_SIDES,
        fault=st.sampled_from(sorted(_FAULTS)),
        op=st.integers(min_value=0, max_value=7),
        cold=st.booleans(),
    )
    def crash_in_commit(self, side, fault, op, cold):
        """One query whose cache commit on ``side`` fails at the first
        disk operation of the fault's class from the ``op``-th on (or
        runs clean past the last), then a restart of both sides. After a cold
        restart - both cache directories emptied - the query is a full
        one, whose commit stores; else it is a delta, whose commit
        appends."""
        if cold:
            shutil.rmtree(self.tmp)
            self.stale = set()
            self._open()
        self.catalogs[side].cache.io = FaultyJournalIO(
            DiskFaultPlan(seed=op, skip=op, max_faults=1, **_FAULTS[fault])
        )
        try:
            result = self.peer.query(self.protocol)
        except OSError:
            # The parties committed before the cache did: the entry is
            # in doubt, the answer never reached the caller.
            self.stale |= {path for side in "rs" for path in (self.tmp / side).iterdir()}
        else:
            assert result.answer == _oracle(self.protocol, *self.tables.values())
        self._open()
        self.query()

    @precondition(lambda self: not self.staged)
    @rule()
    def reopen(self):
        """A restart on the committed tables: both sides warm-start."""
        self._open()
        result = self.peer.query(self.protocol)
        assert result.mode == "full" and result.cache_hit
        self.query()


CatalogLife.TestCase.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestCatalogLife = CatalogLife.TestCase


def _held(party):
    """Everything a party holds across queries, deep-copied."""
    return copy.deepcopy({
        name: value
        for name, value in vars(party).items()
        if isinstance(value, (dict, set, list, int, type(None)))
    })


def test_abandoned_stream_and_sibling_forks_leave_the_party_alone():
    params = PublicParams.for_bits(BITS)
    receiver = IntersectionReceiver(["a", "b", "c"], params, random.Random(1))
    sender = IntersectionSender(["b", "c", "d", "e"], params, random.Random(2))
    before = _held(sender)

    # S's streamed m2, dropped after its first chunk: the own-set
    # ciphertexts it computed stay on the attempt's fork.
    stream = INTERSECTION.rounds[1].chunk_step(
        sender, {"m1": receiver.round1()}, 2
    )
    assert next(stream)[:2] == (0, "seg")
    stream.close()
    assert _held(sender) == before

    one, other = sender.fork(), sender.fork()
    del one._hash_by_value["b"]
    other._y_by_value["e"] = 7
    assert "b" in other._hash_by_value and "e" not in one._y_by_value
    assert _held(sender) == before
