"""The committed byte counts are the code's: every ``*_bytes`` field of
the committed ``BENCH_<area>.json`` files of the deterministic areas
equals what a fresh ``run --full`` of those areas writes.

Wire bytes depend only on the seeded inputs and the wire format, never
on timing, so a refactor of the transport or the protocol drivers must
reproduce them exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The areas whose byte fields are fixed by the seed alone (the rest
#: depend on timing, faults or process scheduling).
AREAS = ("apps", "attacks", "circuits", "costmodel", "crypto", "protocols")


def _byte_fields(node, path=()):
    """``{path: value}`` for every ``*_bytes`` key, records keyed by id."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith("_bytes"):
                out[path + (key,)] = value
            else:
                out.update(_byte_fields(value, path + (key,)))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            key = item.get("id", item.get("task", i)) if isinstance(item, dict) else i
            out.update(_byte_fields(item, path + (key,)))
    return out


def _load(directory: Path, area: str) -> dict:
    text = (directory / f"BENCH_{area}.json").read_text(encoding="utf-8")
    return _byte_fields(json.loads(text))


def test_full_run_reproduces_committed_byte_counts(tmp_path):
    code = main([
        "run", ",".join(AREAS), "--full", "--quiet", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    checked = 0
    for area in AREAS:
        committed = _load(REPO_ROOT, area)
        fresh = _load(tmp_path, area)
        assert fresh == committed, area
        checked += len(committed)
    assert checked > 0
