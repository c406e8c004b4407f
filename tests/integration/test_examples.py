"""Smoke tests: every example script must run end to end.

The examples are user-facing documentation; a broken example is a
broken deliverable, so each one executes in-process (patched to small
moduli where needed for speed) and its assertions must hold.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_present():
    """The deliverable requires at least three runnable examples."""
    assert len(EXAMPLES) >= 3
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    """Run the example as __main__; any uncaught exception fails."""
    # Examples default to 512-bit groups; shrink for test speed by
    # intercepting PublicParams.for_bits.
    from repro.protocols import parties as parties_mod

    original_for_bits = parties_mod.PublicParams.for_bits.__func__
    monkeypatch.setattr(
        parties_mod.PublicParams,
        "for_bits",
        classmethod(lambda cls, bits: original_for_bits(cls, min(bits, 128))),
    )
    # calibrate() at 1024 bits is fine (fast); document corpora are small.
    monkeypatch.setattr(sys, "argv", [script])

    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"
