"""The wire pins again, on the builtin kernel.

Every test of ``test_golden_transcripts.py`` and
``test_engine_transcripts.py`` is collected here a second time and
runs with libgmp hidden (the ``builtin_kernel`` fixture), pool workers
included: the interpreter's ``pow`` and GMP's ``powm_sec`` must both
reproduce the golden fixture byte for byte.
"""

from __future__ import annotations

import pytest

from .test_engine_transcripts import *  # noqa: F401,F403
from .test_golden_transcripts import *  # noqa: F401,F403


@pytest.fixture(autouse=True)
def _on_the_builtin_kernel(builtin_kernel):
    """Every test of this module without GMP."""
