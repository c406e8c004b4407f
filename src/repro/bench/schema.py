"""The normalized ``BENCH_<area>.json`` result format.

One file per area, schema-tagged at both levels::

    {
      "schema": 3,                 # file format version (this module)
      "area": "protocols",
      "mode": "full",              # which parameter set produced it
      "seed": 20030609,
      "environment": {...},        # volatile: machine, sha, timestamp
      "tasks": [
        {
          "task": "protocols.scaling",
          "schema": 1,             # task's own record-shape version
          "summary": "...",
          "params": {...},
          "records": [
            {"id": "equijoin-n32", ..., "metrics": {"elapsed_s": 0.16}}
          ]
        }
      ]
    }

Record discipline: every record carries a stable ``id`` (unique within
its task), deterministic facts (counts, byte totals, answers — identical
across reruns at the same seed and params) at the top level, and noisy
measured values under ``"metrics"``. The determinism test diffs
everything *except* metrics and the environment block
(:func:`strip_volatile`).

Schema history: ``1`` was a flat ``{"benchmark", "records"}`` shape;
``2`` the registry format with two more per-task fields (a script
path, and the metric names a seconds-based gate read); ``3`` is ``2``
without them.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

__all__ = [
    "FILE_SCHEMA",
    "bench_filename",
    "capture_environment",
    "dump_payload",
    "load_payload",
    "percentiles",
    "strip_volatile",
]

#: Version tag written at the top of every ``BENCH_<area>.json``.
FILE_SCHEMA = 3


def bench_filename(area: str) -> str:
    """The committed artifact name for an area: ``BENCH_<area>.json``."""
    return f"BENCH_{area}.json"


def _git_sha() -> str | None:
    """The current commit sha, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def capture_environment() -> dict[str, Any]:
    """Everything volatile about the machine that produced a run.

    Kept in one block so comparisons and determinism checks can drop
    it wholesale — two runs of the same code at the same seed differ
    only here (and in measured metrics).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def strip_volatile(payload: dict) -> dict:
    """A deep copy of a bench payload minus environment and metrics.

    What remains must be byte-identical across reruns at the same seed
    and params — the determinism contract the harness tests enforce.
    """
    clean = json.loads(json.dumps(payload))
    clean.pop("environment", None)
    for task in clean.get("tasks", []):
        for record in task.get("records", []):
            record.pop("metrics", None)
    return clean


def percentiles(
    samples: Any, points: tuple[float, ...] = (50, 95, 99)
) -> dict[str, float]:
    """Latency-distribution summary for a record's ``"metrics"`` block.

    Returns ``{"p50": ..., "p95": ..., "p99": ...}`` (keys follow
    ``points``), computed by linear interpolation between closest
    ranks on the sorted samples - the same convention as
    ``numpy.percentile``'s default, but dependency-free. Tasks that
    time repeated trials record the distribution this way instead of
    a mean alone: a mean hides exactly the tail.

    Raises:
        ValueError: no samples, or a point outside [0, 100].
    """
    data = sorted(float(sample) for sample in samples)
    if not data:
        raise ValueError("percentiles need at least one sample")
    summary: dict[str, float] = {}
    for point in points:
        if not 0 <= point <= 100:
            raise ValueError(f"percentile point out of range: {point}")
        rank = (len(data) - 1) * point / 100.0
        lo = math.floor(rank)
        hi = math.ceil(rank)
        value = data[lo] + (data[hi] - data[lo]) * (rank - lo)
        summary[f"p{point:g}"] = value
    return summary


def dump_payload(payload: dict, path: Path | str) -> None:
    """Write a payload as sorted, indented JSON with a trailing newline."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_payload(path: Path | str) -> dict:
    """Read one ``BENCH_<area>.json`` back."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
