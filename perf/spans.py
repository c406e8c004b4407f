"""Statistics and spans of the ``perf/`` benchmark - no ``repro`` import,
so ``perf/report.py`` can view results without the program's source.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises:
        ValueError: fewer than :data:`MIN_BEYOND` samples lie beyond
            the percentile, so a single slow sample would set it.
    """
    ordered = sorted(samples)
    rank = math.ceil(q / 100 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def spread(samples: Iterable[float]) -> dict[str, float]:
    """Count, extremes and quartiles of ``samples`` (for the result file)."""
    ordered = sorted(samples)
    if len(ordered) < 2:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {
        "n": len(ordered),
        "min": ordered[0],
        "q1": q1,
        "median": statistics.median(ordered),
        "q3": q3,
        "max": ordered[-1],
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans ``{id, name, start, end, parent, op_id, count}``.

    A span's parent is the innermost span open on the same thread, or
    the ``parent`` its wrapper was built with (work the library moves
    to a prefetch thread still hangs under its operation). ``count`` is
    the work done inside the span, in the layer's own unit.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.roots: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(
        self, name: str, op_id: str | None = None, parent: int | None = None
    ) -> Iterator[dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent = stack[-1]["id"]
            op_id = op_id if op_id is not None else stack[-1]["op_id"]
        record = {
            "id": next(self._ids), "name": name, "parent": parent,
            "op_id": op_id, "count": 0, "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    @contextmanager
    def op(self, name: str, op_id: str) -> Iterator[dict[str, Any]]:
        """The root span of one operation."""
        with self.span(name, op_id=op_id) as record:
            self.roots[op_id] = record["id"]
            yield record

    def dump(self, path: Path, extra: dict[str, Any] | None = None) -> None:
        """Write the spans as JSON lines (plus one ``extra`` record)."""
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
            if extra is not None:
                fh.write(json.dumps({"extra": extra}, sort_keys=True) + "\n")

    def absorb(self, path: Path) -> dict[str, Any]:
        """Merge spans another process dumped; returns its ``extra``.

        ``perf_counter`` is one monotonic clock for every process of the
        box, so the times need no shift. Top-level spans hang under the
        root span of their ``op_id``.
        """
        extra: dict[str, Any] = {}
        remap: dict[int, int] = {}
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if "extra" in record:
                extra = record["extra"]
                continue
            new_id = next(self._ids)
            remap[record["id"]], record["id"] = new_id, new_id
            if record["parent"] is None:
                record["parent"] = self.roots.get(record["op_id"])
            else:
                record["parent"] = remap[record["parent"]]
            self.spans.append(record)
        return extra


def load_spans(path: Path) -> list[dict[str, Any]]:
    """Spans of a ``trace-<workload>.jsonl`` file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        clipped = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(span["id"], [])
        ]
        out[span["id"]] = (span["end"] - span["start"]) - covered(
            (s, e) for s, e in clipped if e > s
        )
    return out


def duration(spans: Iterable[dict[str, Any]]) -> float:
    """Summed duration of ``spans``."""
    return sum(s["end"] - s["start"] for s in spans)
