"""The run phase: execute tasks, normalize results, emit artifacts.

:func:`run_selection` executes any task subset with a seeded RNG per
task and warmup/repeat timing control, validates the record
discipline, and groups the results into one payload per area;
:func:`write_bench_files` lands them as ``BENCH_<area>.json``.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .registry import BenchTask
from .schema import (
    FILE_SCHEMA,
    bench_filename,
    capture_environment,
    dump_payload,
)

__all__ = ["RunContext", "run_selection", "write_bench_files"]


@dataclass
class RunContext:
    """What a task body gets handed: parameters, rng, timing control.

    The rng is seeded from (run seed, task name) so every task is
    deterministic in isolation — adding or removing other tasks from a
    run never shifts its stream.
    """

    #: The mode's parameter dict (smoke or full).
    params: dict[str, Any]
    #: Seeded per-task; the only randomness a task should use.
    rng: random.Random
    #: Which parameter set is running: ``smoke`` or ``full``.
    mode: str = "smoke"
    #: Discarded timing calls before measurement.
    warmup: int = 0
    #: Timed calls per measurement; ``timeit`` keeps the best.
    repeat: int = 1

    def param(self, key: str, default: Any = None) -> Any:
        """One parameter, with a default."""
        return self.params.get(key, default)

    def timeit(self, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` warmup+repeat times; return (last result, best s).

        Best-of-N is the standard noise damper for wall-clock
        microbenchmarks: the minimum is the least-interfered-with run.
        """
        for _ in range(self.warmup):
            fn()
        best = float("inf")
        result = None
        for _ in range(max(1, self.repeat)):
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
        return result, best


def _task_rng(seed: int, name: str) -> random.Random:
    """A stable per-task stream: run seed xor crc32 of the task name."""
    return random.Random(seed ^ zlib.crc32(name.encode("utf-8")))


def _validate_records(task: BenchTask, records: list[dict]) -> None:
    """Enforce the schema discipline before anything lands on disk."""
    seen: set[str] = set()
    for record in records:
        if not isinstance(record, dict) or "id" not in record:
            raise ValueError(f"{task.name}: every record needs an 'id'")
        rid = record["id"]
        if rid in seen:
            raise ValueError(f"{task.name}: duplicate record id {rid!r}")
        seen.add(rid)
        metrics = record.get("metrics", {})
        if not isinstance(metrics, dict):
            raise ValueError(f"{task.name}/{rid}: 'metrics' must be a dict")


def run_selection(
    tasks: list[BenchTask],
    *,
    mode: str = "smoke",
    seed: int = 20030609,
    warmup: int | None = None,
    repeat: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, dict]:
    """Execute tasks and return ``{area: payload}`` per the schema.

    ``warmup``/``repeat`` default per mode (0/1 for smoke, 1/3 for
    full).
    """
    if warmup is None:
        warmup = 0 if mode == "smoke" else 1
    if repeat is None:
        repeat = 1 if mode == "smoke" else 3
    environment = capture_environment()
    by_area: dict[str, dict] = {}
    for task in tasks:
        params = task.params_for(mode)
        if progress:
            progress(f"run {task.name} [{mode}] params={params}")
        ctx = RunContext(
            params=params, rng=_task_rng(seed, task.name),
            mode=mode, warmup=warmup, repeat=repeat,
        )
        started = time.perf_counter()
        records = task.fn(ctx)
        elapsed = time.perf_counter() - started
        _validate_records(task, records)
        if progress:
            progress(
                f"  -> {len(records)} records in {elapsed:.2f}s"
            )
        payload = by_area.setdefault(task.area, {
            "schema": FILE_SCHEMA,
            "area": task.area,
            "mode": mode,
            "seed": seed,
            "environment": environment,
            "tasks": [],
        })
        payload["tasks"].append({
            "task": task.name,
            "schema": task.schema,
            "summary": task.summary,
            "params": params,
            "records": records,
        })
    for payload in by_area.values():
        payload["tasks"].sort(key=lambda t: t["task"])
    return by_area


def write_bench_files(
    by_area: dict[str, dict], out_dir: Path | str
) -> list[Path]:
    """Write one ``BENCH_<area>.json`` per area; return the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for area in sorted(by_area):
        path = out / bench_filename(area)
        dump_payload(by_area[area], path)
        paths.append(path)
    return paths
