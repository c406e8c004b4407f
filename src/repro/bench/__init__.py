"""The paper-table experiment report: a task registry + one runner.

Every experiment is a named :class:`~repro.bench.registry.BenchTask`
(``<area>.<task>``), and one CLI runs any subset with a seeded RNG and
warmup/repeat control, then renders what was recorded::

    python -m repro.bench list
    python -m repro.bench run all --full
    python -m repro.bench report --out EXPERIMENTS.md

Each run emits one schema-tagged ``BENCH_<area>.json`` per area; the
committed files are the numbers EXPERIMENTS.md prints, and ``report``
only renders them. Nothing here judges a timing regression - that is
``perf/`` (see ``perf/README.md``). User guide: ``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

from .registry import (
    BenchTask,
    DuplicateTaskError,
    UnknownTaskError,
    all_tasks,
    areas,
    get_task,
    load_all_tasks,
    register,
    select_tasks,
)
from .runner import RunContext, run_selection, write_bench_files
from .schema import (
    FILE_SCHEMA,
    capture_environment,
    dump_payload,
    load_payload,
    strip_volatile,
)

__all__ = [
    "BenchTask",
    "DuplicateTaskError",
    "FILE_SCHEMA",
    "RunContext",
    "UnknownTaskError",
    "all_tasks",
    "areas",
    "capture_environment",
    "dump_payload",
    "get_task",
    "load_all_tasks",
    "load_payload",
    "register",
    "run_selection",
    "select_tasks",
    "strip_volatile",
    "write_bench_files",
]
