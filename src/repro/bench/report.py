"""The view phase: render EXPERIMENTS.md from ``BENCH_<area>.json``.

Rendering runs no task: the report is a pure function of the files
``run`` wrote, so EXPERIMENTS.md and the committed ``BENCH_<area>.json``
are one set of numbers. Every section cites the registry task that
produced it - name, record schema version, mode, seed, parameters.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Any

from .schema import bench_filename, load_payload

__all__ = ["load_payloads", "render_payloads"]

#: Area order in the report — paper-section-ish reading order.
_AREA_ORDER = [
    "crypto", "attacks", "costmodel", "protocols", "circuits",
    "leakage", "apps", "parallelism",
]


def _fmt(value: Any) -> str:
    """One table cell: compact floats, flat containers, plain scalars."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, dict):
        return "; ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _record_table(task_result: dict) -> list[str]:
    """Markdown table lines for one task's records."""
    records = task_result["records"]
    if not records:
        return ["(no records)"]
    columns: list[str] = []
    metric_columns: list[str] = []
    for record in records:
        for key in record:
            if key in ("id", "metrics"):
                continue
            if key not in columns:
                columns.append(key)
        for key in record.get("metrics", {}):
            if key not in metric_columns:
                metric_columns.append(key)
    header = ["id", *columns, *metric_columns]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for record in records:
        metrics = record.get("metrics", {})
        cells = [str(record["id"])]
        cells += [_fmt(record.get(c, "")) for c in columns]
        cells += [_fmt(metrics.get(c, "")) for c in metric_columns]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def render_payloads(by_area: dict[str, dict]) -> str:
    """The full EXPERIMENTS.md text from ``{area: payload}`` results."""
    out = io.StringIO()
    emit = lambda *a: print(*a, file=out)  # noqa: E731
    emit("# EXPERIMENTS - paper-reported vs measured")
    emit()
    emit("Rendered by `python -m repro.bench report --out EXPERIMENTS.md`")
    emit("from the committed `BENCH_<area>.json` files and nothing else (see")
    emit("docs/BENCHMARKS.md; `python -m repro.bench run all --full` rewrites")
    emit("them). Every section names the registry task, record-schema")
    emit("version, mode, seed and parameters that produced it; deterministic")
    emit("columns (counts, bytes, paper constants) are reproducible at the")
    emit("given seed, while columns from the `metrics` block are wall-clock")
    emit("measurements on the machine that ran them - for what a query costs")
    emit("against the paper's `C_e` model, see docs/PERFORMANCE.md.")
    ordered = [a for a in _AREA_ORDER if a in by_area]
    ordered += [a for a in sorted(by_area) if a not in _AREA_ORDER]
    for area in ordered:
        payload = by_area[area]
        emit()
        emit(f"## Area `{area}`")
        for task_result in payload["tasks"]:
            emit()
            emit(
                f"### `{task_result['task']}` "
                f"(schema {task_result['schema']}, "
                f"mode {payload['mode']}, seed {payload['seed']})"
            )
            emit()
            if task_result.get("summary"):
                emit(task_result["summary"])
                emit()
            emit(f"Params: `{task_result['params']}`")
            emit()
            for line in _record_table(task_result):
                emit(line)
    emit()
    return out.getvalue()


def load_payloads(directory: Path | str) -> dict[str, dict]:
    """``{area: payload}`` for every ``BENCH_<area>.json`` in a directory."""
    payloads = (
        load_payload(path)
        for path in sorted(Path(directory).glob(bench_filename("*")))
    )
    return {payload["area"]: payload for payload in payloads}
