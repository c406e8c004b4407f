"""Render what ``perf/run.py`` wrote to ``perf/out/``.

Viewing never re-runs a workload: the tables come from the result
files (``<workload>-timed.json``, ``<workload>-traced.json``) and the
span files (``trace-<workload>.jsonl``) alone.

    python3 perf/report.py [workload ...]
    python3 perf/report.py --baseline > perf/baseline.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

PERF = Path(__file__).resolve().parent
OUT = PERF / "out"
sys.path.insert(0, str(PERF))

from spans import load_spans, self_times  # noqa: E402


def load(names: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """``{workload: {"timed": ..., "traced": ..., "spans": [...]}}`` for
    the named workloads (default: every one with a result file)."""
    if not names:
        names = sorted(
            path.name.removesuffix("-timed.json")
            for path in OUT.glob("*-timed.json")
            if not path.name.startswith("tiny-")
        )
    data = {}
    for name in names:
        entry: dict[str, Any] = {}
        for kind in ("timed", "traced"):
            path = OUT / f"{name}-{kind}.json"
            if path.is_file():
                entry[kind] = json.loads(path.read_text())
        spans = OUT / f"trace-{name}.jsonl"
        if spans.is_file():
            entry["spans"] = load_spans(spans)
        data[name] = entry
    return data


def where_the_time_goes(spans: list[dict[str, Any]]) -> list[str]:
    """Per kind of operation: each span name's self time (its duration
    minus what its children cover) as a share of the operations' time."""
    by_id = {span["id"]: span for span in spans}
    self_s = self_times(spans)

    def root_of(span: dict[str, Any]) -> dict[str, Any]:
        while span["parent"] is not None:
            span = by_id[span["parent"]]
        return span

    kinds: dict[str, dict[str, Any]] = {}
    for span in spans:
        root = root_of(span)
        kind = kinds.setdefault(
            root["name"] if root["op_id"] is not None else "(outside operations)",
            {"ops": 0, "total": 0.0, "rows": {}},
        )
        if span is root:
            kind["ops"] += 1
            kind["total"] += span["end"] - span["start"]
        row = kind["rows"].setdefault(span["name"], [0, 0.0])
        row[0] += 1
        row[1] += self_s[span["id"]]
    lines = []
    for name, kind in kinds.items():
        lines.append(
            f"  {name}: {kind['ops']} operation(s), {kind['total']:.4f} s"
        )
        for row, (count, seconds) in sorted(
            kind["rows"].items(), key=lambda item: -item[1][1]
        ):
            lines.append(
                f"    {row:42s} {count:7d} spans {seconds:10.4f} s "
                f"{seconds / kind['total']:7.1%}"
            )
    return lines


def render(data: dict[str, dict[str, Any]]) -> str:
    lines = ["", "== end to end (tracing off) =="]
    timed = {name: entry["timed"] for name, entry in data.items() if "timed" in entry}
    if timed:
        metrics = list(next(iter(timed.values()))["metrics"])
        lines.append(f"{'metric':28s}" + "".join(f"{name:>16s}" for name in timed))
        for metric in metrics:
            unit = next(iter(timed.values()))["metrics"][metric]["unit"]
            lines.append(f"{metric + ' [' + unit + ']':28s}" + "".join(
                f"{result['metrics'][metric]['value']:16.6g}"
                for result in timed.values()
            ))
        for name in ("query_s", "query_tail_s", "queries_per_s", "ce_us"):
            lines.append(f"{'(' + name + ', not gated)':28s}" + "".join(
                f"{result['detail']['as_measured'].get(name, float('nan')):16.6g}"
                for result in timed.values()
            ))
        lines.append(f"{'failed/attempted':28s}" + "".join(
            f"{str(result['failed']) + '/' + str(result['attempted']):>16s}"
            for result in timed.values()
        ))
    for name, entry in data.items():
        traced = entry.get("traced")
        if traced is None:
            continue
        lines += ["", f"== {name}: per layer (traced pass) =="]
        unresolved = traced["detail"].get("ladder", {}).get("unresolved", [])
        for metric, value in traced["metrics"].items():
            if metric in unresolved:
                lines.append(f"  {metric:45s} unresolved (smaller than the spread of its two rungs)")
            elif value["value"]:
                lines.append(f"  {metric:45s} {value['value']:.6g} {value['unit']}")
        rungs = traced["detail"].get("ladder", {}).get("rungs", {})
        for rung, quartiles in rungs.items():
            lines.append(
                f"  ladder rung {rung:8s} n={quartiles['n']} "
                f"q1={quartiles['q1']:.3f} median={quartiles['median']:.3f} "
                f"q3={quartiles['q3']:.3f} ms"
            )
        if "paper_wire_bytes" in traced["detail"]:
            lines.append(
                f"  paper's (n_S+2n_R)*k/8 = {traced['detail']['paper_wire_bytes']} bytes"
            )
        if "spans" in entry:
            lines += [
                f"-- {name}: where the time goes (self time per span name; the "
                "operation's own row is time no span explains; two parties "
                "computing at once add up to more than 100%) --"
            ]
            lines += where_the_time_goes(entry["spans"])
    return "\n".join(lines)


def baseline(data: dict[str, dict[str, Any]]) -> str:
    """The committed record: every workload's metrics (timed and traced),
    sample counts and environment, without the raw samples."""
    record = {}
    for name, entry in data.items():
        record[name] = {
            kind: {
                "metrics": {
                    metric: value["value"]
                    for metric, value in entry[kind]["metrics"].items()
                },
                "attempted": entry[kind]["attempted"],
                "failed": entry[kind]["failed"],
                "seed": entry[kind]["seed"],
                "seconds": entry[kind]["seconds"],
                "sizes": entry[kind]["sizes"],
                "environment": entry[kind]["environment"],
            }
            for kind in ("timed", "traced")
        }
        record[name]["ladder"] = entry["traced"]["detail"].get("ladder")
        record[name]["as_measured"] = entry["timed"]["detail"]["as_measured"]
    return json.dumps(record, indent=2, sort_keys=True)


if __name__ == "__main__":
    arguments = sys.argv[1:]
    if arguments[:1] == ["--baseline"]:
        print(baseline(load(arguments[1:])))
    else:
        print(render(load(arguments)))
