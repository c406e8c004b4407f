"""Tests of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest perf/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

PERF = Path(__file__).resolve().parent.parent
REPO = PERF.parent
sys.path[:0] = [str(REPO / "src"), str(PERF)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_py(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args], cwd=cwd, text=True,
        capture_output=True, timeout=120,
    )


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert spans.percentile(samples, 50) == 100
    assert spans.percentile(samples, 95) == 190  # exactly ten beyond


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="9 beyond"):
        spans.percentile(range(199), 95)
    with pytest.raises(ValueError):
        spans.percentile(range(250), 99)
    assert spans.percentile(range(250), 95) == 237  # twelve beyond


def test_too_few_operations_for_a_percentile_report_their_median_as_the_tail():
    slices = [([0.5], 0.6, 0.001), ([0.7], 0.8, 0.001), ([0.6], 0.7, 0.001)]
    assert workloads.priced(slices, 100, None) == {
        "model_ratio": pytest.approx(6.0), "tail_ratio": pytest.approx(6.0),
    }
    with pytest.raises(ValueError):
        workloads.priced(slices, 100, 95)
    assert workloads.as_measured(slices, None) == {
        "query_s": 0.6, "queries_per_s": pytest.approx(3 / 2.1),
        "ce_us": pytest.approx(1000),
    }


def test_a_slow_box_moves_seconds_but_not_the_price():
    calm = [0.010 + 0.00001 * i for i in range(250)]
    slow = [1.5 * x for x in calm]
    steady = workloads.priced([(calm, 2.5, 0.0001)], 16, 95)
    drifting = workloads.priced(
        [(calm, 2.5, 0.0001), (slow, 3.75, 0.00015)], 16, 95
    )
    assert drifting == {key: pytest.approx(value) for key, value in steady.items()}
    assert workloads.as_measured(
        [(calm, 2.5, 0.0001), (slow, 3.75, 0.00015)], 95
    )["query_s"] > workloads.as_measured([(calm, 2.5, 0.0001)], 95)["query_s"]


def test_ce_probe_reads_the_median_of_a_batch():
    import random

    probe = harness.CeProbe(128, random.Random(3), residues=8)
    first, second = probe.read(), probe.read()
    assert probe.readings == [first, second] and min(first, second) > 0
    probe.settle(0.0)
    assert len(probe.readings) == 3
    assert probe.batch == 100 and harness.CeProbe(1024, random.Random(3), 1).batch == 25


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def span(id_, name, start, end, parent=None, op_id="op"):
    return {"id": id_, "name": name, "start": start, "end": end,
            "parent": parent, "op_id": op_id, "count": 0}


def test_self_time_is_duration_minus_what_children_cover():
    records = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),    # overlaps a: union is 1..6
        span(3, "c", 8.0, 9.0, parent=0),
        span(4, "a.inner", 1.5, 2.0, parent=1),
        span(5, "late", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    self_s = spans.self_times(records)
    assert self_s[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert self_s[1] == pytest.approx(2.5)
    assert self_s[2] == pytest.approx(3.0)
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)


def test_tracer_links_parents_ops_and_other_threads():
    tracer = spans.Tracer()
    with tracer.op("query", "op-1") as root:
        with tracer.span("inner") as inner:
            pass

        def prefetch() -> None:
            with tracer.span("prefetch", "op-1", root["id"]):
                pass

        worker = threading.Thread(target=prefetch)
        worker.start()
        worker.join()
    by_name = {record["name"]: record for record in tracer.spans}
    assert inner["parent"] == root["id"] and inner["op_id"] == "op-1"
    assert by_name["prefetch"]["parent"] == root["id"]
    assert root["end"] >= inner["end"] >= inner["start"] >= root["start"]


def test_spans_of_another_process_merge_under_their_operation(tmp_path):
    child = spans.Tracer()
    with child.span("s.round1", op_id="op-1"):
        with child.span("pow_many"):
            pass
    child.dump(tmp_path / "child.jsonl", extra={"writes": 3})
    parent = spans.Tracer()
    with parent.op("query", "op-1") as root:
        pass
    assert parent.absorb(tmp_path / "child.jsonl") == {"writes": 3}
    merged = {record["name"]: record for record in parent.spans}
    assert merged["s.round1"]["parent"] == root["id"]
    assert merged["pow_many"]["parent"] == merged["s.round1"]["id"]
    assert len({record["id"] for record in parent.spans}) == 3


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_oracle_counts_a_wrong_answer_and_an_exception(capsys):
    tally = harness.Tally(seed=7)
    ok, _ = tally.timed("good", {"a"}, lambda: SimpleNamespace(answer={"a"}))
    wrong, _ = tally.timed("wrong", {"a"}, lambda: SimpleNamespace(answer={"a", "b"}))
    raised, _ = tally.timed("raised", {"a"}, lambda: 1 / 0)
    assert ok is not None and wrong is None and raised is None
    assert (tally.attempted, tally.failed) == (3, 2)
    printed = capsys.readouterr().out
    assert "seed 7" in printed and "wrong" in printed and "ZeroDivisionError" in printed


# ----------------------------------------------------------------------
# Names: BENCHMARK.json, perf/run.py --list and workloads.py agree
# ----------------------------------------------------------------------
def test_names_are_well_formed_and_agree():
    listed = [line.split() for line in run_py("--list").stdout.splitlines()]
    declared = (
        [["workload", w["name"]] for w in BENCHMARK["workloads"]]
        + [["end_to_end", m["name"], m["unit"]] for m in BENCHMARK["end_to_end"]]
        + [["per_layer", m["name"], m["unit"]] for m in BENCHMARK["per_layer"]]
    )
    assert listed == declared
    names = [row[1] for row in listed]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)


def test_bounds_and_directions_agree():
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in BENCHMARK["end_to_end"]
    ] == list(workloads.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(workloads.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert BENCHMARK["paths"] == ["perf"]


# ----------------------------------------------------------------------
# Dry run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_dry_run_emits_every_declared_metric(workload, trace):
    done = run_py(
        "--workload", workload, "--seed", "5", "--seconds", "0",
        "--trace", trace, "--tiny",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(
        PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = run_py(
        "--workload", "psi-1024", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
