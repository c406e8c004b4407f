"""Runner discipline: determinism, record validation, timing control."""

from __future__ import annotations

import random

import pytest

from repro.bench.registry import BenchTask
from repro.bench.runner import RunContext, run_selection, write_bench_files
from repro.bench.schema import FILE_SCHEMA, load_payload, strip_volatile


def _task(fn, name="demo.thing", **kwargs):
    defaults = dict(
        smoke={"n": 4}, full={"n": 16}, summary="a demo",
    )
    defaults.update(kwargs)
    return BenchTask(name=name, fn=fn, **defaults)


def _seeded(ctx):
    return [{
        "id": f"r{i}",
        "draw": ctx.rng.randrange(10**9),
        "n": ctx.param("n"),
        "metrics": {"elapsed_s": random.random()},
    } for i in range(3)]


class TestDeterminism:
    def test_same_seed_same_payload_modulo_volatile(self):
        """The core guarantee: reruns are identical once the
        environment block and wall-clock metrics are stripped."""
        tasks = [_task(_seeded)]
        first = run_selection(tasks, seed=7)["demo"]
        second = run_selection(tasks, seed=7)["demo"]
        assert strip_volatile(first) == strip_volatile(second)
        # ... while the raw payloads differ (random metrics above).
        assert first != second

    def test_different_seed_different_stream(self):
        tasks = [_task(_seeded)]
        a = run_selection(tasks, seed=7)["demo"]
        b = run_selection(tasks, seed=8)["demo"]
        assert strip_volatile(a) != strip_volatile(b)

    def test_task_stream_independent_of_selection(self):
        """Adding a second task must not shift the first one's rng."""

        def draws(payload):
            (entry,) = [
                t for t in payload["tasks"] if t["task"] == "demo.thing"
            ]
            return [r["draw"] for r in entry["records"]]

        other = _task(lambda ctx: [{"id": "x"}], name="demo.other")
        alone = run_selection([_task(_seeded)], seed=7)["demo"]
        together = run_selection([other, _task(_seeded)], seed=7)["demo"]
        assert draws(alone) == draws(together)


class TestRecordValidation:
    def test_missing_id_rejected(self):
        task = _task(lambda ctx: [{"n": 1}])
        with pytest.raises(ValueError, match="needs an 'id'"):
            run_selection([task])

    def test_duplicate_id_rejected(self):
        task = _task(lambda ctx: [{"id": "a"}, {"id": "a"}])
        with pytest.raises(ValueError, match="duplicate record id"):
            run_selection([task])

    def test_non_dict_metrics_rejected(self):
        task = _task(lambda ctx: [{"id": "a", "metrics": 3.0}])
        with pytest.raises(ValueError, match="metrics"):
            run_selection([task])


class TestModesAndTiming:
    def test_mode_selects_params_and_timing_defaults(self):
        seen = {}

        def peek(ctx):
            seen.update(
                n=ctx.param("n"), warmup=ctx.warmup, repeat=ctx.repeat
            )
            return [{"id": "only"}]

        run_selection([_task(peek)], mode="smoke")
        assert seen == {"n": 4, "warmup": 0, "repeat": 1}
        run_selection([_task(peek)], mode="full")
        assert seen == {"n": 16, "warmup": 1, "repeat": 3}

    def test_explicit_warmup_repeat_override(self):
        seen = {}

        def peek(ctx):
            seen.update(warmup=ctx.warmup, repeat=ctx.repeat)
            return [{"id": "only"}]

        run_selection([_task(peek)], mode="smoke", warmup=2, repeat=5)
        assert seen == {"warmup": 2, "repeat": 5}

    def test_timeit_returns_result_and_best_seconds(self):
        ctx = RunContext(params={}, rng=random.Random(0), repeat=3)
        calls = []
        result, best = ctx.timeit(lambda: calls.append(0) or "value")
        assert result == "value"
        assert len(calls) == 3
        assert best >= 0.0


class TestArtifacts:
    def test_payload_shape(self):
        payload = run_selection([_task(_seeded)], seed=7)["demo"]
        assert payload["schema"] == FILE_SCHEMA
        assert payload["area"] == "demo"
        assert payload["mode"] == "smoke"
        assert payload["seed"] == 7
        assert "python" in payload["environment"]
        (task,) = payload["tasks"]
        assert task["task"] == "demo.thing"
        assert sorted(task) == [
            "params", "records", "schema", "summary", "task",
        ]

    def test_write_bench_files_round_trips(self, tmp_path):
        by_area = run_selection([_task(_seeded)], seed=7)
        (path,) = write_bench_files(by_area, tmp_path)
        assert path.name == "BENCH_demo.json"
        assert load_payload(path) == by_area["demo"]
        # File hygiene: sorted keys, trailing newline (clean diffs).
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text.index('"area"') < text.index('"schema"')
