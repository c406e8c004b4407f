"""Registry behavior: naming, collisions, lookup, and selection."""

from __future__ import annotations

import pytest

from repro.bench.registry import (
    DuplicateTaskError,
    UnknownTaskError,
    all_tasks,
    areas,
    get_task,
    register,
    select_tasks,
)
from repro.bench.registry import _REGISTRY


@pytest.fixture
def scratch_registry(monkeypatch):
    """An isolated registry so test registrations never leak.

    The real task modules are imported first: ``load_all_tasks`` relies
    on the import cache for idempotence, so importing them while the
    scratch dict is active would lose their registrations for good.
    """
    from repro.bench.registry import load_all_tasks

    load_all_tasks()
    monkeypatch.setattr("repro.bench.registry._REGISTRY", {})
    return None


def _noop(ctx):
    return [{"id": "only"}]


class TestRegistration:
    def test_register_returns_the_function(self, scratch_registry):
        decorated = register("area.task", smoke={}, full={})(_noop)
        assert decorated is _noop
        assert get_task("area.task").fn is _noop

    def test_duplicate_name_rejected(self, scratch_registry):
        register("area.task", smoke={}, full={})(_noop)
        with pytest.raises(DuplicateTaskError, match="area.task"):
            register("area.task", smoke={}, full={})(_noop)

    @pytest.mark.parametrize("name", [
        "NoDots", "UPPER.case", "area.", ".task", "area.task.extra",
        "area.task_snake", "a rea.task",
    ])
    def test_malformed_names_rejected(self, scratch_registry, name):
        with pytest.raises(ValueError, match="kebab-case"):
            register(name, smoke={}, full={})(_noop)

    def test_area_is_the_prefix(self, scratch_registry):
        register("area.task-name", smoke={}, full={})(_noop)
        task = get_task("area.task-name")
        assert task.area == "area"

    def test_params_for_knows_two_modes(self, scratch_registry):
        register("a.t", smoke={"n": 1}, full={"n": 9})(_noop)
        task = get_task("a.t")
        assert task.params_for("smoke") == {"n": 1}
        assert task.params_for("full") == {"n": 9}
        with pytest.raises(ValueError, match="unknown mode"):
            task.params_for("report")


class TestLookup:
    def test_unknown_task_suggests_neighbours(self, scratch_registry):
        register("crypto.collision-bound", smoke={}, full={})(_noop)
        with pytest.raises(UnknownTaskError) as excinfo:
            get_task("crypto.colision-bound")
        assert "crypto.collision-bound" in str(excinfo.value)

    def test_select_by_task_area_and_all(self, scratch_registry):
        for name in ("a.one", "a.two", "b.one"):
            register(name, smoke={}, full={})(_noop)
        assert [t.name for t in select_tasks("a.one")] == ["a.one"]
        assert [t.name for t in select_tasks("a")] == ["a.one", "a.two"]
        assert [t.name for t in select_tasks("all")] == [
            "a.one", "a.two", "b.one"
        ]

    def test_select_comma_union_deduplicates(self, scratch_registry):
        for name in ("a.one", "a.two", "b.one"):
            register(name, smoke={}, full={})(_noop)
        names = [t.name for t in select_tasks("b,a.one,b.one")]
        assert names == ["a.one", "b.one"]

    def test_select_unknown_raises(self, scratch_registry):
        register("a.one", smoke={}, full={})(_noop)
        with pytest.raises(UnknownTaskError):
            select_tasks("nope")


class TestRealRegistry:
    """The shipped task set, loaded for real."""

    def test_loads_and_is_plentiful(self):
        tasks = all_tasks()
        assert len(tasks) >= 20
        assert len(areas()) >= 8
        assert _REGISTRY  # loaded by side effect

    def test_every_task_has_a_summary(self):
        for task in all_tasks():
            assert task.summary, task.name
            assert task.schema >= 1, task.name

    def test_task_names_are_exactly_these(self):
        """What ``perf/`` or a tier-1 test already measures has no task
        here; a name added or dropped is a decision, made in this list."""
        assert [t.name for t in all_tasks()] == [
            "apps.document-sharing",
            "apps.medical",
            "attacks.naive-dictionary",
            "attacks.sorting-ablation",
            "circuits.garbling",
            "circuits.yao-empirical",
            "costmodel.appendix-a-comparison",
            "costmodel.appendix-a-gates",
            "costmodel.appendix-a-ot",
            "costmodel.section6-communication",
            "costmodel.section6-computation",
            "crypto.collision-bound",
            "crypto.hash-construction",
            "crypto.hash-throughput",
            "crypto.keysize-ablation",
            "leakage.duplicate-distributions",
            "parallelism.batch-speedup",
            "parallelism.engine-sweep",
            "protocols.extensions",
            "protocols.multiset-join",
            "protocols.scaling",
        ]

    def test_removed_names_stay_removed(self):
        """The shim entry point and the seconds-based gate are gone:
        ``perf/`` is the one place a timing regression is judged."""
        import repro.bench
        import repro.bench.cli

        for name in ("legacy_main", "compare_payloads", "Comparison",
                     "load_baseline"):
            assert not hasattr(repro.bench, name), name
            assert not hasattr(repro.bench.cli, name), name
        assert "{list,run,report}" in repro.bench.cli.build_parser().format_help()
