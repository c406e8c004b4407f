"""The benchmark task registry: named tasks, one lookup surface.

A :class:`BenchTask` is a named, parameterized experiment —
``<area>.<name>`` (the area prefix groups tasks into one
``BENCH_<area>.json`` artifact each). Task modules under
:mod:`repro.bench.tasks` register themselves at import time via the
:func:`register` decorator; :func:`load_all_tasks` imports them all,
and the CLI resolves ``run <task|area|all>`` through
:func:`select_tasks`.
"""

from __future__ import annotations

import difflib
import importlib
import pkgutil
import re
from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = [
    "BenchTask",
    "DuplicateTaskError",
    "UnknownTaskError",
    "all_tasks",
    "areas",
    "get_task",
    "load_all_tasks",
    "register",
    "select_tasks",
]

#: Task names are ``<area>.<task>``, kebab-case on both sides.
_NAME_RE = re.compile(r"^[a-z][a-z0-9-]*\.[a-z][a-z0-9-]*$")


class DuplicateTaskError(ValueError):
    """Raised when two tasks register under the same name."""


class UnknownTaskError(KeyError):
    """Raised when a selector matches neither a task nor an area."""

    def __init__(self, selector: str, candidates: list[str]):
        self.selector = selector
        self.candidates = candidates
        hint = f"; did you mean {', '.join(candidates)}?" if candidates else ""
        super().__init__(
            f"no task or area named {selector!r}{hint} "
            "(see `python -m repro.bench list`)"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        """The plain message (KeyError would repr-quote it)."""
        return self.args[0]


@dataclass(frozen=True)
class BenchTask:
    """One registered experiment.

    ``fn(ctx)`` receives a :class:`~repro.bench.runner.RunContext`
    (seeded rng + the mode's params) and returns a list of record
    dicts per the :mod:`repro.bench.schema` discipline: a unique
    ``id``, deterministic facts at the top level, measured values
    under ``metrics``.
    """

    #: Full name, ``<area>.<task>``.
    name: str
    #: The experiment body; returns the record list.
    fn: Callable[[Any], list[dict]]
    #: Tiny parameters: seconds-scale, used by CI and the smoke tests.
    smoke: Mapping[str, Any]
    #: Real parameters: the scale of the committed files.
    full: Mapping[str, Any]
    #: Record-shape version; bump when record fields change meaning.
    schema: int = 1
    #: One-line description shown by ``list`` and in the report.
    summary: str = ""

    @property
    def area(self) -> str:
        """The artifact group: everything before the first dot."""
        return self.name.split(".", 1)[0]

    def params_for(self, mode: str) -> dict[str, Any]:
        """The parameter set for a run mode: ``smoke`` or ``full``."""
        if mode not in ("smoke", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        return dict(self.smoke if mode == "smoke" else self.full)


#: name -> task. Populated by :func:`register` at task-module import.
_REGISTRY: dict[str, BenchTask] = {}


def register(
    name: str,
    *,
    smoke: Mapping[str, Any],
    full: Mapping[str, Any],
    schema: int = 1,
    summary: str = "",
) -> Callable[[Callable], Callable]:
    """Decorator registering a task function under ``name``.

    Raises :class:`DuplicateTaskError` on a name collision and
    ``ValueError`` for names not shaped ``<area>.<task>``.
    """
    if not _NAME_RE.match(name):
        raise ValueError(
            f"task name {name!r} must be kebab-case '<area>.<task>'"
        )

    def wrap(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise DuplicateTaskError(
                f"benchmark task {name!r} is already registered "
                f"(by {_REGISTRY[name].fn.__module__})"
            )
        _REGISTRY[name] = BenchTask(
            name=name, fn=fn, smoke=smoke, full=full,
            schema=schema, summary=summary,
        )
        return fn

    return wrap


def load_all_tasks() -> None:
    """Import every module under :mod:`repro.bench.tasks` (idempotent)."""
    from . import tasks

    for info in pkgutil.iter_modules(tasks.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"{tasks.__name__}.{info.name}")


def all_tasks() -> list[BenchTask]:
    """Every registered task, sorted by name."""
    load_all_tasks()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def areas() -> list[str]:
    """Every area with at least one registered task, sorted."""
    return sorted({task.area for task in all_tasks()})


def get_task(name: str) -> BenchTask:
    """Look one task up by full name."""
    load_all_tasks()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownTaskError(name, _close_matches(name)) from None


def _close_matches(selector: str) -> list[str]:
    """Likely-intended names for a typo'd selector, as a hint."""
    names = sorted(_REGISTRY)
    fragment = selector.split(".")[-1]
    hits = [n for n in names if fragment and fragment in n]
    for near in difflib.get_close_matches(selector, names, n=4):
        if near not in hits:
            hits.append(near)
    return hits[:4]


def select_tasks(selector: str) -> list[BenchTask]:
    """Resolve ``run``'s selector: a task name, an area, or ``all``.

    Comma-separated selectors union their matches (ordered, deduped).
    """
    load_all_tasks()
    chosen: dict[str, BenchTask] = {}
    for part in filter(None, (s.strip() for s in selector.split(","))):
        if part == "all":
            for task in all_tasks():
                chosen[task.name] = task
        elif part in _REGISTRY:
            chosen[part] = _REGISTRY[part]
        else:
            by_area = [t for t in all_tasks() if t.area == part]
            if not by_area:
                raise UnknownTaskError(part, _close_matches(part))
            for task in by_area:
                chosen[task.name] = task
    if not chosen:
        raise UnknownTaskError(selector, [])
    return sorted(chosen.values(), key=lambda t: t.name)
