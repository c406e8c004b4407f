"""One real smoke run of every registered task, through the CLI."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.cli import main
from repro.bench.registry import all_tasks, areas
from repro.bench.report import load_payloads, render_payloads
from repro.bench.schema import FILE_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    """``run all --smoke`` once; every test inspects the output."""
    out = tmp_path_factory.mktemp("bench-smoke")
    code = main([
        "run", "all", "--smoke", "--quiet", "--out-dir", str(out),
    ])
    assert code == 0
    return out


def _payloads(smoke_dir):
    return list(load_payloads(smoke_dir).values())


def test_every_area_emits_a_file(smoke_dir):
    produced = {p["area"] for p in _payloads(smoke_dir)}
    assert produced == set(areas())


def test_every_task_emits_records(smoke_dir):
    ran = {
        t["task"]: t
        for p in _payloads(smoke_dir)
        for t in p["tasks"]
    }
    assert set(ran) == {t.name for t in all_tasks()}
    for name, entry in ran.items():
        assert entry["records"], f"{name} produced no records"


def test_schema_tags_present(smoke_dir):
    for payload in _payloads(smoke_dir):
        assert payload["schema"] == FILE_SCHEMA
        assert payload["mode"] == "smoke"
        assert payload["environment"].get("python")
        for entry in payload["tasks"]:
            assert entry["schema"] >= 1


def test_smoke_files_match_committed_areas(smoke_dir):
    """The committed files cover exactly the registered areas."""
    assert set(load_payloads(REPO_ROOT)) == set(areas())


def test_experiments_md_is_the_committed_files_rendered(capsys):
    """``report`` runs nothing: EXPERIMENTS.md is the committed
    ``BENCH_<area>.json`` files (all written by ``run all --full``),
    rendered - through the function and through the CLI alike."""
    committed = load_payloads(REPO_ROOT)
    assert {p["mode"] for p in committed.values()} == {"full"}
    experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert experiments == render_payloads(committed)
    assert main(["report", "--dir", str(REPO_ROOT)]) == 0
    assert capsys.readouterr().out == experiments
