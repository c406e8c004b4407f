"""Meta-tests on the public API surface.

Enforces the documentation deliverable mechanically: every public
module, class and function carries a docstring; every name a module
exports through ``__all__`` actually resolves; and the top-level
package re-exports the primary entry points.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[1]
API_REFERENCE = REPO_ROOT / "docs" / "API.md"

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} undocumented"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    """Every exported class/function has a docstring, and every public
    method on exported classes does too."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if item.__module__ != module_name:
            continue  # re-export; documented at definition site
        assert inspect.getdoc(item), f"{module_name}.{name}"
        if inspect.isclass(item):
            for method_name in dir(item):
                if method_name.startswith("_"):
                    continue
                member = inspect.getattr_static(item, method_name)
                if not isinstance(member, (staticmethod, classmethod)) and not (
                    inspect.isfunction(member)
                ):
                    continue
                # getdoc resolves docstrings inherited from the base
                # class, so a documented-ABC override passes.
                assert inspect.getdoc(getattr(item, method_name)), (
                    f"{module_name}.{name}.{method_name}"
                )


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "name",
        [
            "PublicParams",
            "join_tables",
            "Table",
            "ValueMultiset",
        ],
    )
    def test_primary_entry_points(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__

    def test_subpackages_importable(self):
        for sub in ("crypto", "db", "net", "protocols", "circuits",
                    "analysis", "apps", "workloads"):
            importlib.import_module(f"repro.{sub}")


#: The one-call facade: the documented way in and out of the package.
FACADE = ["run", "serve", "connect", "RunResult", "ServeResult",
          "ConnectResult"]

#: Packages whose ``__all__`` is the audited public surface.
AUDITED = ["repro", "repro.net", "repro.protocols", "repro.crypto"]


class TestFacadeSurface:
    """The facade, ``docs/API.md`` and ``__all__`` must agree."""

    @pytest.mark.parametrize("name", FACADE)
    def test_facade_is_the_top_level_export(self, name):
        assert name in repro.__all__
        api = importlib.import_module("repro.api")
        assert getattr(repro, name) is getattr(api, name)
        assert name in api.__all__

    def test_facade_leads_the_export_list(self):
        """The redesigned entry points come first: the quickstart names
        a reader sees are the first names ``__all__`` advertises."""
        assert repro.__all__[: len(FACADE)] == FACADE

    @pytest.mark.parametrize("module_name", AUDITED)
    def test_all_has_no_duplicates(self, module_name):
        module = importlib.import_module(module_name)
        exports = list(getattr(module, "__all__"))
        assert len(exports) == len(set(exports)), f"{module_name}.__all__"

    def test_removed_tcp_shims_stay_removed(self):
        net = importlib.import_module("repro.net")
        for name in net.__all__:
            assert not (
                name.startswith(("serve_", "connect_"))
                and name not in (
                    "serve_resumable_sender", "connect_resumable_receiver",
                )
            ), f"per-protocol shim {name} resurfaced in repro.net.__all__"

    def test_removed_in_process_drivers_stay_removed(self):
        """``repro.run`` over ``protocols.spec.run_pair`` is the one
        in-process driver: no per-protocol ``run_<name>`` wrapper or
        ``<Name>Result`` class for any registered protocol, no parameter
        suite, and no module that held nothing else."""
        from repro.protocols.spec import PROTOCOLS

        full = [spec.name for spec in PROTOCOLS.values() if spec.delta_of is None]
        removed = {"ProtocolSuite", "DEFAULT_BITS", "_suite_rngs", "run_recorded"}
        for name in full:
            removed.add("run_" + name.replace("-", "_"))
            removed.add(name.title().replace("-", "") + "Result")
        assert {"run_equijoin_sum", "IntersectionSizeResult"} <= removed
        for module_name in ("repro", "repro.protocols", "repro.protocols.base"):
            module = importlib.import_module(module_name)
            names = set(vars(module)) | set(getattr(module, "__all__", ()))
            assert not removed & names, f"{module_name}: {sorted(removed & names)}"
        parties = importlib.import_module("repro.protocols.parties")
        assert not hasattr(parties.CryptoContext, "from_suite")
        for gone in ("intersection", "intersection_size", "equijoin_size",
                     "aggregate"):
            assert importlib.util.find_spec(f"repro.protocols.{gone}") is None

    def _generated_reference(self) -> str:
        spec = importlib.util.spec_from_file_location(
            "make_api_reference",
            REPO_ROOT / "tools" / "make_api_reference.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.generate()

    def test_api_reference_matches_the_code(self):
        """``docs/API.md`` is exactly what the generator derives from
        the live ``__all__`` lists - docs and surface cannot drift."""
        assert API_REFERENCE.read_text() == self._generated_reference()

    def test_facade_documented_in_api_reference(self):
        text = API_REFERENCE.read_text()
        assert "## `repro.api`" in text
        section = text.split("## `repro.api`", 1)[1].split("\n## ", 1)[0]
        for name in FACADE:
            assert name in section, f"facade {name} missing from docs/API.md"
        for removed in ("serve_intersection_sender",
                        "connect_equijoin_receiver"):
            assert removed not in text
