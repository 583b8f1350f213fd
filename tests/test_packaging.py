"""The package's third-party imports are exactly its declared dependencies,
its exports are its modules' exports, its modules share only what they
export (and an allowlist), and its array records compare by identity."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chiralchain"


def imported_top_levels(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    imported = set().union(*map(imported_top_levels, PACKAGE.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"chiralchain"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    # a requirement's distribution name, cut before any version specifier
    assert third_party == {re.split(r"[\s<>=!~;\[]", req)[0] for req in declared}
    assert third_party == {"numpy"}


def test_package_exports_are_the_modules_exports():
    import chiralchain
    modules = sorted(path.stem for path in PACKAGE.glob("*.py")
                     if path.stem not in ("__init__", "cli"))
    exported = set().union(*(
        importlib.import_module(f"chiralchain.{name}").__all__ for name in modules))
    # sorted lists, not sets: a name listed twice fails too
    assert sorted(chiralchain.__all__) == sorted(exported | {"__version__"})


def sibling_imports(path):
    """(sibling module, name) of every from-import of a sibling module."""
    return {(node.module, alias.name)
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module
            for alias in node.names}


# private names one module may take from another: the CLI's grid cap and
# table writer, and specfun, the kernels' private Bessel core by design
SHARED_PRIVATE_NAMES = {
    "cli": {("dynamics", "_MAX_POINTS"), ("reprs", "_write_csv")},
    "kernels": {("specfun", name) for name in (
        "_EULER_GAMMA", "_SERIES_COEF", "_SERIES_DENOM", "_bessel_columns",
        "_power_series")},
}


def test_modules_share_only_what_they_export():
    shared = {}
    for path in PACKAGE.glob("*.py"):
        imports = sibling_imports(path)
        private = {(module, name) for module, name in imports
                   if name.startswith("_")}
        if private:
            shared[path.stem] = private
        if path.stem == "analysis":
            # ensembles run in dynamics; analysis reads the records
            assert {module for module, _ in imports} == {"dynamics", "errors"}
    assert shared == SHARED_PRIVATE_NAMES


def test_array_records_compare_by_identity():
    # a field-wise == on ndarray fields raises instead of answering, and a
    # frozen record with it has no hash
    records = 0
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"chiralchain.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls)
                    and any("ndarray" in str(field.type)
                            for field in dataclasses.fields(cls))):
                records += 1
                assert not cls.__dataclass_params__.eq, cls.__qualname__
    assert records == 4
