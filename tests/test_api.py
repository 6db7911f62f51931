"""The public surface: every module's ``__all__`` and the package exports."""

import ast
import importlib
import pkgutil

import pytest

import qclab

MODULES = sorted(m.name for m in pkgutil.iter_modules(qclab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"qclab.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_package_export_is_in_its_modules_all():
    tree = ast.parse(open(qclab.__file__).read())
    exports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert {module for module, _ in exports} <= set(MODULES)
    for module, name in exports:
        assert name in importlib.import_module(f"qclab.{module}").__all__, f"{module}.{name}"
        assert getattr(qclab, name) is getattr(importlib.import_module(f"qclab.{module}"), name)


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    # a use is a name in the code (annotations included) or an entry of __all__
    tree = ast.parse(open(importlib.import_module(f"qclab.{name}").__file__).read())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(importlib.import_module(f"qclab.{name}").__all__)
    assert sorted(imported - used) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_a_truth_table_one_bit_at_a_time(name):
    # value_at is the scalar accessor and the tests' oracle; programs read a
    # table through table_array and build one through boolfunc._from_bits
    tree = ast.parse(open(importlib.import_module(f"qclab.{name}").__file__).read())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "value_at"]
    assert calls == []
