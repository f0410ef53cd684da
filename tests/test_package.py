"""The package re-exports the public names of its modules, each once, and
depends on nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import satiab
from satiab import allocator, linkbudget, ratemodel


def test_package_exports_every_public_name_of_its_modules():
    for module in (linkbudget, ratemodel, allocator):
        for name in module.__all__:
            assert getattr(satiab, name) is getattr(module, name), f"{module.__name__}.{name}"
            assert name in satiab.__all__
    assert len(satiab.__all__) == len(set(satiab.__all__))
    assert set(satiab.__all__) == {*linkbudget.__all__, *ratemodel.__all__, *allocator.__all__}


def test_modules_import_only_the_standard_library_numpy_and_satiab():
    allowed = {*sys.stdlib_module_names, "numpy", "satiab"}
    paths = sorted(Path(satiab.__file__).parent.rglob("*.py"))
    assert len(paths) >= 5
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # level > 0: within satiab
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
