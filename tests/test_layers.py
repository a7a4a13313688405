"""The package's shape, read from its source with ``ast``.

Each layer asks only the layers below it: ``linalg`` holds the exact
kernels, ``fans`` and ``groups`` sit on it side by side, ``gale`` joins
them, ``classify`` reads its answers off both sides of the duality, and
``jsonio`` and ``cli`` speak to the outside.
"""

from __future__ import annotations

import ast
from pathlib import Path

import galefan

PACKAGE = Path(galefan.__file__).parent

LAYERS = {
    "_record": set(),
    "errors": set(),
    "linalg": {"_record", "errors"},
    "fans": {"_record", "errors", "linalg"},
    "groups": {"_record", "errors", "linalg"},
    "gale": {"errors", "fans", "groups", "linalg"},
    "classify": {"_record", "errors", "fans", "gale", "groups"},
    "jsonio": {"classify", "fans", "groups"},
    "cli": {"classify", "errors", "fans", "gale", "groups", "jsonio"},
}


def _trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _package_imports(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def _bound_names(tree: ast.Module) -> dict[str, int]:
    # every name an import statement binds, with its line
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_each_module_imports_exactly_its_layers():
    trees = _trees()
    assert set(trees) == set(LAYERS)
    got = {name: _package_imports(tree) for name, tree in trees.items()}
    assert got == LAYERS


def test_no_module_keeps_an_unused_import():
    unused = []
    for name, tree in _trees().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{name}:{line} {bound}" for bound, line in _bound_names(tree).items() if bound not in used
        ]
    assert unused == []


def test_no_module_asserts():
    # python -O strips assert statements, and every check must still run
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_search_cap():
    # every exponential search checks its count against errors.SEARCH_CAP
    # through errors.check_search; only branch and bound counts its nodes
    trees = _trees()
    caps = sorted(
        f"{name}.{target.id}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    )
    assert caps == ["errors.SEARCH_CAP", "linalg._ILP_NODE_CAP"]
    raisers = set()
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Raise) and "CapExceededError" in ast.unparse(node):
                        raisers.add(f"{name}.{func.name}")
    assert {r for r in raisers if not r.startswith("linalg.")} == {"errors.check_search"}
    # the guarded searches, one message template each: adding or dropping
    # one is an edit here
    templates = {
        node.args[0].value
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "check_search"
    }
    assert templates == {
        "root scan of %s covectors",
        "root zero-set search of %s zero sets",
        "pair bijection search of %s bijections",
        "G-set subset scan of %s subsets",
        "G-set family scan of %s families",
        "(C3) link search of %s (target, support) pairs",
        "shape G-set of %s members",
        "product split scan of %s unions",
    }


def test_no_module_builds_a_full_smith_form():
    # package code reads linalg._smith's plain lists and appends only the
    # columns it needs; smith_normal_form's SnfResult, with U, D and V as
    # records, is built for library callers only
    trees = _trees()
    callers = sorted(
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("smith_normal_form")
    )
    assert callers == []
    assert "smith_normal_form" in {
        node.name for node in trees["linalg"].body if isinstance(node, ast.FunctionDef)
    }
