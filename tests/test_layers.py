"""The package's layering rule, read from the source with ``ast``.

Modules layer one way: a module imports only modules of a lower rank, and
never another module's private (``_name``) names, by import or by attribute
access.  The package root (``__init__``), which imports the public API of
every module, ranks above them all; ``__main__`` and the scripts rank above
the root.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "examweight"
RANKS = [["errors"], ["gradebook"], ["synthetic", "linalg"], ["solvers"], ["experiment"],
         ["analysis"], ["dataio"], ["cli"], ["__init__"]]
RANK = {name: rank for rank, names in enumerate(RANKS) for name in names}
TOP = len(RANKS)  # __main__ and the scripts


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def violations(source, module, rank):
    """Each upward import and each use of another module's private name in
    source, the code of module (None for a script) at rank."""
    found = []
    bound = {}  # local name -> the package module it names

    def use(target, name, line):
        if target == module:
            return
        if RANK[target] >= rank:
            found.append(f"line {line}: imports {target} (rank {RANK[target]}) from rank {rank}")
        if name is not None and is_private(name):
            found.append(f"line {line}: uses {target}.{name}")

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "examweight":
                    continue
                target = parts[1] if len(parts) > 1 else "__init__"
                use(target, None, node.lineno)
                bound[alias.asname or "examweight"] = target if alias.asname else "__init__"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif (node.module or "").split(".")[0] == "examweight":
                parts = node.module.split(".")[1:]
            else:
                continue
            for alias in node.names:
                if parts:  # from .mod import name
                    use(parts[0], alias.name, node.lineno)
                elif alias.name in RANK:  # from . import mod
                    use(alias.name, None, node.lineno)
                    bound[alias.asname or alias.name] = alias.name
                else:  # a name from the package root
                    use("__init__", alias.name, node.lineno)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in bound:
            use(bound[node.value.id], node.attr, node.lineno)
        elif (isinstance(node.value, ast.Attribute) and isinstance(node.value.value, ast.Name)
              and bound.get(node.value.value.id) == "__init__" and node.value.attr in RANK):
            use(node.value.attr, node.attr, node.lineno)
    return found


SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_imports_go_down_and_stay_public(path):
    module = path.stem if path.parent == PACKAGE else None
    if module is None or module == "__main__":
        rank = TOP
    else:
        assert module in RANK, f"{path.name} has no rank in RANKS"
        rank = RANK[module]
    assert violations(path.read_text(), module, rank) == []


@pytest.mark.parametrize("source, module, count", [
    ("from . import solvers", "linalg", 1),
    ("from .cli import main", "dataio", 1),
    ("from .solvers import _floor_probe", "experiment", 1),
    ("from . import solvers\nsolvers._floor_probe(1)", "experiment", 1),
    ("from . import gradebook as gb\ngb._private", "solvers", 1),
    ("import examweight.solvers\nexamweight.solvers._SIGMA_FLOOR", None, 1),
    ("from examweight import linalg\nlinalg._truncated_svd", None, 1),
    ("from . import linalg, solvers\nsolvers.fit_huber\nlinalg.svd", "experiment", 0),
    ("import numpy as np\nnp._private", "solvers", 0),
    ("from examweight import evaluate", "solvers", 1),
    ("import examweight", "dataio", 1),
    ("from . import DataError", "cli", 1),
    ("from examweight import evaluate\nimport examweight\nexamweight.solvers", None, 0),
])
def test_the_checker_sees_each_kind_of_violation(source, module, count):
    rank = TOP if module is None else RANK[module]
    assert len(violations(source, module, rank)) == count


def imported_modules(tree):
    """Every module that tree imports, by its last dotted part ("from . import
    linalg" imports linalg)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.rsplit(".", 1)[-1])
            if not node.module or node.module == "examweight":
                names.update(alias.name for alias in node.names)
    return names


def test_experiment_keeps_only_the_protocol():
    # how a solver's folds are fit is solvers' rule: experiment reads no
    # signature and calls no linear algebra of its own
    tree = ast.parse((PACKAGE / "experiment.py").read_text())
    assert imported_modules(tree).isdisjoint({"inspect", "linalg"})
    names = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "arg") if isinstance(getattr(node, attr, None), str)}
    assert names.isdisjoint({"start", "leave_one_out"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_only_solvers_reads_a_signature(path):
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "signature"]
    assert calls == [] or path == PACKAGE / "solvers.py"


def test_imported_modules_sees_each_form():
    source = ("import inspect\nfrom . import linalg, solvers\nfrom .errors import DataError\n"
              "from examweight import gradebook\nimport numpy.linalg\n")
    assert imported_modules(ast.parse(source)) == {
        "inspect", "linalg", "solvers", "errors", "gradebook", "examweight"}
