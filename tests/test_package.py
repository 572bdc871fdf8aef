"""Whole-package checks on the source tree itself."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import ian
from ian.model import ROUTES, VARIANTS

SRC = Path(ian.__file__).parent


def _definitions(tree):
    """(qualified name, node) of each top-level function and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _name_uses(node) -> Counter:
    """How often each bare name or attribute name occurs under node."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
    return uses


def test_every_function_in_src_is_used_in_src():
    # name-based: a method counts as used when any attribute of its name is
    # read, so this misses an unused method that shares a name with a used one
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_name_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if uses[node.name] == _name_uses(node)[node.name]
    ]
    assert unused == []


def _imported_names(tree):
    """(bound name, line) of each module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_every_module_level_import_in_src_is_used():
    # a use is any bare name of the binding outside import statements,
    # annotations included; attribute access goes through the bare name
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.stem}:{line} {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def test_every_trainable_variant_is_a_route():
    assert set(ROUTES) == set(VARIANTS) - {"majority"}


def test_no_comparison_in_src_names_a_trainable_variant():
    # a variant is wired by its ROUTES entry, not by a test of its name
    trainable = set(VARIANTS) - {"majority"}
    found = [
        f"{path.stem}:{node.lineno} {sub.value}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare)
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and sub.value in trainable
    ]
    assert found == []


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # eval and predict draw no random number, so they should not pay for
    # importing numpy.random; Rng reaches it on its first call
    code = "import sys, ian.cli; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
