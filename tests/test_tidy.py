"""Static tidiness of the package, read from its source with `ast`: no
module imports a name it never uses, no private module-level helper is
left without a reference, no public function or class is left without a
reader in the package or a mention in the README, and a rank table's
identity is defined in `core` alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matroidkit"
TREES = {p.stem: ast.parse(p.read_text(), str(p))
         for p in sorted(PACKAGE.glob("*.py"))}

# public names that neither the package reads nor the README names, each
# kept for a reason of its own
UNREAD_PUBLIC = {
    "is_quad": "the per-set reference of quads and spike-like detection",
    "grounded_triads": "the per-triad reference of all_triples_grounded",
    "sweep_theorem_triangles": "acceptance criterion 5's entry point",
    "verify_foundation": "the paper's foundation-theorem verifier",
    "verify_flan_corollary": "the paper's flan-corollary verifier",
}


def _loaded(tree) -> set[str]:
    """The bare names that `tree` reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}


def _imported(tree) -> set[str]:
    """The names that the module-level imports of `tree` bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":   # from __future__
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def _private_definitions(tree) -> set[str]:
    """The module-level `_private` functions, classes and constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree) -> set[str]:
    """The names that `tree` reads, bare or as an attribute."""
    return _loaded(tree) | {node.attr for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__"])
def test_no_unused_import(module):
    tree = TREES[module]
    assert _imported(tree) - _loaded(tree) == set()


def test_every_private_definition_is_referenced():
    referenced = set().union(*map(_references, TREES.values()))
    unused = {(module, name) for module, tree in TREES.items()
              for name in _private_definitions(tree) - referenced}
    assert unused == set()


def test_every_public_definition_is_read_or_documented():
    referenced = set().union(*map(_references, TREES.values()))
    readme = (ROOT / "README.md").read_text()
    unread = {node.name for tree in TREES.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in referenced
              and not re.search(rf"\b{node.name}\b", readme)}
    assert unread == set(UNREAD_PUBLIC)


def test_table_identity_lives_in_core():
    # `Matroid.key` is the one table key: no other module hashes a table
    # or defines a key class of its own
    hashers = {module for module, tree in TREES.items()
               if "zlib" in _imported(tree)}
    keys = {module for module, tree in TREES.items()
            if "_TableKey" in _private_definitions(tree)}
    assert hashers == keys == {"core"}


def test_checks_see_the_package():
    # the checks above pass vacuously on an empty or unreadable tree
    assert {"core", "harness", "minors", "structures"} <= set(TREES)
    assert "_masks_of_size" in _private_definitions(TREES["core"])
    assert "np" in _imported(TREES["core"])
