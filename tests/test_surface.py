"""No orphan helpers: every public name that src/bornlab defines is reached.

A public top-level function or class, or a public method, must be referenced
in the code of src/bornlab (as a name, an attribute or an import), or appear
in the text of perfbench/tracing.py, whose per-layer metrics rebind names
given as strings.  A mention in a docstring or comment does not count.  An
export of the package counts only for a name the README documents, as API.
A helper that only tests call belongs in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bornlab"
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"


def public_definitions(tree):
    """(qualified name, name) of the public top-level functions and classes and their public methods."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_in_src_is_reached():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    exports = set(referenced_names(trees.pop("__init__.py")))
    reached = {name for tree in trees.values() for name in referenced_names(tree)}
    reached |= exports & set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    reached |= set(re.findall(r"\w+", TRACING.read_text(encoding="utf-8")))
    orphans = [
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, name in public_definitions(tree)
        if name not in reached
    ]
    assert orphans == []
