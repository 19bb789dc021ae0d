"""Every top-level function and class of the library is used outside tests.

A use is an identifier (a ``Name`` or an ``Attribute``) or a string
constant equal to the definition's name (perfbench looks ops up with
``getattr``) anywhere in ``src/``, ``demos/`` or ``perfbench/``. The
package ``__init__`` is skipped: a re-export is not a use.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "slabgan")
SCANNED = ("src", "demos", "perfbench")


def _trees():
    for top in SCANNED:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                if name.endswith(".py") and path != os.path.join(PKG, "__init__.py"):
                    with open(path) as f:
                        yield path, ast.parse(f.read(), path)


def unused_definitions() -> list[str]:
    """Top-level ``def``/``class`` names of ``src/slabgan`` never used in the
    scanned trees, sorted."""
    defined, used = set(), set()
    for path, tree in _trees():
        if os.path.dirname(path) == PKG:
            defined.update(node.name for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return sorted(defined - used)


def test_every_library_definition_is_used():
    assert unused_definitions() == []
