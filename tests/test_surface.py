"""The package surface: no library function that only tests call.

Every function or method defined in src/carlitz must be referenced from
package code outside its own body, or be exported in carlitz.__all__.
Oracles that only tests need live in tests/oracles.py instead.

Callers are matched by bare name, not by class: a method counts as called
whenever any attribute of that name is read in package code.  So a method
that shares its name with a called one (LinPoly.coeff beside TateElem.coeff
and GFPoly.coeff) passes here although only tests call it; such a method is
found by reading, not by this test.
"""

import ast
from pathlib import Path

import carlitz

SRC = Path(carlitz.__file__).parent


def _defs_and_uses():
    """(name, file, line, node id) of every def, and (name, enclosing def ids)
    of every Name or Attribute in the package sources."""
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text()), ())]
        while stack:
            node, encl = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((node.name, path.name, node.lineno, id(node)))
                encl = encl + (id(node),)
            elif isinstance(node, ast.Name):
                uses.append((node.id, encl))
            elif isinstance(node, ast.Attribute):
                uses.append((node.attr, encl))
            stack.extend((child, encl) for child in ast.iter_child_nodes(node))
    return defs, uses


def test_every_definition_has_a_package_caller_or_is_exported():
    defs, uses = _defs_and_uses()
    callers = {}
    for name, encl in uses:
        callers.setdefault(name, []).append(set(encl))
    orphans = []
    for name, fname, line, node in defs:
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in carlitz.__all__:
            continue
        if not any(node not in encl for encl in callers.get(name, [])):
            orphans.append(f"{fname}:{line} {name}")
    assert not orphans, "defined in src/carlitz but referenced only by tests: " + ", ".join(orphans)


def test_every_exported_name_resolves():
    missing = [name for name in carlitz.__all__ if not hasattr(carlitz, name)]
    assert not missing
    assert len(set(carlitz.__all__)) == len(carlitz.__all__)
