"""Every definition in the package has a caller outside the tests and demos.

Code that only tests or demos reach does not belong in src/: a test oracle
lives in tests/oracles.py, and a demo uses the package's public names.  The
scan parses src/planemoduli with ast and lists every top-level function and
class and every method of those classes, leaving out dunder names, which
Python itself calls.  A top-level definition is used when a file of the
package names it, as an ast.Name, an ast.Attribute or an import alias, or
when the package exports it.  A method is used only when some file of the
package reads it as an attribute, so a parameter or a local variable of
the same name, or a word in a docstring, does not count for it.  The
benchmark's code is no caller: a definition that only perfbench/ runs has
to be named in CALLED_FROM_OUTSIDE.
"""

import ast
from pathlib import Path

import planemoduli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "planemoduli"

#: definitions that code outside the package calls by name
CALLED_FROM_OUTSIDE = {
    "_Parser._check_value",  # argparse checks each choice through it
    # only perfbench's exactmath.qpoly_exact_div_* probe keeps it
    "QPoly.exact_div",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions() -> dict[str, bool]:
    """Each definition by its qualified name, mapped to whether it is a method."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_dunder(node.name):
                found[node.name] = False
            if isinstance(node, ast.ClassDef):
                found.update((f"{node.name}.{item.name}", True) for item in node.body
                             if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name))
    return found


def _references() -> tuple[set[str], set[str]]:
    """The names and the attribute names read in the package."""
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def test_every_definition_has_a_caller_outside_the_tests():
    definitions = _definitions()
    names, attributes = _references()
    assert "QPoly.exact_div" in definitions and "run" in names  # the scan sees the tree
    unused = sorted(
        qualified for qualified, is_method in definitions.items()
        if qualified not in CALLED_FROM_OUTSIDE
        and (qualified.rpartition(".")[2] not in attributes if is_method
             else qualified not in names | attributes | planemoduli._HOME.keys()))
    assert unused == []
