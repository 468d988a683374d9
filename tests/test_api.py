"""The package's module-level names are the ones something reads.

A module-level name of src/theta_homology, public or private, counts as
read when another module of the package imports it, when its own module
uses it outside its own definition, or when perfbench/child.py names it
(the tracer binds the functions it wraps by attribute name, as strings).
The tests do not count: a name only they read belongs in a test oracle, as
element_oracle's permute_variables and admissible_basis do, and a private
helper that nothing reads is one left behind with no caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "theta_homology"
TRACER = ROOT / "perfbench" / "child.py"

# public names read only by the tests, each for a reason the ROADMAP's
# "Kept on purpose" gives; no private name is kept
KEPT = {
    "algebra.FLAVORS",  # the table of the four flavors
    "genfun.euler_relation_check",  # acceptance criterion 5
    "homology.defect_concentration_check",  # acceptance criterion 6
}


def defined(statement):
    """Names a module-level statement binds: a def, a class or an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return set()
    return {target.id for target in targets if isinstance(target, ast.Name)}


def loaded(node):
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def imported_from(trees, module):
    """Names that the other modules import from module."""
    return {
        alias.name
        for other, tree in trees.items()
        if other != module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == module
        for alias in node.names
    }


def named_by_the_tracer():
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    traced = named_by_the_tracer()
    unread = set()
    for module, tree in trees.items():
        imported = imported_from(trees, module)
        for statement in tree.body:
            for name in defined(statement) - traced - imported:
                if name.startswith("__") and name.endswith("__"):
                    continue  # a dunder such as __version__ is read by tools
                others = (s for s in tree.body if name not in defined(s))
                if not any(name in loaded(s) for s in others):
                    unread.add(f"{module}.{name}")
    return unread


def test_every_public_name_is_read_or_kept_on_purpose():
    assert unread_names() == KEPT

