"""Every public name of the package has a caller in the program.

The program is the package, the scripts and the benchmark's child process.
Tests do not count: a name that only tests call is dead API, unless an
acceptance criterion checks a paper's claim through it and no command runs
that check yet.  Those names sit in ACCEPTANCE_ONLY with their criterion.

Every name a module of the package or the scripts imports is read in that
module, too.  The package's __init__ is exempt: its imports are the
package root, which test_records pins.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "brandt_omega"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
PROGRAM = [*SOURCES, ROOT / "perfbench" / "child.py"]

# name -> the acceptance criterion (tests/test_acceptance.py) that calls it
ACCEPTANCE_ONLY = {
    "check_chain_structure": "criterion 5",
    "check_isomorphism_transport": "criterion 7",
    "check_chain_census_invariance": "criterion 7",
    "ac_complement_size": "criterion 8",
}


def public_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def uses(tree: ast.Module) -> set[str]:
    # a name read as a variable or an attribute; definitions, imports and
    # strings do not count
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_caller_in_the_program():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    defined = set().union(*(public_definitions(t) for p, t in trees.items() if p.parent == PACKAGE))
    used = set().union(*map(uses, trees.values()))
    assert defined - used == set(ACCEPTANCE_ONLY)


def unread_imports(tree: ast.Module) -> set[str]:
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text(), str(path))) == set()
