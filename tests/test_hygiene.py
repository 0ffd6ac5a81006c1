"""Source hygiene: no module of the package or the tests imports a name it
never uses.  A name listed in a module's ``__all__`` counts as used, since
re-exporting it is the module's purpose.  Conversely, every name the package
exports, and every function and method it defines, private helpers
included, has a user outside the tests: a package module other than
``__init__.py``, or the benchmark harness in ``perfbench/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spancores"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of the module's ``__all__``, if it has one."""
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(elt.value for elt in node.value.elts
                            if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return exported


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | exported_names(tree)


def test_no_unused_imports():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = used_names(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"imported but never used: {unused}"


def referenced_names(tree: ast.Module, strings: bool = False) -> set[str]:
    """Names a module reads, imports by name or reaches as an attribute;
    with ``strings``, also its string constants (the harness names the
    functions it traces as strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def non_test_users() -> set[str]:
    """Every name the package modules other than ``__init__.py`` or the
    benchmark harness reference."""
    users: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            users |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    for path in (ROOT / "perfbench").glob("*.py"):
        users |= referenced_names(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    return users


def test_every_export_has_a_non_test_user():
    exported = exported_names(ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")))
    assert exported, "spancores.__all__ not found"
    orphans = sorted(exported - non_test_users())
    assert not orphans, f"exported but used only by tests: {orphans}"


# tests/test_acceptance.py checks the paper's criteria through these, and the
# acceptance tests stay as they are
TEST_ONLY_ALLOWED = {"SpanCore.dominates", "TemporalGraph.induced_degree"}


def defined_functions(tree: ast.Module) -> dict[str, str]:
    """``{qualified name: bare name}`` of the module's top-level functions and
    the methods of its classes, dunder methods aside."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node.name
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, ast.FunctionDef))
    return {qualified: name for qualified, name in found.items()
            if not (name.startswith("__") and name.endswith("__"))}


def orphan_functions(private: bool) -> list[str]:
    """The package's public (or private) functions and methods that no
    module outside the tests uses, beyond ``TEST_ONLY_ALLOWED``."""
    users = non_test_users()
    orphans = []
    for path in PACKAGE.glob("*.py"):
        functions = defined_functions(ast.parse(path.read_text(encoding="utf-8")))
        orphans += [f"{path.name}: {qualified}" for qualified, name in functions.items()
                    if name.startswith("_") == private and name not in users
                    and qualified not in TEST_ONLY_ALLOWED]
    return sorted(orphans)


def test_every_public_function_has_a_non_test_user():
    orphans = orphan_functions(private=False)
    assert not orphans, f"public but used only by tests: {orphans}"


def test_every_private_helper_has_a_non_test_user():
    # a helper kept alive only for the tests is dead code
    orphans = orphan_functions(private=True)
    assert not orphans, f"private but used only by tests: {orphans}"
