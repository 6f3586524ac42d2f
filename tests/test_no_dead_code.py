"""Every top-level function and class of ``src/qktw``, and every method
that is not a dunder, must be referred to from ``src/``, ``scripts/`` or
the benchmark harness (``benchmark/*.py``, not its tests) somewhere other
than its own definition: code that no certified path uses and that is
not an entry point is deleted, not kept for the tests.

A function or class is referenced by a ``Name``, an ``Attribute`` or an
import alias with its bare name; a method or property only by an
``Attribute`` (``x.name``), since a bare name cannot reach it.  The scan
is still coarse: an attribute of the same name on an unrelated object
passes.  It reads the files; it imports nothing.

Options are held to the same rule: every field of ``exact.SolveBudget``
must be passed by keyword in some ``SolveBudget(...)`` call there.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qktw"

# Entries are "module.name" with the reason each is kept unreferenced.
ALLOWED = {
    "exact.treewidth_at_most": "G1's engine, ROADMAP T",
    "graph.Graph.edges": "called by the tests and benchmark/tests/test_perfbench.py",
}


def _sources():
    paths = sorted(PACKAGE.glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    paths += sorted((ROOT / "benchmark").glob("*.py"))
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _definitions(tree):
    """(name, node) of the module's top-level functions and classes and of
    their classes' non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(bare name, line, is an attribute) of every Name, Attribute and
    import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1], node.lineno, False


def unreferenced():
    sources = _sources()
    refs: dict[str, list[tuple[pathlib.Path, int, bool]]] = {}
    for path, tree in sources:
        for name, line, attribute in _references(tree):
            refs.setdefault(name, []).append((path, line, attribute))
    dead = []
    for path, tree in sources:
        if path.parent != PACKAGE:
            continue
        for qualname, node in _definitions(tree):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            method = "." in qualname
            outside = [
                (where, line)
                for where, line, attribute in refs.get(node.name, ())
                if (attribute or not method)
                and (where != path or not start <= line <= node.end_lineno)
            ]
            if not outside:
                dead.append(f"{path.stem}.{qualname}")
    return dead


def test_every_src_definition_is_referenced():
    assert [name for name in unreferenced() if name not in ALLOWED] == []


def test_the_allow_list_names_only_unreferenced_definitions():
    assert set(ALLOWED) <= set(unreferenced())


def budget_fields_never_passed():
    """The fields of ``exact.SolveBudget`` that no ``SolveBudget(...)``
    call in the scanned sources passes by keyword."""
    sources = _sources()
    exact_tree = next(tree for path, tree in sources if path == PACKAGE / "exact.py")
    (budget,) = [
        node
        for node in exact_tree.body
        if isinstance(node, ast.ClassDef) and node.name == "SolveBudget"
    ]
    fields = [item.target.id for item in budget.body if isinstance(item, ast.AnnAssign)]
    assert fields
    passed = set()
    for _, tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "SolveBudget":
                    passed.update(keyword.arg for keyword in node.keywords)
    return [name for name in fields if name not in passed]


def test_every_solve_budget_field_is_passed_by_some_caller():
    assert budget_fields_never_passed() == []
