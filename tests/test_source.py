import ast
import sys
from pathlib import Path

import chaingroup

SOURCE = Path(chaingroup.__file__).parent
# The front door: the CLI entry point and the suite registry it shares with
# the acceptance tests.
ROOTS = ("cli.main", "suites.SUITES")
# perfbench stamps every run with the kernel's backend name.
UNREACHED_ALLOWED = {"kernel.backend"}


def _modules():
    """(path, syntax tree) for every module of the package source."""
    for path in sorted(SOURCE.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _nodes():
    """(file name, node) for every syntax node of the package source."""
    for path, tree in _modules():
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements_in_library():
    """Library checks must survive python -O, which strips assert statements."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_runtime_imports_only_the_standard_library():
    """Every import in the package is relative or names a standard-library module."""
    stdlib = sys.stdlib_module_names
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {m}" for m in modules if m.split(".")[0] not in stdlib]
    assert found == []


def _top_level_definitions(tree):
    """Name -> node of every top-level function, class and assignment."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return defs


def _name_graph():
    """'module.name' of every top-level definition -> the definitions it names.

    A definition names another through a bare name (its own module's or one
    imported with `from .mod import name`) or through `mod.name`, where mod
    was imported with `from . import mod`. `from . import name` imports a
    module unless name is defined at the top level of `__init__.py`. Imports
    count wherever they stand in the module, at top level or inside a
    function.
    """
    trees = {path.stem: tree for path, tree in _modules()}
    top = {mod: _top_level_definitions(tree) for mod, tree in trees.items()}
    graph = {}
    for mod, tree in trees.items():
        defs, modules, names = top[mod], {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is not None:
                        names[local] = f"{node.module}.{alias.name}"
                    elif alias.name in top["__init__"]:
                        names[local] = f"__init__.{alias.name}"
                    else:
                        modules[local] = alias.name
        names.update((name, f"{mod}.{name}") for name in defs)
        for name, node in defs.items():
            edges = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    edges.add(names[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    edges.add(f"{modules[sub.value.id]}.{sub.attr}")
            graph[f"{mod}.{name}"] = edges
    return graph


def test_every_definition_is_reached_from_the_front_door():
    """Code that only the tests reach belongs in tests/, not in the package."""
    graph = _name_graph()
    reached, frontier = set(ROOTS), list(ROOTS)
    while frontier:
        for target in graph.get(frontier.pop(), ()):
            if target not in reached:
                reached.add(target)
                frontier.append(target)
    assert sorted(set(graph) - reached - UNREACHED_ALLOWED) == []


def test_every_method_is_named_in_the_package():
    """A method or property of a package class that no package code names as
    an attribute is reached only from the tests."""
    named = {node.attr for _, node in _nodes() if isinstance(node, ast.Attribute)}
    found = [
        f"{name}:{cls.name}.{fn.name}"
        for name, cls in _nodes()
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in named
    ]
    assert found == []


def _writes_stdout(node) -> bool:
    """A print without file=sys.stderr, or any use of sys.stdout."""
    if isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__"):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
        return not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords)
    return False


def test_only_the_answer_writer_prints_to_stdout():
    """Every CLI answer, its trailer and its exit code go out through one
    function, cli._answer; elsewhere cli.py writes to stderr only."""
    tree = ast.parse((SOURCE / "cli.py").read_text())
    writers = {getattr(top, "name", f"line {top.lineno}") for top in tree.body
               for node in ast.walk(top) if _writes_stdout(node)}
    assert writers == {"_answer"}
