import ast
import sys
from pathlib import Path

import chaingroup

SOURCE = Path(chaingroup.__file__).parent


def _nodes():
    """(file name, node) for every syntax node of the package source."""
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
