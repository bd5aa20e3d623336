import ast
from pathlib import Path

import chaingroup

SOURCE = Path(chaingroup.__file__).parent


def test_no_assert_statements_in_library():
    """Library checks must survive python -O, which strips assert statements."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        found += [f"{path.name}:{node.lineno}" for node in asserts]
    assert found == []
