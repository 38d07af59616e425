import ast
from pathlib import Path

import lincirc


def test_library_has_no_assert_statements():
    # returned circuits and witnesses are proofs; their checks must still
    # run under `python -O`, which strips assert statements
    src = Path(lincirc.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
