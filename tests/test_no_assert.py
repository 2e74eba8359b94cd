"""Library code must not rely on checks that vanish or read as test failures.

``assert`` statements are stripped under ``python -O``, and a bare
``AssertionError`` says nothing about what broke; internal invariants raise
``InvariantViolationError`` and bad input raises the typed errors instead.
"""

import ast
from pathlib import Path

import chebdens

SOURCE = Path(chebdens.__file__).parent


def _offences(tree: ast.AST, path: Path) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name) and target.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    return found


def test_no_assert_in_library():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    offences = []
    for path in paths:
        offences += _offences(ast.parse(path.read_text(), filename=str(path)), path)
    assert offences == []


def test_detector_flags_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('no')\nraise AssertionError\n")
    assert len(_offences(tree, Path("example.py"))) == 3
