"""`python -O` strips `assert` statements, so no exact check in robsat may
be one: every module is parsed and must hold no `assert` statement and no
`raise AssertionError`."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "robsat")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def assert_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_modules_found():
    assert MODULES


def test_detector_finds_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('y')\nraise AssertionError\n")
    assert list(assert_lines(tree)) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_has_no_assert(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    assert list(assert_lines(tree)) == []
