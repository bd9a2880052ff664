"""Every public top-level function and class in robsat must be on a path that
robsat or its benchmark runs: some other top-level statement of a module in
src/robsat (not `__init__.py`, whose re-exports call nothing) or some file of
perfbench/ must name it.  Likewise every public method of a public class:
some module in src/robsat must read its name as an attribute outside the
method's own body, or perfbench must read it.  A reference implementation
that only the tests compare against belongs in tests/reference_oracles.py,
and a small operation only the tests use in tests/helpers.py.

Reads are counted by name, so a method whose name is also some other
attribute (of another robsat class, or of a dict, tuple, enum member or
other builtin value) would count that attribute's reads as its own: the
field `IntCochain.values` and `dict.values()` would hide an unread
`PLMap.values`.  Each such method is listed in COLLIDING with where robsat
reads it, and the list must be exactly the colliding methods."""

import ast
from collections import Counter
from enum import Enum
from fractions import Fraction
import glob
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "robsat")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")
PERFBENCH = os.path.join(ROOT, "perfbench")


def names_used(node) -> set[str]:
    """Names and attribute names that `node` reads or calls."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreferenced(trees: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """`module.name` of each public top-level def or class of `trees` that no
    other top-level statement of any tree uses and that is not in `outside`."""
    defs = []  # (module, name, defining node)
    uses = []  # (defining node, names it uses)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs.append((module, node.name, node))
            uses.append((node, names_used(node)))
    return [f"{module}.{name}" for module, name, home in defs
            if name not in outside
            and not any(name in used for node, used in uses if node is not home)]


def attributes_read(node) -> Counter:
    """How often `node` reads each attribute name."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unread_methods(trees: dict[str, ast.Module], outside: set[str]) -> list[str]:
    """`Class.method` of each public method of a public top-level class of
    `trees` whose name no tree reads as an attribute outside the method's own
    body and that is not in `outside`."""
    total = sum((attributes_read(tree) for tree in trees.values()), Counter())
    return [f"{cls.name}.{node.name}"
            for tree in trees.values() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in outside
            and total[node.name] == attributes_read(node)[node.name]]


# Attribute names of the values robsat handles that are not robsat classes.
BUILTIN_ATTRIBUTES = set().union(*(dir(t) for t in (dict, list, set, frozenset, tuple, str,
                                                    int, Fraction)), dir(Enum("E", "A").A))

# Each public method whose name collides, with where robsat reads it.
COLLIDING = {
    "Simplex.vertices": "as Complex.vertices; read on simplices by full_subcomplex, "
                        "make_full and the CLI's certificate keys",
    "Simplex.dim": "as Complex.dim; read by IntCochain's degree check and the "
                   "extremal stage's postcondition",
    "Complex.vertices": "as Simplex.vertices; read by star_at_point, the CLI, "
                        "instance_io, the witness search and every stage",
    "Complex.dim": "as Simplex.dim; read by decide_extension's dim X <= n test",
    "LevelPair.f": "as Instance.f; read by LevelPair.x, which builds X from the pair's "
                   "simplex set on first read",
    "PLMap.value": "as RobustnessResult.value and an enum member's value; read by "
                   "the CLI's witness document and instance_io's writer",
}


def attributes_defined(trees: dict[str, ast.Module]) -> Counter:
    """How many robsat classes define each attribute name: as a method or
    property, a class-level field or slot, or an assignment to self.name."""
    names = Counter()
    for tree in trees.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            own = set()
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    own.add(node.name)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    own.add(node.target.id)
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                    own |= {c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str)}
            own |= {sub.attr for sub in ast.walk(cls)
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
            names.update(own)
    return names


def colliding_methods(trees: dict[str, ast.Module]) -> list[str]:
    """`Class.method` of each public method of a public top-level class whose
    name another robsat class also defines, or a builtin value has."""
    defined = attributes_defined(trees)
    return [f"{cls.name}.{node.name}"
            for tree in trees.values() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and (defined[node.name] > 1 or node.name in BUILTIN_ATTRIBUTES)]


def perfbench_attributes() -> set[str]:
    """Every attribute name that a file of perfbench/ reads."""
    names = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            names |= set(attributes_read(ast.parse(fh.read(), path)))
    return names


def perfbench_names() -> set[str]:
    """robsat names that perfbench calls: perfbench looks each one up on the
    module at call time (`_mod("pl_map").PLMap`), or wraps it as a traced
    layer of layer_map.json.  perfbench's own helpers, such as
    `checks.has_root`, are attributes of a plain name, not of a call, so
    they do not count."""
    names = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)}
    with open(os.path.join(PERFBENCH, "layer_map.json"), encoding="utf-8") as fh:
        names |= {layer.rsplit(".", 1)[-1] for layer in json.load(fh)["layers"]}
    return names


def test_modules_found():
    assert MODULES
    assert os.path.isdir(PERFBENCH)


def test_detector():
    trees = {
        "a": ast.parse("def used(): pass\n"
                       "def caller(): return used()\n"
                       "def only_self(): return only_self()\n"
                       "def _private(): pass\n"
                       "class Unused: pass\n"
                       "def bench(): pass\n"),
        "b": ast.parse("from a import Unused\n"
                       "import a\n"
                       "x = a.caller\n"),
    }
    assert unreferenced(trees, {"bench"}) == ["a.only_self", "a.Unused"]


def test_method_detector():
    trees = {
        "a": ast.parse("class A:\n"
                       "    def read(self): pass\n"
                       "    def only_self(self): return self.only_self()\n"
                       "    def only_bench(self): pass\n"
                       "    def _private(self): pass\n"
                       "class _Hidden:\n"
                       "    def unread(self): pass\n"
                       "def unread(): pass\n"),
        "b": ast.parse("import a\n"
                       "x = a.A().read()\n"),
    }
    assert unread_methods(trees, {"only_bench"}) == ["A.only_self"]


def test_collision_detector():
    trees = {
        "a": ast.parse("class A:\n"
                       "    __slots__ = ('slot',)\n"
                       "    field: int\n"
                       "    def shared(self): pass\n"
                       "    def values(self): pass\n"
                       "    def own(self): self.stored = 1\n"
                       "class B:\n"
                       "    def shared(self): pass\n"
                       "    def field(self): pass\n"
                       "    def slot(self): pass\n"
                       "    def stored(self): pass\n"
                       "    def _private(self): pass\n"
                       "class _C:\n"
                       "    def own(self): pass\n"),
    }
    assert colliding_methods(trees) == ["A.shared", "A.values", "A.own",
                                        "B.shared", "B.field", "B.slot", "B.stored"]


def src_trees() -> dict[str, ast.Module]:
    trees = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)[:-3]] = ast.parse(fh.read(), path)
    return trees


def test_every_public_name_is_reached():
    assert unreferenced(src_trees(), perfbench_names()) == []


def test_every_public_method_is_read():
    assert unread_methods(src_trees(), perfbench_attributes()) == []


def test_colliding_methods_are_listed():
    assert sorted(colliding_methods(src_trees())) == sorted(COLLIDING)
