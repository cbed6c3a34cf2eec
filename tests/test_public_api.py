"""The public surface of seqdiv: one import path and a caller for every name.

Parses src/seqdiv with ast, so nothing is imported.  A name in a module's
__all__ counts as used when another module imports it, or when its own
module refers to it outside its definition (a type or helper that the
module's other public functions are built from).  The acceptance checks and
references the tests compare against have no caller in src and are listed.

The same holds one level down, for the classes named in an __all__: each
public method is an attribute that src reads outside the method itself, or
a listed test reference, and each class defines exactly the dunder methods
of a table that says why each one is there.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "seqdiv"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}

# acceptance checks and test references, called from the tests only
TEST_ONLY = {
    ("cyclokit", "power_sum_square_quotient"),
    ("cyclokit", "rem_mod_sum_square"),
    ("cyclokit", "power_sum_resultant_check"),
    ("cyclokit", "eval_form"),
    ("cyclokit", "euler_phi"),
    ("factorization", "is_irreducible_fp"),
}

# class members called from the tests only: (module, class, method)
TEST_ONLY_MEMBERS = {("factorization", "Factorization", "expand")}

_INIT = "constructor"
_FROZEN = "immutability"
_CRITERIA_1_3 = "test reference: the form arithmetic of criteria 1-3"
_TRACED = "wrapped by bench/tracer.py"

# every dunder method a public class defines, and why
DUNDERS = {
    ("cyclokit", "BivarForm"): {
        "__init__": _INIT,
        "__setattr__": _FROZEN,
        "__eq__": _CRITERIA_1_3,
        "__hash__": "the partner of __eq__; tests/test_cyclokit.py pins it",
        "__add__": "BivarForm.__sub__, and " + _CRITERIA_1_3,
        "__neg__": "BivarForm.__sub__",
        "__sub__": _CRITERIA_1_3,
        "__mul__": _CRITERIA_1_3,
        "__repr__": "test reference: tests/test_cyclokit.py pins it",
        "__str__": "seq cyclo prints a form",
    },
    ("factorization", "Factorization"): {
        "__init__": _INIT,
        "__setattr__": _FROZEN,
        "__str__": "seq factor prints a factorization",
    },
    ("polyring", "Poly"): {
        "__init__": _INIT,
        "__setattr__": _FROZEN,
        "__add__": "the tower steps of oracle_term",
        "__radd__": _TRACED,
        "__neg__": "the tower steps, validate",
        "__sub__": "term",
        "__rsub__": _TRACED,
        "__mul__": "term, cyclotomic_value, the tower steps",
        "__rmul__": _TRACED,
        "__pow__": "test reference: Factorization.expand and the tests' products",
        "__divmod__": _TRACED + "; the tests' division with remainder",
        "__eq__": "is_associated, validate, matches_phi, oracle_equivalence",
        "__hash__": "the partner of __eq__; hypothesis hashes drawn Poly values",
        "__bool__": "the gcd-table lookup of primitive_part, the tower solve",
        "__repr__": "test reference: tests/test_polyring.py pins it",
        "__str__": "every printed polynomial",
    },
    ("sequences", "SeqParams"): {
        "__init__": _INIT,
        "__repr__": "test reference: tests/test_sequences.py pins it",
    },
}


def _public(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _defined(node):
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).partition(".")[0] for a in node.names}
    return set()


def _uses():
    """(module, name) pairs that some module of the package refers to; a
    re-export from the package root is not a use."""
    used = set()
    for mod, tree in MODULES.items():
        if mod == "__init__":
            continue
        for stmt in tree.body:
            own = _defined(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    used.update((node.module, a.name) for a in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id not in own:
                        used.add((mod, node.id))
    return used


def _methods(cls):
    """The method definitions of a class body, and its dunder aliases (``__radd__ = __add__``)."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for t in node.targets:
                if isinstance(t, ast.Name) and t.id.startswith("__"):
                    yield t.id, node


def _attribute_reads(name, outside):
    """Whether some module of the package reads attribute name outside the node outside."""
    inside = {id(n) for n in ast.walk(outside)}
    return any(
        isinstance(n, ast.Attribute) and n.attr == name and id(n) not in inside
        for tree in MODULES.values()
        for n in ast.walk(tree)
    )


PUBLIC = [(mod, name) for mod, tree in sorted(MODULES.items()) for name in _public(tree)]
USED = _uses()
CLASSES = {
    (mod, node.name): node
    for mod, tree in MODULES.items()
    for node in tree.body
    if isinstance(node, ast.ClassDef) and node.name in _public(tree)
}
MEMBERS = [
    (mod, cls, name)
    for (mod, cls), node in sorted(CLASSES.items())
    for name, _ in _methods(node)
    if not name.startswith("_")
]


def test_package_root_defines_only_the_version():
    tree = MODULES["__init__"]
    body = [s for s in tree.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    assert [sorted(_defined(s)) for s in body] == [["__version__"]]
    assert isinstance(tree.body[0], ast.Expr)  # the docstring


@pytest.mark.parametrize("mod,name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_is_defined_in_its_module(mod, name):
    assert name in set().union(*map(_defined, MODULES[mod].body))


@pytest.mark.parametrize("mod,name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_a_caller(mod, name):
    if (mod, name) in TEST_ONLY:
        assert (mod, name) not in USED, "a listed name gained a caller: drop it from the list"
    else:
        assert (mod, name) in USED


@pytest.mark.parametrize("mod,cls,name", MEMBERS, ids=[".".join(m) for m in MEMBERS])
def test_public_method_has_a_caller(mod, cls, name):
    definition = dict(_methods(CLASSES[mod, cls]))[name]
    used = _attribute_reads(name, definition)
    if (mod, cls, name) in TEST_ONLY_MEMBERS:
        assert not used, "a listed member gained a caller: drop it from the list"
    else:
        assert used


@pytest.mark.parametrize("mod,cls", sorted(CLASSES), ids=[".".join(c) for c in sorted(CLASSES)])
def test_dunder_methods_are_the_pinned_ones(mod, cls):
    defined = {name for name, _ in _methods(CLASSES[mod, cls]) if name.startswith("__")}
    assert defined == set(DUNDERS.get((mod, cls), {}))


def test_every_listed_member_exists():
    assert set(DUNDERS) <= set(CLASSES)
    for mod, cls, name in TEST_ONLY_MEMBERS:
        assert name in dict(_methods(CLASSES[mod, cls]))
