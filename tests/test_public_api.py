"""The public surface of seqdiv: one import path and a caller for every name.

Parses src/seqdiv with ast, so nothing is imported.  A name in a module's
__all__ counts as used when another module imports it, or when its own
module refers to it outside its definition (a type or helper that the
module's other public functions are built from).  The acceptance checks and
references the tests compare against have no caller in src and are listed.
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


PUBLIC = [(mod, name) for mod, tree in sorted(MODULES.items()) for name in _public(tree)]
USED = _uses()


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
