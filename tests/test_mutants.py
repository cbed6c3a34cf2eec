"""The mutant list of tests/mutants.py cannot go stale silently: every
anchor occurs exactly once in its module, and every killing test exists."""

import pytest

from mutants import MUTANTS, ROOT, module_path


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_anchor_occurs_once(mutant):
    text = module_path(ROOT / "src", mutant).read_text(encoding="utf-8")
    assert text.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_killing_test_exists(mutant):
    path, *names = mutant.test.split("::")
    text = (ROOT / path).read_text(encoding="utf-8")
    for name in names:
        assert f"def {name}(" in text or f"class {name}:" in text


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
