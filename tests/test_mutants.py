"""The mutation catalogue stays current with the code it mutates."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_old_text_occurs_once_in_its_file(name):
    file, old, new, tests = MUTANTS[name]
    assert (ROOT / file).read_text().count(old) == 1
    assert new != old and tests
