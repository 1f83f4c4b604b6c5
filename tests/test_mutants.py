"""The mutation catalogue stays current with the code it mutates and the tests it names."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_old_text_occurs_once_in_its_file(name):
    file, old, new, tests = MUTANTS[name]
    assert (ROOT / file).read_text().count(old) == 1
    assert new != old and tests


@pytest.mark.parametrize("name", list(MUTANTS))
def test_mutant_tests_exist(name):
    # a named test that is gone can never fail: the runner would report its
    # mutant as a survivor, or the mutant's other tests would hide the gap
    for node_id in MUTANTS[name][3]:
        file, _, test = node_id.partition("::")
        path = ROOT / file
        assert path.is_file(), node_id
        if test:
            tree = ast.parse(path.read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert test.partition("[")[0] in defined, node_id
