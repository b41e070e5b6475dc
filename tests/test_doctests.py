"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.sim

MODULES = [repro.sim]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its examples"
    assert result.failed == 0
