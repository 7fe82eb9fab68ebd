"""Run the examples in every kzresidue module's docstrings."""
import doctest
import importlib
import pkgutil

import pytest

import kzresidue

MODULES = sorted(
    f"kzresidue.{info.name}" for info in pkgutil.iter_modules(kzresidue.__path__)
)


def test_modules_are_found():
    assert "kzresidue.exactalg" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
