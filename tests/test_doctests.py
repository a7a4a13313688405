"""The examples in galefan's docstrings, run as doctests."""

import doctest
import importlib
import pkgutil

import galefan


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(galefan.__path__):
        module = importlib.import_module(f"galefan.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 7
