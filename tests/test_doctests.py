import doctest
import importlib
import pkgutil

import artin


def test_docstring_examples_pass():
    modules = [artin] + [
        importlib.import_module(f"artin.{m.name}") for m in pkgutil.iter_modules(artin.__path__)
    ]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 6
