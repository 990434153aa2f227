"""Run every docstring example in the ``repro`` package.

The README and docs/architecture.md lean on docstring examples
(``symbols``, ``Polynomial`` arithmetic, the packed-monomial helpers,
the mapping cache); this test keeps every example executable.  The
modules are discovered, not listed, so a new example runs as soon as it
is written.  A module whose examples are all ``+SKIP`` has nothing to
run and is not collected.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _modules_with_examples() -> list[str]:
    finder = doctest.DocTestFinder()
    names = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        if any(not example.options.get(doctest.SKIP)
               for test in finder.find(module) for example in test.examples):
            names.append(info.name)
    return names


MODULES = _modules_with_examples()


@pytest.mark.parametrize("modname", MODULES)
def test_module_doctests(modname):
    module = importlib.import_module(modname)
    # Doctests assume the module's own names (symbols, pack, ...) are
    # in scope, as they are for a reader of the file.
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{modname} has no doctests to run"
    assert results.failed == 0
