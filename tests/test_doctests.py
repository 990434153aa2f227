"""Run the doctests embedded in the public API docstrings.

The README and docs/architecture.md lean on docstring examples
(``symbols``, ``Polynomial`` arithmetic, the packed-monomial helpers,
the mapping cache); this test keeps every example executable.
"""

import doctest
import importlib

import pytest

MODULES = [
    "repro.symalg.polynomial",
    "repro.symalg.monomials",
    "repro.symalg.ordering",
    "repro.mapping.cache",
    "repro.mapping.pareto",
    "repro.platform.registry",
    "repro.resilience.faults",
    "repro.resilience.breaker",
    "repro.resilience.retry",
    "repro.resilience.admission",
    "repro.api",
    "repro.api.session",
    "repro.service.metrics",
    "repro.codegen.lower",
    "repro.codegen.fixedpt",
    "repro.codegen.pysource",
    "repro.codegen.verify",
    "repro.mp3.vectors",
    "repro.workload.registry",
]


@pytest.mark.parametrize("modname", MODULES)
def test_module_doctests(modname):
    module = importlib.import_module(modname)
    # Doctests assume the module's own names (symbols, pack, ...) are
    # in scope, as they are for a reader of the file.
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{modname} has no doctests to run"
    assert results.failed == 0
