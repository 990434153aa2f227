"""repro — reproduction of Peymandoust, Simunic & De Micheli (DAC 2002),
"Complex Library Mapping for Embedded Software Using Symbolic Algebra".

The front door is :mod:`repro.api`: build a
:class:`~repro.api.MappingSession` and call ``map`` / ``pareto`` /
``batch`` / ``sweep`` / ``flow`` on it — or use ``python -m repro``
(:mod:`repro.cli`) from a shell.  The HTTP service
(:mod:`repro.service`) serves the same facade long-running.

Subpackages
-----------
``repro.api``
    The public session facade: typed config, requests and results,
    the canonical wire format every frontend shares.
``repro.cli``
    ``python -m repro`` — map, pareto, sweep, platforms, cache.
``repro.symalg``
    From-scratch symbolic algebra engine (the paper's Maple V role):
    exact multivariate polynomials, Groebner bases, simplification
    modulo side relations, Horner forms, factorization, series.
``repro.frontend``
    Target-code identification: restricted-Python kernels executed
    symbolically straight into polynomials, with the paper's code
    transformations.
``repro.library``
    Library characterization: elements annotated with I/O format,
    accuracy, performance, energy, and polynomial representation.
``repro.mapping``
    The paper's contribution: branch-and-bound library mapping via
    symbolic simplification, plus the full 3-step methodology driver.
``repro.platform``
    Badge4 substitute: SA-1110-style cycle/energy cost model, DVFS,
    profiler, and the pluggable processor registry.
``repro.fixedpoint``
    In-house style Q-format fixed-point arithmetic and math kernels.
``repro.mp3``
    MP3-Layer-III-style decoder substrate with float/fixed/IPP-style
    stage variants, synthetic workload generator, compliance test.
``repro.service``
    Mapping-as-a-service: the asyncio HTTP/JSON front-end over one
    session.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
