"""Public-API snapshot: the ``__all__`` of ``repro.api``,
``repro.workload``, ``repro.symalg``, ``repro.mapping`` and
``repro.library``, and the CLI inventory.

These are deliberate change detectors.  If a PR alters any of these
surfaces, this file must be edited in the same PR — that is the point:
the public surface changes deliberately, never as a side effect.
"""

import argparse

import pytest

import repro.api
import repro.library
import repro.mapping
import repro.symalg
import repro.workload
from repro.cli import build_parser

#: The locked public API of ``repro.api``.
EXPECTED_API = [
    "BatchItem",
    "BatchReport",
    "CacheTiers",
    "DEFAULT_LIBRARY",
    "DEFAULT_PLATFORM",
    "DEFAULT_WORKLOAD",
    "LIBRARY_TAGS",
    "MapRequest",
    "MapResult",
    "MappingSession",
    "ParetoResult",
    "ResourceCatalog",
    "SessionConfig",
    "SweepReport",
    "SweepRequest",
    "VerifyResult",
    "canonical_json",
]

#: The locked public API of ``repro.workload``.
EXPECTED_WORKLOAD_API = [
    "BlockSpec",
    "DEFAULT_WORKLOAD",
    "DEFAULT_WORKLOAD_REGISTRY",
    "Workload",
    "WorkloadEntry",
    "WorkloadRegistry",
    "get_workload",
    "register_workload",
    "registered_workloads",
    "workload_named",
]

#: The locked public API of ``repro.symalg``.
EXPECTED_SYMALG_API = [
    "Add",
    "Const",
    "DivisionResult",
    "Expression",
    "Factorization",
    "GREVLEX",
    "GRLEX",
    "LEX",
    "Mul",
    "OpCount",
    "Polynomial",
    "SUPPORTED_TAYLOR",
    "SideRelation",
    "TermOrder",
    "Var",
    "divide",
    "exact_divide",
    "factor",
    "flatten",
    "groebner_basis",
    "horner",
    "is_groebner_basis",
    "polynomial_gcd",
    "reduce",
    "s_polynomial",
    "simplify_modulo",
    "symbols",
    "taylor",
    "to_source",
]

#: The locked public API of ``repro.mapping``.
EXPECTED_MAPPING_API = [
    "BatchItem",
    "BatchReport",
    "BatchStats",
    "BlockMatch",
    "BlockParetoResult",
    "CacheTiers",
    "DecomposeResult",
    "FlowReport",
    "Instantiation",
    "MappedProgram",
    "MappingPass",
    "MappingSolution",
    "MethodologyFlow",
    "Objectives",
    "ParetoPoint",
    "SweepEntry",
    "SweepReport",
    "clear_shared_caches",
    "decompose",
    "enumerate_instantiations",
    "fingerprint_block",
    "fingerprint_library",
    "fingerprint_platform",
    "match_block",
    "methodology_blocks",
    "pareto_front",
    "residual_cost",
    "rewrite",
    "run_batch",
    "score_element",
    "score_match",
    "shared_cache_stats",
    "structural_hints",
]

#: The locked public API of ``repro.library``.
EXPECTED_LIBRARY_API = [
    "CharacterizedElement",
    "Library",
    "LibraryElement",
    "characterize",
    "characterize_library",
    "formal_inputs",
    "full_library",
    "inhouse_library",
    "ipp_library",
    "linux_math_library",
    "reference_library",
]

#: The locked CLI surface: subcommand -> sorted positional/option names.
EXPECTED_CLI = {
    "map": [
        "--accuracy-budget",
        "--cache-dir",
        "--json",
        "--library",
        "--platform",
        "--tolerance",
        "--workload",
        "block",
    ],
    "pareto": [
        "--accuracy-budget",
        "--cache-dir",
        "--json",
        "--library",
        "--platform",
        "--tolerance",
        "--workload",
        "block",
    ],
    "sweep": [
        "--accuracy-budget",
        "--blocks",
        "--cache-dir",
        "--json",
        "--libraries",
        "--platforms",
        "--tolerance",
        "--workload",
    ],
    "verify": [
        "--accuracy-budget",
        "--cache-dir",
        "--json",
        "--library",
        "--platform",
        "--tolerance",
        "--workload",
        "block",
    ],
    "codegen": [
        "--accuracy-budget",
        "--cache-dir",
        "--json",
        "--library",
        "--platform",
        "--tolerance",
        "--workload",
        "block",
    ],
    "workloads": [
        "--cache-dir",
        "--json",
    ],
    "platforms": [
        "--cache-dir",
        "--json",
    ],
    "cache": [
        "--cache-dir",
        "--json",
        "action",
    ],
    # `repro serve` declares no flags of its own: it hands its
    # arguments to the service's parser (see tests/api/test_cli.py).
    "serve": [],
}


def _cli_inventory() -> dict:
    parser = build_parser()
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    inventory = {}
    for name, subparser in sub.choices.items():
        entries: set = set()
        for action in subparser._actions:
            if action.option_strings:
                entries.update(action.option_strings)
            else:
                entries.add(action.dest)
        entries -= {"-h", "--help"}
        inventory[name] = sorted(entries)
    return inventory


def test_api_all_is_locked():
    assert sorted(repro.api.__all__) == EXPECTED_API


def test_api_all_names_resolve():
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_workload_all_is_locked():
    assert sorted(repro.workload.__all__) == EXPECTED_WORKLOAD_API


def test_workload_all_names_resolve():
    for name in repro.workload.__all__:
        assert getattr(repro.workload, name) is not None


@pytest.mark.parametrize("package,expected", [
    (repro.symalg, EXPECTED_SYMALG_API),
    (repro.mapping, EXPECTED_MAPPING_API),
    (repro.library, EXPECTED_LIBRARY_API),
], ids=["symalg", "mapping", "library"])
def test_package_all_is_locked(package, expected):
    assert sorted(package.__all__) == expected
    for name in package.__all__:
        assert getattr(package, name) is not None


def test_cli_inventory_is_locked():
    assert _cli_inventory() == EXPECTED_CLI


def test_cli_subcommand_order_is_stable():
    assert list(_cli_inventory()) == [
        "map", "pareto", "sweep", "verify", "codegen",
        "workloads", "platforms", "cache", "serve",
    ]
