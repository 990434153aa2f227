"""Public-API snapshot: ``repro.api.__all__``, ``repro.workload.__all__``
and the CLI inventory.

These are deliberate change detectors.  If a PR alters any of these
surfaces, this file must be edited in the same PR — that is the point:
the public surface changes deliberately, never as a side effect.
"""

import argparse

import repro.api
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
        "--emit",
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
    "serve": [
        "--cache-dir",
        "--drain-grace",
        "--host",
        "--max-inflight",
        "--port",
        "--request-timeout",
        "--retry-after",
        "--verbose",
        "--workers",
    ],
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


def test_cli_inventory_is_locked():
    assert _cli_inventory() == EXPECTED_CLI


def test_cli_subcommand_order_is_stable():
    assert list(_cli_inventory()) == [
        "map", "pareto", "sweep", "verify", "codegen",
        "workloads", "platforms", "cache", "serve",
    ]
