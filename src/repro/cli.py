"""``python -m repro`` — the first-class command-line interface.

The zero-to-mapped path without booting the HTTP server: every
subcommand builds one :class:`~repro.api.MappingSession` (environment
knobs honored via :meth:`~repro.api.SessionConfig.from_env`, an
explicit ``--cache-dir`` winning) and calls the same facade methods
library code uses.

``--json`` output is the *canonical wire format*: ``repro map ...
--json`` prints byte-for-byte the body a running service would answer
on ``/v1/map`` for the same request — asserted in
``tests/api/test_cli.py`` and smoke-checked in CI.

=============  =========================================================
``map``        scalar block mapping (cycles winner + every match)
``pareto``     the (cycles, energy, accuracy) non-dominated front
``sweep``      the multi-platform sweep (canonical sweep JSON)
``verify``     measure the winner's generated kernel (codegen loop)
``codegen``    print the winner's generated fixed-point Python source
``workloads``  the workload registry (block names per workload)
``platforms``  the processor registry
``cache``      session cache statistics / clearing
``serve``      run the HTTP service (``python -m repro.service``)
=============  =========================================================

``map``/``pareto``/``sweep`` take ``--workload`` to resolve block
names in a non-default workload (``repro map idct8x8 --workload
jpeg_idct``); ``repro workloads --json`` prints byte-for-byte the
``/v1/workloads`` body.

Library selections are forgiving about separators and case:
``--library LM+IH``, ``--library lm_ih`` and ``--library LM,IH`` all
name the same catalog tags.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from repro.api import MappingSession, SessionConfig, canonical_json
from repro.api.types import checked_accuracy_budget, checked_tolerance
from repro.errors import ReproError, ServiceError

__all__ = ["build_parser", "main"]

_TAG_SPLIT = re.compile(r"[+,_\s]+")


def _parse_tags(text: str) -> tuple[str, ...]:
    """Catalog tags from a separator-agnostic, case-insensitive combo."""
    return tuple(part.upper() for part in _TAG_SPLIT.split(text) if part)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _knob(check):
    """An argparse type checking a float with one of the wire's knob
    rules (:mod:`repro.api.types`), refused with the service's 400
    wording so both surfaces refuse identically."""

    def parse(text: str) -> float:
        try:
            return check(_float(text))
        except ServiceError as err:
            raise argparse.ArgumentTypeError(err.message) from None

    return parse


_tolerance = _knob(checked_tolerance)
_accuracy_budget = _knob(checked_accuracy_budget)


def _parse_list(text: str) -> tuple[str, ...]:
    """A comma-separated name list (platform keys, block names)."""
    return tuple(part for part in (p.strip() for p in text.split(",")) if part)


def build_parser() -> argparse.ArgumentParser:
    """The CLI surface (locked by ``tests/api/test_surface.py``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic-algebra library mapping (DAC 2002 reproduction): "
        "map target blocks onto complex library elements from the command "
        "line, through the same repro.api.MappingSession the service uses.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_session_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            help="pin the persistent mapping cache to this directory "
            "(default: REPRO_CACHE_DIR, if set)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="print the canonical JSON wire format instead of a table",
        )

    def add_map_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("block", help="target block name (e.g. inv_mdctL)")
        p.add_argument(
            "--library",
            default=None,
            help="library tag combo, any of +,_ as separators "
            "(e.g. LM+IH or lm_ih; default: REF+LM+IH+IPP)",
        )
        p.add_argument(
            "--platform",
            default=None,
            help="processor registry key (default: SA-1110)",
        )
        p.add_argument(
            "--tolerance",
            type=_tolerance,
            default=None,
            help="coefficient-match tolerance (default: 1e-6)",
        )
        p.add_argument(
            "--accuracy-budget",
            type=_accuracy_budget,
            default=None,
            help="maximum acceptable accuracy loss (default: unbounded)",
        )
        p.add_argument(
            "--workload",
            default=None,
            help="workload registry key the block name resolves in "
            "(default: mp3; see `repro workloads`)",
        )
        add_session_options(p)

    p_map = sub.add_parser("map", help="map one block to its cheapest element")
    add_map_options(p_map)

    p_pareto = sub.add_parser(
        "pareto", help="the (cycles, energy, accuracy) front for one block"
    )
    add_map_options(p_pareto)

    p_sweep = sub.add_parser(
        "sweep", help="map every block x library x platform combination"
    )
    p_sweep.add_argument(
        "--platforms",
        default=None,
        help="comma-separated registry keys (default: all registered)",
    )
    p_sweep.add_argument(
        "--libraries",
        default=None,
        help="comma-separated tag combos, e.g. REF+LM+IH,REF+LM+IH+IPP "
        "(default: the paper's ladder)",
    )
    p_sweep.add_argument(
        "--blocks",
        default=None,
        help="comma-separated block names (default: all catalog blocks)",
    )
    p_sweep.add_argument(
        "--tolerance",
        type=_tolerance,
        default=None,
        help="coefficient-match tolerance (default: 1e-6)",
    )
    p_sweep.add_argument(
        "--accuracy-budget",
        type=_accuracy_budget,
        default=None,
        help="maximum acceptable accuracy loss (default: unbounded)",
    )
    p_sweep.add_argument(
        "--workload",
        default=None,
        help="workload registry key to sweep (default: mp3; see `repro workloads`)",
    )
    add_session_options(p_sweep)

    p_verify = sub.add_parser(
        "verify",
        help="measure the winner's generated fixed-point kernel against "
        "the exact float64 reference (ISO 11172-4 bands)",
    )
    add_map_options(p_verify)

    p_codegen = sub.add_parser(
        "codegen",
        help="print the winner's generated kernel source",
    )
    add_map_options(p_codegen)
    p_codegen.add_argument(
        "--emit",
        choices=("python",),
        default="python",
        help="target language of the emitted kernel (default: %(default)s)",
    )

    p_workloads = sub.add_parser("workloads", help="list the workload registry")
    add_session_options(p_workloads)

    p_platforms = sub.add_parser("platforms", help="list the processor registry")
    add_session_options(p_platforms)

    p_cache = sub.add_parser("cache", help="session cache statistics / clearing")
    p_cache.add_argument(
        "action",
        choices=("stats", "clear"),
        help="'stats' prints the canonical cache statistics; "
        "'clear' empties the session's tiers (memory + disk)",
    )
    add_session_options(p_cache)

    p_serve = sub.add_parser(
        "serve", help="run the mapping service (HTTP/JSON front-end)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port; 0 picks an ephemeral one (default: 8357)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fork N worker processes behind the port (the fleet "
        "front; SIGHUP rolls them over one at a time; default: one "
        "in-process service)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="pin the persistent mapping cache tier to this directory",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request wall-clock bound, seconds; expiry answers "
        "503 + Retry-After (default: 300)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission bound: shed requests past N in flight with "
        "429 + Retry-After (default: unbounded)",
    )
    p_serve.add_argument(
        "--retry-after",
        type=float,
        default=None,
        help="seconds advertised in Retry-After on 429/503 sheds (default: 1)",
    )
    p_serve.add_argument(
        "--drain-grace",
        type=float,
        default=None,
        help="seconds SIGTERM waits for in-flight work before stopping "
        "(default: 30)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="debug-level logging"
    )

    return parser


def _session(args: argparse.Namespace) -> MappingSession:
    # Only a given directory is passed: from_env(cache_dir=None) would
    # override REPRO_CACHE_DIR with None.
    cache_dir = getattr(args, "cache_dir", None)
    overrides = {"cache_dir": cache_dir} if cache_dir else {}
    return MappingSession(SessionConfig.from_env(**overrides))


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _cmd_map(args: argparse.Namespace) -> int:
    session = _session(args)
    library = _parse_tags(args.library) if args.library else None
    result = session.map(
        args.block,
        library,
        args.platform,
        tolerance=args.tolerance,
        accuracy_budget=args.accuracy_budget,
        workload=args.workload,
    )
    if args.json:
        _emit(result.to_json().decode("ascii"))
        return 0
    request = result.request
    _emit(f"block     {request.block}")
    _emit(f"platform  {request.platform} ({result.platform.processor.name})")
    _emit(f"library   {'+'.join(request.library)}")
    _emit(f"mapped    {str(result.mapped).lower()}")
    cycles = result.platform.cost_model.cycles
    for match in result.matches:
        marker = "*" if match is result.winner else " "
        element = match.element
        _emit(
            f"  {marker} {element.name:<28} {element.library:<4} "
            f"{cycles(element.cost):>14,.0f} cyc  err {element.accuracy:.1e}"
        )
    if not result.matches:
        _emit("  (no adequate element)")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    session = _session(args)
    library = _parse_tags(args.library) if args.library else None
    result = session.pareto(
        args.block,
        library,
        args.platform,
        tolerance=args.tolerance,
        accuracy_budget=args.accuracy_budget,
        workload=args.workload,
    )
    if args.json:
        _emit(result.to_json().decode("ascii"))
        return 0
    request = result.request
    _emit(f"block     {request.block}")
    _emit(f"platform  {request.platform} ({result.result.platform_name})")
    _emit(f"library   {'+'.join(request.library)}")
    _emit(f"winner    {result.winner_name or '<unmapped>'}")
    for point in result.front:
        o = point.objectives
        _emit(
            f"  - {point.element_name:<28} {o.cycles:>14,.0f} cyc  "
            f"{o.energy_j:>10.3e} J  err {o.accuracy:.1e}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    session = _session(args)
    libraries = None
    if args.libraries:
        # Each combo is as forgiving as `map --library`: lm_ih == LM+IH.
        libraries = [
            "+".join(_parse_tags(combo)) for combo in _parse_list(args.libraries)
        ]
    report = session.sweep(
        platforms=_parse_list(args.platforms) if args.platforms else None,
        libraries=libraries,
        blocks=_parse_list(args.blocks) if args.blocks else None,
        tolerance=args.tolerance,
        accuracy_budget=args.accuracy_budget,
        workload=args.workload,
    )
    if args.json:
        _emit(report.to_json())
        return 0
    _emit(report.format_report())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    session = _session(args)
    library = _parse_tags(args.library) if args.library else None
    result = session.verify(
        args.block,
        library,
        args.platform,
        tolerance=args.tolerance,
        accuracy_budget=args.accuracy_budget,
        workload=args.workload,
    )
    if args.json:
        _emit(result.to_json().decode("ascii"))
        return 0
    request = result.request
    _emit(f"block     {request.block}")
    _emit(f"platform  {request.platform} ({result.platform.processor.name})")
    _emit(f"library   {'+'.join(request.library)}")
    _emit(f"mapped    {str(result.mapped).lower()}")
    m = result.measurement
    if m is None:
        _emit("  (no adequate element; nothing to verify)")
        return 0
    _emit(f"element   {m.element} ({m.element_library})")
    _emit(f"formats   {m.input_format} -> {m.output_format}")
    _emit(f"declared  {m.declared_accuracy:.3e}")
    _emit(f"rms       {m.rms_error:.3e}")
    _emit(f"max       {m.max_error:.3e}")
    _emit(f"snr       {m.snr_db:.1f} dB")
    _emit(f"band      {m.compliance}  ({m.n_vectors} vectors)")
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    session = _session(args)
    library = _parse_tags(args.library) if args.library else None
    result = session.map(
        args.block,
        library,
        args.platform,
        tolerance=args.tolerance,
        accuracy_budget=args.accuracy_budget,
        workload=args.workload,
    )
    if result.winner is None:
        print(
            f"error: no adequate element maps block {result.request.block!r}",
            file=sys.stderr,
        )
        return 2
    from repro.codegen import element_formats, emit_python, lower_match

    block_obj = session.blocks(result.request.workload)[result.request.block]
    kernel = lower_match(block_obj, result.winner)
    in_fmt, out_fmt = element_formats(result.winner.element)
    source = emit_python(kernel, in_fmt, out_fmt)
    if args.json:
        payload = {
            "block": result.request.block,
            "platform": result.request.platform,
            "processor": result.platform.processor.name,
            "library": "+".join(result.request.library),
            "workload": result.request.workload,
            "element": result.winner.element.name,
            "element_library": result.winner.element.library,
            "emit": args.emit,
            "input_format": result.winner.element.input_format,
            "output_format": result.winner.element.output_format,
            "source": source,
        }
        _emit(canonical_json(payload).decode("ascii"))
        return 0
    _emit(source.rstrip("\n"))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    session = _session(args)
    payload = session.workloads_payload()
    if args.json:
        _emit(canonical_json(payload).decode("ascii"))
        return 0
    for entry in payload["workloads"]:
        default = "*" if entry["key"] == payload["default"] else " "
        _emit(f"{default} {entry['key']:<10} {entry['title']}")
        _emit(f"    blocks: {', '.join(entry['blocks'])}")
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    session = _session(args)
    payload = session.platforms_payload()
    if args.json:
        _emit(canonical_json(payload).decode("ascii"))
        return 0
    for entry in payload["platforms"]:
        default = "*" if entry["key"] == payload["default"] else " "
        fpu = "fpu" if entry["has_fpu"] else "soft-float"
        _emit(
            f"{default} {entry['key']:<10} {entry['processor']:<24} "
            f"{entry['clock_hz'] / 1e6:>7.1f} MHz  {fpu}"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    session = _session(args)
    if args.action == "clear":
        session.clear_caches()
        _emit("cleared session cache tiers (memory + disk) and shared caches")
        return 0
    stats = session.stats()
    if args.json:
        _emit(canonical_json(stats).decode("ascii"))
        return 0
    _emit(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Delegate to the service's own entry point (one arg-handling
    # path, one serve loop), re-rendering only the flags the user set
    # so its defaults stay authoritative.
    from repro.service.__main__ import main as serve_main

    argv = ["--host", args.host]
    if args.port is not None:
        argv += ["--port", str(args.port)]
    if args.workers is not None:
        argv += ["--workers", str(args.workers)]
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    if args.request_timeout is not None:
        argv += ["--request-timeout", str(args.request_timeout)]
    if args.max_inflight is not None:
        argv += ["--max-inflight", str(args.max_inflight)]
    if args.retry_after is not None:
        argv += ["--retry-after", str(args.retry_after)]
    if args.drain_grace is not None:
        argv += ["--drain-grace", str(args.drain_grace)]
    if args.verbose:
        argv += ["--verbose"]
    serve_main(argv)
    return 0


_COMMANDS = {
    "map": _cmd_map,
    "pareto": _cmd_pareto,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "codegen": _cmd_codegen,
    "workloads": _cmd_workloads,
    "platforms": _cmd_platforms,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
}


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
