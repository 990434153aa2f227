"""Span tracing for traced runs, installed from outside the program.

:func:`install` wraps the entry points of each layer in a process that
runs the program (the HTTP server launched by :mod:`traced_server`, or
the cold-pipeline worker).  A function is replaced at every binding
site -- each ``repro.*`` module attribute or module-level dict value
that refers to it, such as ``repro.service.server.stable_digest`` -- and
a method on its class.  Untraced runs never import this module, so they
carry no wrapper.

A span records ``(id, parent, op, name, start, end, counts)``.  The
parent is the span open in the caller's context (a ``contextvars``
variable, so asyncio tasks inherit it); ``run_in_executor`` is patched
to carry the caller's context onto the executor thread, so work the
service offloads stays a child of its single-flight span.  ``op`` names
the operation the span belongs to: the request on the server, the item
in the worker.  Spans stay in memory until :meth:`Recorder.dump`.

Functions called too often for a span each (``flatten``, LRU lookups)
get a count-only probe that adds to a per-op counter.
"""

from __future__ import annotations

import asyncio
import collections
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

_SPAN = contextvars.ContextVar("perfbench_span", default=None)
_OP = contextvars.ContextVar("perfbench_op", default=None)

clock = time.monotonic


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.lock = threading.Lock()
        self.span_ids = itertools.count(1)
        self.op_ids = itertools.count(1)

    def dump(self, path, **extra) -> None:
        payload = {"spans": self.spans,
                   "counts": [[op, name, n] for (op, name), n in self.counts.items()],
                   **extra}
        with open(path, "w") as handle:
            json.dump(payload, handle)


RECORDER = Recorder()


def set_op(op_id):
    """Make ``op_id`` the current operation; returns the reset token."""
    return _OP.set(op_id)


def reset_op(token) -> None:
    _OP.reset(token)


def _open(new_op: bool) -> tuple:
    """Enter a span: ``(id, parent, op token, span token, start)``."""
    op_token = _OP.set(next(RECORDER.op_ids)) if new_op else None
    sid = next(RECORDER.span_ids)
    return sid, _SPAN.get(), op_token, _SPAN.set(sid), clock()


def _close(opened: tuple, name: str, counts) -> None:
    sid, parent, op_token, token, start = opened
    RECORDER.spans.append((sid, parent, _OP.get(), name, start, clock(), counts))
    _SPAN.reset(token)
    if op_token is not None:
        _OP.reset(op_token)


def span_wrapper(fn, name, counts=None, new_op=False):
    """``fn`` wrapped in a span named ``name``.

    ``counts(result, args, kwargs)`` returns a dict of counts recorded
    on the span; ``new_op`` starts a fresh operation id (request roots).
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            opened, found = _open(new_op), None
            try:
                result = await fn(*args, **kwargs)
                if counts is not None:
                    found = counts(result, args, kwargs)
                return result
            finally:
                _close(opened, name, found)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened, found = _open(new_op), None
        try:
            result = fn(*args, **kwargs)
            if counts is not None:
                found = counts(result, args, kwargs)
            return result
        finally:
            _close(opened, name, found)
    return wrapper


def count_wrapper(fn, name, classify=None):
    """``fn`` wrapped in a count-only probe: adds 1 to ``(op, name)``, or
    to ``(op, classify(result, args, kwargs))`` when that is not None."""
    store, lock = RECORDER.counts, RECORDER.lock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        key = name if classify is None else classify(result, args, kwargs)
        if key is not None:
            with lock:  # the service's executor threads count concurrently
                store[(_OP.get(), key)] += 1
        return result
    return wrapper


def patch_function(module_name: str, attr: str, make) -> None:
    """Replace ``module.attr`` by ``make(original)`` at every binding site."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapped


def patch_method(cls, attr: str, make) -> None:
    """Replace a method (or classmethod) on ``cls`` by ``make(original)``."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _propagate_context() -> None:
    """Run executor work inside the submitting context, so spans opened
    on a worker thread keep their parent and op."""
    loop_cls = asyncio.BaseEventLoop
    original = loop_cls.run_in_executor

    def run_in_executor(self, executor, func, *args):
        return original(self, executor, contextvars.copy_context().run, func, *args)

    loop_cls.run_in_executor = run_in_executor


def _output_terms(block, _args, _kwargs) -> dict:
    return {"output_terms": sum(len(p) for p in block.outputs.values())}


def _front_size(result, _args, _kwargs) -> dict:
    return {"front_size": len(result.front)}


def _batch_computed(report, _args, _kwargs) -> dict:
    return {"computed": report.stats.computed}


def _match_found(found, _args, _kwargs) -> dict:
    return {"match_calls": 1, "match_useful": int(found is not None)}


def _search_stats(result, _args, _kwargs) -> dict:
    return {"nodes_explored": result.nodes_explored, "pruned": result.pruned}


def _ir_size(kernel, _args, _kwargs) -> dict:
    return {"ir_instructions": len(kernel.instructions)}


def _vectors(_rows, args, kwargs) -> dict:
    stimulus = args[3] if len(args) > 3 else kwargs["stimulus"]
    return {"vectors": len(stimulus)}


def _lru_outcome(result, args, kwargs):
    """Tier LRU lookups only (the pure-function memo caches share the
    class but not the layer)."""
    cache = args[0]
    if cache.name not in ("map_block", "decompose"):
        return None
    default = args[2] if len(args) > 2 else kwargs.get("default")
    return "lru_miss" if result is default else "lru_hit"


def install(server: bool = False) -> None:
    """Wrap every traced layer; ``server`` adds the HTTP-front spans."""
    import repro.api  # noqa: F401  (bind every module before patching)
    import repro.codegen.verify  # noqa: F401
    import repro.library  # noqa: F401
    import repro.mapping  # noqa: F401
    import repro.workload  # noqa: F401
    from repro.api.session import MappingSession
    from repro.api.types import MapResult, ParetoResult, VerifyResult
    from repro.library.catalog import Library
    from repro.mapping.cache import DiskCache, LRUCache
    from repro.mapping.pareto import BlockParetoResult
    from repro.workload.registry import BlockSpec

    def span(name, counts=None, new_op=False):
        return lambda fn: span_wrapper(fn, name, counts, new_op)

    if server:
        from repro.service.server import MappingService
        from repro.service.singleflight import SingleFlight

        _propagate_context()
        patch_method(MappingService, "_handle_one", span("service.request", new_op=True))
        patch_method(SingleFlight, "run", span("service.singleflight"))

    patch_method(MappingSession, "batch", span("api.batch"))
    patch_function("repro.api.types", "canonical_json", span("api.render"))
    for cls in (MapResult, ParetoResult, VerifyResult):
        patch_method(cls, "to_json", span("api.render"))

    patch_function("repro.mapping.cache", "stable_digest",
                   span("mapping.cache.digest", lambda *_: {"digest_calls": 1}))
    for fingerprint in ("fingerprint_block", "fingerprint_library", "fingerprint_platform"):
        patch_function("repro.mapping.cache", fingerprint, span("mapping.cache.fingerprint"))
    patch_method(LRUCache, "get", lambda fn: count_wrapper(fn, "lru", _lru_outcome))
    patch_method(DiskCache, "get", span("mapping.cache.disk_get"))
    patch_method(DiskCache, "put", span("mapping.cache.disk_put",
                                        lambda *_: {"disk_writes": 1}))

    patch_function("repro.mapping.batch", "run_batch", span("mapping.batch.run", _batch_computed))
    patch_function("repro.mapping.match", "match_block", span("mapping.match.match_block", _match_found))
    patch_function("repro.mapping.decompose", "_decompose_uncached",
                   span("mapping.decompose.search", _search_stats))
    patch_method(BlockParetoResult, "from_matches", span("mapping.pareto.front", _front_size))

    patch_function("repro.symalg.ideal", "simplify_modulo",
                   span("symalg.simplify_modulo", lambda *_: {"simplify_modulo_calls": 1}))
    patch_function("repro.symalg.expression", "flatten",
                   lambda fn: count_wrapper(fn, "flatten_calls"))

    patch_function("repro.frontend.extract", "extract_block", span("frontend.extract", _output_terms))
    patch_method(BlockSpec, "build", span("workload.build"))

    for builder in ("reference_library", "linux_math_library", "inhouse_library", "ipp_library"):
        patch_function("repro.library.builtin", builder, span("library.build"))
    patch_method(Library, "union", span("library.build"))

    patch_function("repro.codegen.lower", "lower_match", span("codegen.lower", _ir_size))
    patch_function("repro.codegen.lower", "lower_block", span("codegen.lower", _ir_size))
    patch_function("repro.codegen.pysource", "compile_kernel", span("codegen.compile"))
    patch_function("repro.codegen.verify", "_run_vectors", span("codegen.kernel_run", _vectors))
    patch_function("repro.codegen.verify", "measure_match", span("codegen.measure"))
