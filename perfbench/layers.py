"""Per-layer metrics from a traced run's spans and counts.

A span's self time is its duration minus the part of it its child spans
cover; a layer's time is the sum of its spans' self times.  Spans and
counts are split by phase through their op: timed ops feed the per-op
``_ms`` figures and the counts, set-up (op ``None`` or a request sent
before the timed window) feeds ``library.build_ms`` and
``frontend.setup_extract_ms``.
"""

from __future__ import annotations

import collections

#: ``(metric, span name)``: per-op self time over the timed phase, in ms.
TIMED_MS = (
    ("service.singleflight_wait_ms", "service.singleflight"),
    ("api.batch_ms", "api.batch"),
    ("api.render_ms", "api.render"),
    ("mapping.cache.digest_ms", "mapping.cache.digest"),
    ("mapping.cache.fingerprint_ms", "mapping.cache.fingerprint"),
    ("mapping.cache.disk_get_ms", "mapping.cache.disk_get"),
    ("mapping.cache.disk_put_ms", "mapping.cache.disk_put"),
    ("mapping.batch.run_ms", "mapping.batch.run"),
    ("mapping.match.match_block_ms", "mapping.match.match_block"),
    ("mapping.decompose.search_ms", "mapping.decompose.search"),
    ("mapping.pareto.front_ms", "mapping.pareto.front"),
    ("symalg.simplify_modulo_ms", "symalg.simplify_modulo"),
    ("frontend.extract_ms", "frontend.extract"),
    ("workload.build_ms", "workload.build"),
    ("codegen.lower_ms", "codegen.lower"),
    ("codegen.compile_ms", "codegen.compile"),
    ("codegen.kernel_run_ms", "codegen.kernel_run"),
    ("codegen.measure_ms", "codegen.measure"),
)
#: ``(metric, count name)``: totals over the timed phase.
TIMED_COUNTS = (
    ("mapping.cache.digest_calls", "digest_calls"),
    ("mapping.cache.disk_writes", "disk_writes"),
    ("mapping.batch.computed", "computed"),
    ("mapping.decompose.nodes_explored", "nodes_explored"),
    ("mapping.pareto.front_size", "front_size"),
    ("symalg.simplify_modulo_calls", "simplify_modulo_calls"),
    ("symalg.flatten_calls", "flatten_calls"),
    ("frontend.output_terms", "output_terms"),
    ("codegen.ir_instructions", "ir_instructions"),
)
#: ``(metric, span name)``: set-up totals, in ms.
SETUP_MS = (
    ("library.build_ms", "library.build"),
    ("frontend.setup_extract_ms", "frontend.extract"),
)

UNITS = {"_ms": "ms", "_ratio": "ratio", "_pct": "%", "_per_s": "1/s"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """``{span id: self seconds}``."""
    children = collections.defaultdict(list)
    for sid, parent, _op, _name, start, end, _counts in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(start, end, children.get(sid, ()))
            for sid, _parent, _op, _name, start, end, _counts in spans}


def split_phases(trace: dict, window=None):
    """``(timed, setup)``, each ``(self seconds by span, counts by name,
    request seconds)``.

    Cold-worker traces list their ``timed_ops``; server traces are
    split by ``window``: a request (``service.request`` root) starting
    inside it is timed, one before it is set-up.
    """
    spans = trace["spans"]
    if "timed_ops" in trace:
        timed_ops = set(trace["timed_ops"])

        def phase(op):
            return "timed" if op in timed_ops else "setup" if op is None else None
    else:
        opened, closed = window
        roots = {op: s for _sid, _p, op, name, s, _e, _c in spans if name == "service.request"}

        def phase(op):
            if op is None:
                return "setup"
            begun = roots.get(op)
            if begun is None or begun > closed:
                return None
            return "timed" if begun >= opened else "setup"

    phases = {name: (collections.Counter(), collections.Counter(), [0.0])
              for name in ("timed", "setup")}
    selfs = self_times(spans)
    for sid, _parent, op, name, start, end, counts in spans:
        where = phases.get(phase(op))
        if where is None:
            continue
        where[0][name] += selfs[sid]
        if counts:
            where[1].update(counts)
        if name == "service.request":
            where[2][0] += end - start
    for op, name, n in trace["counts"]:
        where = phases.get(phase(op))
        if where is not None:
            where[1][name] += n
    return phases["timed"], phases["setup"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, result: dict) -> dict:
    """Every per-layer metric of a traced pass, ``{name: value}``.

    ``result`` is the pass's measurements: ``attempted``, ``latencies``
    and, for the HTTP workloads, the timed ``window`` and the
    ``/v1/stats`` pair.
    """
    n_ops = result["attempted"]
    (times, counts, request_s), (setup_times, _, _) = split_phases(trace, result.get("window"))
    metrics = {metric: times[span] * 1e3 / n_ops for metric, span in TIMED_MS}
    metrics.update({metric: counts[name] for metric, name in TIMED_COUNTS})
    metrics.update({metric: setup_times[span] * 1e3 for metric, span in SETUP_MS})
    metrics["service.transport_ms"] = (
        (sum(result["latencies"]) - request_s[0]) * 1e3 / n_ops if request_s[0] else 0.0)
    metrics["mapping.cache.lru_hit_ratio"] = _ratio(
        counts["lru_hit"], counts["lru_hit"] + counts["lru_miss"])
    metrics["mapping.match.useful_ratio"] = _ratio(counts["match_useful"], counts["match_calls"])
    metrics["mapping.decompose.pruned_ratio"] = _ratio(
        counts["pruned"], counts["pruned"] + counts["nodes_explored"])
    metrics["codegen.vectors_per_s"] = _ratio(counts["vectors"], times["codegen.kernel_run"])
    coalesced = started = shed = 0
    if "stats" in result:
        before, after = result["stats"]
        coalesced = after["singleflight"]["coalesced"] - before["singleflight"]["coalesced"]
        started = after["singleflight"]["started"] - before["singleflight"]["started"]
        shed = after["admission"]["shed"] - before["admission"]["shed"]
    metrics["service.coalesced_ratio"] = _ratio(coalesced, coalesced + started)
    metrics["resilience.shed_count"] = shed
    return metrics
