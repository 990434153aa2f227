"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload warm_http --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``warm_http``     -- LRU hits over HTTP, two closed-loop clients;
* ``miss_http``     -- never-seen keys over HTTP, one closed-loop client;
* ``cold_pipeline`` -- extraction, search, codegen in-process, cold.

``--trace 0`` measures the end-to-end metrics with no tracing code
loaded.  ``--trace 1`` runs the same operations twice, untraced and
then traced, and reports the per-layer metrics plus the tracing
overhead.  ``--seconds`` sizes the seeded operation list: whole rounds
of every key (or item), as many as take about that long on the
reference host, so every run of a workload does the same work.

Every answer is checked against ``expected.json``.  The last line of
standard output is the result object; the line before it holds detail
(sample counts, the tail percentile, error rate, host-speed probes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import cold_pipeline
import common
import http_workloads
import layers

WORKLOADS = ("warm_http", "miss_http", "cold_pipeline")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few keys and one round (the benchmark's own tests)")
    args = parser.parse_args(argv)
    common.build()
    common.WORK_DIR.mkdir(exist_ok=True)
    workload = cold_pipeline if args.workload == "cold_pipeline" else http_workloads

    probe_before = common.host_probe_ms()
    result = workload.run_pass(args)
    figures = workload.end_to_end(result)
    passes = [result]
    if args.trace:
        trace_out = common.WORK_DIR / f"trace-{args.workload}-{args.seed}-{time.time_ns()}.json"
        try:
            traced = workload.run_pass(args, trace_out)
            layer = layers.layer_metrics(json.loads(trace_out.read_text()), traced)
        finally:
            trace_out.unlink(missing_ok=True)
        passes.append(traced)
        untraced_rate = figures["ops_per_s"][0]
        traced_rate = workload.end_to_end(traced)["ops_per_s"][0]
        layer["trace.untraced_ops_per_s"] = untraced_rate
        layer["trace.ops_per_s"] = traced_rate
        layer["trace.overhead_pct"] = (untraced_rate - traced_rate) / untraced_rate * 100
        metrics = {name: {"value": value, "unit": layers.unit_of(name)}
                   for name, value in sorted(layer.items())}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in figures.items()}
    probe_after = common.host_probe_ms()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not any(p["incorrect"] or p.get("setup_wrong") for p in passes)
    samples = len(result["latencies"])
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "samples": samples,
        "tail_percentile": common.tail_quantile(samples) * 100,
        "error_rate": failed / attempted,
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "end_to_end": {name: value for name, (value, _unit) in figures.items()},
    }}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
