"""Layered CutQC benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-fd --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run.  Every FD,
top-k and DD output is checked against an exact reference to 1e-10; any
miss, or a difference in the counts that must repeat exactly for a seed,
makes the run exit non-zero.  The last line of standard output is the
JSON result; earlier lines carry provenance and the per-op breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("cold-fd", "warm-query", "served-mix")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p90_s": "s",
    "slo_met_ratio": "ratio",
    "peak_rss_mb": "MB",
}

def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _ops_per_s(outcome) -> float:
    """Completed ops per second.

    An open loop completes what its schedule sends, so its rate is
    completions over the timed phase.  A closed loop's rate is taken at
    each op key's median latency, weighted by how often the key ran: on
    a shared host the odd op slowed by a neighbour moves ``ops / elapsed``
    by several percent, but not the medians.
    """
    if outcome.open_loop:
        return (outcome.attempted - outcome.failed) / outcome.elapsed_seconds
    from measure import median

    runs = outcome.latencies_by_key.values()
    return sum(len(v) for v in runs) / sum(len(v) * median(v) for v in runs)


def end_to_end(outcome) -> dict:
    from measure import percentile

    done = outcome.latencies
    met = sum(1 for lat in done if lat <= outcome.slo_limit_s)
    values = {
        "setup_s": outcome.setup_seconds,
        "ops_per_s": _ops_per_s(outcome),
        "latency_p90_s": percentile(done, 90),
        "slo_met_ratio": met / outcome.attempted,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    return {name: _metric(values[name], END_TO_END_UNITS[name]) for name in values}


def main(argv=None) -> int:
    args = _arguments(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import measure
    import tracing

    traced = bool(args.trace)
    if args.workload == "served-mix":
        import served

        outcome = served.served_mix(ROOT, args.seed, args.seconds, traced)
    else:
        import local

        run = local.cold_fd if args.workload == "cold-fd" else local.warm_query
        outcome = run(ROOT, args.seed, args.seconds, traced)

    info = measure.provenance(ROOT, args.workload, args.seed, traced)
    info["modes"] = outcome.modes
    info["ops"] = outcome.attempted
    print("provenance " + json.dumps(info, sort_keys=True))
    for key, latencies in sorted(outcome.latencies_by_key.items()):
        print(
            f"op {key}: n={len(latencies)} "
            f"median {measure.median(latencies):.4f}s "
            f"max {max(latencies):.4f}s"
        )
    for failure in outcome.failures:
        print(f"FAILED {failure}")

    faults = []
    if traced:
        if outcome.tracer is not None:
            tracing.dump(outcome.tracer, ROOT / ".perfbench" / "traces" / (
                f"{args.workload}-{args.seed}.jsonl"
            ))
        metrics, counts, table = layers.per_layer(outcome)
        for line in table:
            print(line)
        if counts is not None:
            fault = measure.check_exact_counts(
                ROOT, args.workload, args.seed, info["source_digest"], counts
            )
            if fault is not None:
                faults.append(fault)
    else:
        metrics = end_to_end(outcome)
    faults += outcome.faults
    for fault in faults:
        print(f"FAULT {fault}")

    if outcome.failed or faults or outcome.attempted < 1:
        print(
            f"error: {outcome.failed} of {outcome.attempted} ops failed, "
            f"{len(faults)} benchmark fault(s); no result is scored",
            file=sys.stderr,
        )
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
