"""Per-layer metrics of a traced run, named after the program's modules."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import tracing
from measure import median

#: Counts that must repeat exactly for a given seed and program.
EXACT_COUNTS = (
    "cutting.searcher.cuts",
    "core.executor.variants",
    "core.executor.unique_circuits",
    "core.executor.body_passes",
    "postprocess.attribution.bytes",
    "postprocess.plan.cache_hits",
    "postprocess.plan.cache_misses",
    "postprocess.engine.terms",
    "postprocess.engine.skipped",
    "postprocess.dd.rounds",
    "postprocess.stream.shards",
)

#: Served-mix metrics, read from the job service's public reports
#: (job documents, ``/stats``); zero on the local workloads.
SERVED_UNITS = {
    "postprocess.parallel.tasks": "count",
    "postprocess.parallel.busy_s": "s",
    "postprocess.parallel.utilization": "ratio",
    "postprocess.parallel.bytes_published": "bytes",
    "service.api.submit_s": "s",
    "service.scheduler.queue_wait_s": "s",
    "service.scheduler.cut_s": "s",
    "service.scheduler.evaluate_s": "s",
    "service.scheduler.query_s": "s",
    "service.store.hit_ratio": "ratio",
    "service.store.bytes": "bytes",
    "service.journal.bytes": "bytes",
    "loadgen.lag_p90_s": "s",
    "loadgen.backlog_end": "count",
    "loadgen.polls_per_job": "count",
}


def _units() -> Dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in tracing.LAYERS}
    units.update({
        "cutting.searcher.calls": "count",
        "cutting.searcher.cuts": "count",
        "core.executor.variants": "count",
        "core.executor.body_passes": "count",
        "core.executor.dedup_ratio": "ratio",
        "postprocess.attribution.calls": "count",
        "postprocess.attribution.bytes": "bytes",
        "postprocess.plan.cache_hit_ratio": "ratio",
        "postprocess.engine.terms": "count",
        "postprocess.engine.skipped_ratio": "ratio",
        "postprocess.dd.rounds": "count",
        "postprocess.stream.shards": "count",
        "trace.coverage_ratio": "ratio",
        "trace.uncovered_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.dominant_layer_matches": "count",
        "failed_ops_ratio": "ratio",
        # Reported, not gated: over 10 seeds the served-mix median of 50
        # job latencies spread by 0.19-0.30 of its median, beyond the
        # largest bound an end-to-end metric may have.
        "latency_p50_s": "s",
    })
    units.update(SERVED_UNITS)
    return units


UNITS = _units()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _overhead(outcome) -> float:
    """Traced over untraced op time, per op key, weighted by traced ops."""
    traced_total = untraced_total = 0.0
    by_key: Dict[str, List[float]] = {}
    for op in outcome.tracer.ops:
        by_key.setdefault(op.key, []).append(op.wall_seconds)
    for key, walls in by_key.items():
        plain = outcome.untraced.get(key)
        if not plain:
            continue
        traced_total += sum(walls)
        untraced_total += len(walls) * sum(plain) / len(plain)
    return _ratio(traced_total, untraced_total) - 1.0 if untraced_total else 0.0


def _dominance(outcome) -> Tuple[int, List[str]]:
    """Per op key, the layer with the most self time (glue excluded)."""
    totals: Dict[str, Dict[str, float]] = {}
    walls: Dict[str, float] = {}
    for op in outcome.tracer.ops:
        layer_totals = totals.setdefault(op.key, {})
        for layer, seconds in op.self_seconds.items():
            layer_totals[layer] = layer_totals.get(layer, 0.0) + seconds
        walls[op.key] = walls.get(op.key, 0.0) + op.wall_seconds
    matches = 0
    lines = ["per-op-key self time (share of traced op wall time):"]
    for key in sorted(totals):
        ranked = sorted(
            (
                (seconds, layer)
                for layer, seconds in totals[key].items()
                if layer not in ("core.pipeline", tracing.OP_SPAN)
            ),
            reverse=True,
        )
        expected = outcome.dominant.get(key)
        top = ranked[0][1] if ranked else None
        if expected is not None and top == expected:
            matches += 1
        shares = ", ".join(
            f"{layer} {seconds / walls[key]:.0%}" for seconds, layer in ranked[:3]
        )
        verdict = ""
        if expected is not None:
            verdict = " [dominant as expected]" if top == expected else (
                f" [expected {expected}]"
            )
        lines.append(f"  {key}: {walls[key]:.3f}s: {shares}{verdict}")
    return matches, lines


def per_layer(outcome) -> Tuple[Dict, Optional[List[Dict]], List[str]]:
    """(metrics, exact counts of the count window or None, report lines)."""
    values = {name: 0.0 for name in UNITS}
    values["failed_ops_ratio"] = _ratio(outcome.failed, outcome.attempted)
    if outcome.latencies:
        values["latency_p50_s"] = median(outcome.latencies)
    values.update(outcome.extra)
    lines: List[str] = []
    counts = None
    tracer = outcome.tracer
    if tracer is not None and tracer.ops:
        ops = tracer.ops
        wall = sum(op.wall_seconds for op in ops)
        self_total: Dict[str, float] = {}
        for op in ops:
            for layer, seconds in op.self_seconds.items():
                self_total[layer] = self_total.get(layer, 0.0) + seconds
        for layer in tracing.LAYERS:
            values[f"{layer}.self_s"] = self_total.get(layer, 0.0) / len(ops)
        uncovered = self_total.get(tracing.OP_SPAN, 0.0)
        values["trace.uncovered_s"] = uncovered / len(ops)
        values["trace.coverage_ratio"] = 1.0 - _ratio(uncovered, wall)
        values["trace.overhead_ratio"] = _overhead(outcome)

        window = ops[: outcome.count_window]
        summed: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for op in window:
            for name, amount in op.counts.items():
                summed[name] = summed.get(name, 0) + amount
            for layer, number in op.calls.items():
                calls[layer] = calls.get(layer, 0) + number
        values["cutting.searcher.calls"] = calls.get("cutting.searcher", 0)
        values["postprocess.attribution.calls"] = calls.get(
            "postprocess.attribution", 0
        )
        for name in (
            "cutting.searcher.cuts", "core.executor.variants",
            "core.executor.body_passes", "postprocess.attribution.bytes",
            "postprocess.engine.terms", "postprocess.dd.rounds",
            "postprocess.stream.shards",
        ):
            values[name] = summed.get(name, 0)
        values["core.executor.dedup_ratio"] = _ratio(
            summed.get("core.executor.variants", 0),
            summed.get("core.executor.unique_circuits", 0),
        )
        hits = summed.get("postprocess.plan.cache_hits", 0)
        values["postprocess.plan.cache_hit_ratio"] = _ratio(
            hits, hits + summed.get("postprocess.plan.cache_misses", 0)
        )
        values["postprocess.engine.skipped_ratio"] = _ratio(
            summed.get("postprocess.engine.skipped", 0),
            summed.get("postprocess.engine.terms", 0),
        )
        counts = [
            {
                "key": op.key,
                "calls": dict(sorted(op.calls.items())),
                **{n: op.counts[n] for n in EXACT_COUNTS if n in op.counts},
            }
            for op in window
        ]
        matches, lines = _dominance(outcome)
        values["trace.dominant_layer_matches"] = matches
        lines.append(
            f"traced ops {len(ops)}, count window {len(window)} ops, "
            f"coverage {values['trace.coverage_ratio']:.1%}, "
            f"uncovered {values['trace.uncovered_s']:.4f}s/op, "
            f"wrapper overhead {values['trace.overhead_ratio']:+.1%}"
        )
    metrics = {
        name: {"value": float(values[name]), "unit": UNITS[name]}
        for name in UNITS
    }
    return metrics, counts, lines
