"""The two in-process workloads, driven through ``CutQC`` alone.

``cold-fd``  one caller, ``workers=1``: every op is a fresh
             ``CutQC(circuit, D).fd_query()`` on a freshly seeded circuit.
             The ops rotate through four circuits, each chosen so that one
             compute layer dominates it.
``warm-query`` one caller, ``workers=1``: four pipelines are cut and
             evaluated in set-up; the timed phase is a seeded stream of FD,
             top-k and DD queries on them, so cut search and evaluation do
             no work and attribution, collapse and contraction set the time.

With tracing on, ops run in alternating blocks, traced and untraced; the
traced blocks give per-layer self time and the pairing gives the wrapper
overhead.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import oracle
import tracing
from measure import median, peak_rss_mb_self

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fresh-interpreter cold starts timed for cold-fd's ``setup_s``: each
#: takes ~0.5 s and varies by ~20%, so it gets more repeats.
COLD_START_REPEATS = 5


@dataclass
class CircuitClass:
    """One rotation member of cold-fd."""

    name: str
    kind: str
    device_size: int
    build: Callable[[int], object]
    #: The layer expected to dominate this circuit's self time.
    dominant: str
    seeded: bool = True
    #: The seed changes the circuit but not its output distribution, so
    #: one exact reference, computed in set-up, serves every seed.
    seed_free_distribution: bool = False


def _cold_classes() -> List[CircuitClass]:
    from repro import adder, bv, hwea, supremacy

    return [
        CircuitClass("supremacy-12", "supremacy", 7,
                     lambda s: supremacy(12, depth=8, seed=s),
                     "cutting.searcher"),
        # supremacy-20 splits into two 13-qubit halves whose attribution
        # costs as much as their simulation; a 4-layer linear ansatz cuts
        # once per layer and leaves simulation dominant on every seed.  At
        # its default angles it prepares a GHZ state, and the seed draws
        # only diagonal RZ phases, which leave probabilities alone.
        CircuitClass("hwea-22", "hwea", 13,
                     lambda s: hwea(22, layers=4, seed=s),
                     "cutting.variants", seed_free_distribution=True),
        CircuitClass("adder-16", "adder", 10,
                     lambda s: adder(16, seed=s),
                     "postprocess.attribution"),
        CircuitClass("bv-24", "bv", 13, lambda s: bv(24),
                     "postprocess.engine", seeded=False),
    ]


@dataclass
class Outcome:
    """What a workload run measured, before it becomes metrics."""

    setup_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: Latency of each successful op by op key (the per-op breakdown).
    latencies_by_key: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    modes: Dict[str, List[str]] = field(default_factory=dict)
    slo_limit_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: Per-op latency of untraced ops by op key (overhead pairing).
    untraced: Dict[str, List[float]] = field(default_factory=dict)
    tracer: Optional[tracing.Tracer] = None
    #: The leading traced ops whose counts must repeat exactly.
    count_window: int = 0
    dominant: Dict[str, str] = field(default_factory=dict)
    #: Per-layer metrics measured outside the tracer (served-mix).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Duration of the timed phase.
    elapsed_seconds: float = 0.0
    #: Ops are sent on a schedule rather than after the previous reply.
    open_loop: bool = False
    #: Benchmark faults: the measurement itself cannot be trusted.
    faults: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def note_modes(self, key: str, modes: List[str]) -> None:
        known = self.modes.setdefault(key, [])
        for mode in modes:
            if mode not in known:
                known.append(mode)


def _cold_start_seconds(root: Path) -> float:
    """Fresh interpreter: import the package and answer one small FD query."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from repro import CutQC, bv;"
        "assert CutQC(bv(8), 5).fd_query().probabilities.size == 256"
    )
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(root / "src")],
        check=True, timeout=120, cwd=root,
    )
    return time.perf_counter() - began


class _Loop:
    """Block-alternating traced/untraced op loop with a time budget."""

    def __init__(self, outcome: Outcome, seconds: float, traced: bool, block: int):
        self.outcome = outcome
        self.seconds = seconds
        self.traced = traced
        self.block = block
        self.spent = 0.0
        self.index = 0

    def tracing_now(self) -> bool:
        return self.traced and (self.index // self.block) % 2 == 0

    def done(self) -> bool:
        """Stop only at block boundaries, once the budget is spent."""
        return self.index % self.block == 0 and self.spent >= self.seconds

    def run(self, key: str, op: Callable[[], Tuple[object, List[str]]]):
        """Time ``op``; returns its value, or None when it raised."""
        tracer = self.outcome.tracer
        traced = self.tracing_now()
        self.outcome.attempted += 1
        if traced:
            tracer.begin_op(key)
        began = time.perf_counter()
        value = None
        try:
            value = op()
        except Exception as error:  # noqa: BLE001 - a failed op is counted
            self.outcome.fail(f"{key}: {type(error).__name__}: {error}")
        elapsed = time.perf_counter() - began
        self.outcome.elapsed_seconds += elapsed
        if traced:
            tracer.end_op()
        elif self.traced:
            self.outcome.untraced.setdefault(key, []).append(elapsed)
        self.spent += elapsed
        self.index += 1
        if value is not None:
            self.outcome.latencies.append(elapsed)
            self.outcome.latencies_by_key.setdefault(key, []).append(elapsed)
        return value


def cold_fd(root: Path, seed: int, seconds: float, traced: bool) -> Outcome:
    from repro import CutQC

    outcome = Outcome(slo_limit_s=10.0)
    outcome.setup_seconds = median(
        [_cold_start_seconds(root) for _ in range(COLD_START_REPEATS)]
    )
    classes = _cold_classes()
    fixed_references = {
        spec.name: oracle.reference_for(
            spec.kind, circuit.num_qubits, circuit
        )
        for spec in classes
        if spec.seed_free_distribution
        for circuit in [spec.build(0)]
    }
    # Warm the process (allocator arenas, BLAS, per-shape code paths) on
    # one circuit of every class outside the seeded stream: the first op
    # of a class in a process runs up to 1.7x slower than later ones.
    for spec in classes:
        CutQC(spec.build(10**6), spec.device_size).fd_query()

    if traced:
        outcome.tracer = tracing.Tracer()
        undo = tracing.install(outcome.tracer)
    rng = np.random.default_rng(seed)
    loop = _Loop(outcome, seconds, traced, block=len(classes))
    outcome.count_window = len(classes)
    try:
        while not loop.done():
            spec = classes[loop.index % len(classes)]
            circuit_seed = int(rng.integers(1 << 30)) if spec.seeded else None
            circuit = spec.build(circuit_seed)

            def op(spec=spec, circuit=circuit):
                pipeline = CutQC(circuit, spec.device_size)
                return pipeline, pipeline.fd_query()

            value = loop.run(spec.name, op)
            if value is None:
                continue
            pipeline, result = value
            report = pipeline.execution_report
            outcome.note_modes(spec.name, [
                f"executor={report.mode}/sim_batch={report.sim_batch}",
                f"engine={result.stats.strategy}",
            ])
            reference = fixed_references.get(spec.name) or oracle.reference_for(
                spec.kind, circuit.num_qubits, circuit, seed=circuit_seed
            )
            error = reference.check_fd(result.probabilities)
            if error is not None:
                outcome.fail(f"{spec.name} seed {circuit_seed}: {error}")
            del pipeline, result, value
    finally:
        if traced:
            tracing.uninstall(undo)
    outcome.peak_rss_mb = peak_rss_mb_self()
    outcome.dominant = {spec.name: spec.dominant for spec in classes}
    return outcome


# -- warm-query -----------------------------------------------------------

#: (key, pipeline, query, parameters, weight).  The stream is a sequence
#: of decks, each holding every op ``weight`` times in seeded order, so a
#: run always ends on a whole deck and every seed runs the same mix.  The
#: weights place the latency percentiles inside groups of like ops rather
#: than on a boundary between them, where they would jump between seeds:
#: 9 of 21 ops take < 60 ms, the median falls among the 4 aqft-14 FD
#: re-queries (~0.09 s) and p90 among the 3 attribution-bound adder-16
#: FD/DD re-queries (~1.7 s, 14% of the ops).
WARM_MENU = [
    ("aqft-14:top_k", "aqft-14", "top_k", {"shard_qubits": 4, "k": 5}, 2),
    ("bv-33:top_k", "bv-33", "top_k",
     {"shard_qubits": 27, "k": 3, "shards": [0, 1 << 20, (1 << 27) - 1]}, 2),
    ("bv-24:dd", "bv-24", "dd", {"active": 12, "recursions": 2}, 2),
    ("adder-16:top_k", "adder-16", "top_k", {"shard_qubits": 2, "k": 5}, 1),
    ("bv-33:dd", "bv-33", "dd", {"active": 11, "recursions": 3}, 2),
    ("aqft-14:fd", "aqft-14", "fd", {}, 4),
    ("aqft-14:dd", "aqft-14", "dd", {"active": 7, "recursions": 3}, 2),
    ("bv-24:top_k", "bv-24", "top_k", {"shard_qubits": 4, "k": 3}, 2),
    ("bv-24:fd", "bv-24", "fd", {}, 1),
    ("adder-16:fd", "adder-16", "fd", {}, 2),
    ("adder-16:dd", "adder-16", "dd", {"active": 8, "recursions": 2}, 1),
]

#: Fixed adder operands, so warm-query's pipelines are seed-independent.
_ADDER_SEED = 7


def _warm_pipelines():
    from repro import CutQC, adder, aqft, bv

    circuits = {
        "adder-16": ("adder", adder(16, seed=_ADDER_SEED), 10),
        "bv-24": ("bv", bv(24), 13),
        "aqft-14": ("aqft", aqft(14), 10),
        "bv-33": ("bv", bv(33), 17),
    }
    pipelines = {}
    for name, (kind, circuit, device_size) in circuits.items():
        pipeline = CutQC(circuit, device_size)
        pipeline.evaluate()
        # The first top-k builds the pipeline's streamer (its term
        # tensors); later top-k queries reuse it.
        pipeline.fd_top_k(circuit.num_qubits - 1, 1, [0])
        pipelines[name] = (kind, circuit, pipeline)
    return pipelines


def _prefixes(params: Dict, num_qubits: int) -> Tuple[Optional[List[int]], List[str]]:
    width = params["shard_qubits"]
    shards = params.get("shards")
    indices = shards if shards is not None else list(range(1 << width))
    return shards, [format(i, f"0{width}b") for i in indices]


def warm_query(root: Path, seed: int, seconds: float, traced: bool) -> Outcome:
    outcome = Outcome(slo_limit_s=3.0)
    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        pipelines = _warm_pipelines()
        setups.append(time.perf_counter() - began)
    outcome.setup_seconds = median(setups)
    references = {
        name: oracle.reference_for(
            kind, circuit.num_qubits, circuit, seed=_ADDER_SEED
        )
        for name, (kind, circuit, _) in pipelines.items()
    }

    if traced:
        outcome.tracer = tracing.Tracer()
        undo = tracing.install(outcome.tracer)
    rng = np.random.default_rng(seed)
    deck = [entry for entry in WARM_MENU for _ in range(entry[4])]
    loop = _Loop(outcome, seconds, traced, block=len(deck))
    outcome.count_window = len(deck)
    order: List[int] = []
    try:
        while not loop.done():
            if not order:
                order = list(rng.permutation(len(deck)))
            key, name, query, params, _ = deck[order.pop()]
            kind, circuit, pipeline = pipelines[name]
            reference = references[name]
            if query == "fd":
                value = loop.run(key, pipeline.fd_query)
                error = value and reference.check_fd(value.probabilities)
                modes = value and [f"engine={value.stats.strategy}"]
            elif query == "top_k":
                shards, prefixes = _prefixes(params, circuit.num_qubits)
                value = loop.run(key, lambda: pipeline.fd_top_k(
                    params["shard_qubits"], params["k"], shards
                ))
                error = value and reference.check_top(
                    value, params["k"], prefixes
                )
                stats = pipeline.stream_stats
                modes = value and [f"stream={stats.transport}"]
            else:
                value = loop.run(key, lambda: pipeline.dd_query(
                    max_active_qubits=params["active"],
                    max_recursions=params["recursions"],
                ))
                error = value and reference.check_dd(value.recursions)
                modes = value and [f"dd_zoom_width={value.zoom_width}"]
            if value is None:
                continue
            outcome.note_modes(key, modes)
            if error is not None:
                outcome.fail(f"{key}: {error}")
    finally:
        if traced:
            tracing.uninstall(undo)
    outcome.peak_rss_mb = peak_rss_mb_self()
    return outcome
