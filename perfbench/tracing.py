"""Per-layer self time, recorded from outside the program.

The benchmark wraps each layer's public entry point at every module that
binds it (``from .searcher import find_cuts`` makes a second binding in
``repro.core.pipeline``), records one parent-linked span per call and
derives a layer's *self time* as a span's duration minus the time its
child spans cover.  Nothing in ``src/`` is modified: :func:`install`
patches the bindings and :func:`uninstall` restores the originals.

Layer names are the program's module paths, so a later change that moves
a layer's time can be named by the module it touched.  ``SPAN_ALIASES``
maps each layer to the span the program's own tracer
(:mod:`repro.obs.trace`) opens around the same work, so in-program
tracing can adopt these names.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Span of the benchmark's own op loop; its self time is the op's
#: wall time that no layer span covers.
OP_SPAN = "bench.op"

#: Benchmark layer -> the in-program span (``repro.obs.trace``) opened
#: around the same work, or None where the program has no span yet.
SPAN_ALIASES = {
    "core.pipeline": "job (service root span)",
    "cutting.searcher": "cut.search",
    "cutting.cutter": "cut.split",
    "core.executor": "evaluate.dispatch",
    "cutting.variants": "evaluate.variant_batch",
    "postprocess.attribution": None,
    "postprocess.plan": "query.plan.execute",
    "postprocess.engine": "contract",
    "postprocess.reconstruct": None,
    "postprocess.dd": "query.dd.round",
    "postprocess.stream": "query.stream.shard",
}

LAYERS = tuple(SPAN_ALIASES)


@dataclass
class _Frame:
    layer: str
    parent: Optional[int]
    began: float
    child_seconds: float = 0.0


@dataclass
class OpTrace:
    """Everything one traced op recorded: wall, per-layer self time, counts."""

    key: str
    wall_seconds: float = 0.0
    self_seconds: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    modes: List[str] = field(default_factory=list)
    spans: int = 0


class Tracer:
    """Parent-linked span recorder for one single-threaded op loop.

    Spans are kept in memory as ``(id, parent, layer, start, end)`` and
    self time is folded into the current :class:`OpTrace` when a span
    closes.  When no op is open the wrappers call straight through.
    """

    def __init__(self) -> None:
        self.ops: List[OpTrace] = []
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._frames: Dict[int, _Frame] = {}
        self._op: Optional[OpTrace] = None
        self._ids = itertools.count()

    @property
    def active(self) -> bool:
        return self._op is not None

    def begin_op(self, key: str) -> None:
        self._op = OpTrace(key)
        self._push(OP_SPAN)

    def end_op(self) -> OpTrace:
        frame_id = self._stack[-1]
        seconds = self._pop(frame_id)
        op = self._op
        op.wall_seconds = seconds
        self._op = None
        self.ops.append(op)
        return op

    def count(self, name: str, amount: float) -> None:
        if self._op is not None:
            self._op.counts[name] = self._op.counts.get(name, 0) + amount

    def mode(self, text: str) -> None:
        if self._op is not None and text not in self._op.modes:
            self._op.modes.append(text)

    # ------------------------------------------------------------------
    def _push(self, layer: str) -> int:
        frame_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._frames[frame_id] = _Frame(layer, parent, time.perf_counter())
        self._stack.append(frame_id)
        return frame_id

    def _pop(self, frame_id: int) -> float:
        ended = time.perf_counter()
        self._stack.pop()
        frame = self._frames.pop(frame_id)
        seconds = ended - frame.began
        if frame.parent is not None:
            self._frames[frame.parent].child_seconds += seconds
        op = self._op
        op.self_seconds[frame.layer] = (
            op.self_seconds.get(frame.layer, 0.0)
            + seconds - frame.child_seconds
        )
        op.calls[frame.layer] = op.calls.get(frame.layer, 0) + 1
        op.spans += 1
        self.spans.append(
            (frame_id, frame.parent, frame.layer, frame.began, ended)
        )
        return seconds

    def wrap(
        self,
        fn: Callable,
        layer: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as a ``layer`` span while an op is open.

        ``before(args, kwargs)`` returns a token handed to
        ``after(tracer, token, args, kwargs, result)``, which records the
        call's counts.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            frame_id = self._push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame_id)
            if after is not None:
                after(self, token, args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper


def dump(tracer: Tracer, path) -> None:
    """Write every recorded span as one JSON line: id, parent, layer,
    start and end (``perf_counter`` seconds)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "parent", "layer", "start", "end")
    with open(path, "w") as stream:
        for span in tracer.spans:
            stream.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- count hooks ----------------------------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _after_find_cuts(tracer, _token, _args, _kwargs, solution):
    tracer.count("cutting.searcher.cuts", solution.num_cuts)


def _after_executor_run(tracer, _token, args, _kwargs, _result):
    report = args[0].last_report
    if report is None:
        return
    tracer.count("core.executor.variants", report.num_variants)
    tracer.count("core.executor.unique_circuits", report.num_unique_circuits)
    tracer.count("core.executor.body_passes", report.num_body_passes or 0)
    tracer.mode(f"executor={report.mode}/sim_batch={report.sim_batch}")


def _after_build_term_tensor(tracer, _token, _args, _kwargs, tensor):
    tracer.count("postprocess.attribution.bytes", tensor.data.nbytes)


def _before_collapsed(args, _kwargs):
    stats = args[0].cache_stats
    return stats.hits, stats.misses


def _after_collapsed(tracer, token, args, _kwargs, _result):
    stats = args[0].cache_stats
    tracer.count("postprocess.plan.cache_hits", stats.hits - token[0])
    tracer.count("postprocess.plan.cache_misses", stats.misses - token[1])


def _after_contract(tracer, _token, args, kwargs, result):
    tracer.count("postprocess.engine.terms", 4 ** _arg(args, kwargs, 3, "num_cuts"))
    tracer.count("postprocess.engine.skipped", result.num_skipped)
    tracer.mode(f"engine={result.strategy}")


def _after_contract_batch(tracer, _token, args, kwargs, results):
    batch = _arg(args, kwargs, 1, "batch")
    tracer.count(
        "postprocess.engine.terms", sum(4 ** item[2] for item in batch)
    )
    tracer.count(
        "postprocess.engine.skipped", sum(r.num_skipped for r in results)
    )
    for result in results:
        tracer.mode(f"engine={result.strategy}")


def _after_dd_run(tracer, _token, args, _kwargs, _result):
    tracer.count("postprocess.dd.rounds", args[0].stats().num_rounds)


def _after_top_k(tracer, _token, args, _kwargs, _result):
    stats = args[0].last_stats
    if stats is not None:
        tracer.count("postprocess.stream.shards", stats.num_shards_emitted)


# -- installation ---------------------------------------------------------

def _targets():
    """(owner, attribute, layer, before, after) for every wrapped entry."""
    from repro.core.executor import VariantExecutor
    from repro.core.pipeline import CutQC
    from repro.cutting import searcher, variants
    from repro.cutting.searcher import CutSolution
    from repro.postprocess import attribution
    from repro.postprocess.dd import DynamicDefinitionQuery
    from repro.postprocess.engine import ContractionEngine
    from repro.postprocess.plan import CachingTensorProvider
    from repro.postprocess.reconstruct import Reconstructor
    from repro.postprocess.stream import StreamingReconstructor

    return [
        (searcher, "find_cuts", "cutting.searcher", None, _after_find_cuts),
        (CutSolution, "apply", "cutting.cutter", None, None),
        (VariantExecutor, "run", "core.executor", None, _after_executor_run),
        (variants, "batched_variant_probabilities", "cutting.variants",
         None, None),
        (attribution, "build_term_tensor", "postprocess.attribution",
         None, _after_build_term_tensor),
        (CachingTensorProvider, "collapsed", "postprocess.plan",
         _before_collapsed, _after_collapsed),
        (ContractionEngine, "contract", "postprocess.engine",
         None, _after_contract),
        (ContractionEngine, "contract_batch", "postprocess.engine",
         None, _after_contract_batch),
        (Reconstructor, "reconstruct", "postprocess.reconstruct", None, None),
        (DynamicDefinitionQuery, "run", "postprocess.dd", None, _after_dd_run),
        (StreamingReconstructor, "top_k", "postprocess.stream",
         None, _after_top_k),
        (CutQC, "cut", "core.pipeline", None, None),
        (CutQC, "evaluate", "core.pipeline", None, None),
        (CutQC, "fd_query", "core.pipeline", None, None),
        (CutQC, "dd_query", "core.pipeline", None, None),
        (CutQC, "fd_top_k", "core.pipeline", None, None),
    ]


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so each import site gets patched,
    including modules that bind an entry point only when first used."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer) -> List[tuple]:
    """Patch every binding of every layer entry point; returns the undo log."""
    _import_all_repro_modules()
    undo: List[tuple] = []
    for owner, name, layer, before, after in _targets():
        original = vars(owner)[name]
        wrapped = tracer.wrap(original, layer, before, after)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
            undo.append((owner, name, original))
            continue
        # A module-level function: rebind it wherever it was imported.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapped)
                    undo.append((module, attribute, original))
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
