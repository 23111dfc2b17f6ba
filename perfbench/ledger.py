"""The traced solve and the per-layer ledger of the solve benchmark.

A traced solve runs the same pipeline as ``repro.core.solve(instance,
scheduler=make_scheduler("serial"))`` but calls each layer's public
function itself, inside a span:

    generators.build -> artifacts.fingerprint -> probability.compile ->
    core.fixer_init -> runtime.plan -> runtime.schedulers (execute, with
    core.vector.decide / core.commit child spans per color class) ->
    core.result -> lll.verify

Fingerprints and compiled kernels are memoised on the instance and its
events, so calling them before fixer init moves their cost into their
own spans instead of adding work.  ``decide_class``/``commit_class`` are
timed through :class:`TracedFixer`, a delegating wrapper handed to
``scheduler.execute``; the library itself is not patched.

Spans are kept in memory and written once, at the end of the run.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List

#: Timed layers in pipeline order.  ``runtime.schedulers`` is reported
#: as self time: execute minus its decide/commit child spans.
LAYERS = (
    "generators.build",
    "artifacts.fingerprint",
    "probability.compile",
    "core.fixer_init",
    "runtime.plan",
    "core.vector.decide",
    "core.commit",
    "runtime.schedulers",
    "core.result",
    "lll.verify",
)

#: Store tiers whose hit ratio is reported on its own.
TIERS = ("kernels", "templates", "plans", "parameters", "indexings")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def vmrss_mb() -> float:
    """Current resident set size of this process, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


def _metric_layer_name(layer: str) -> str:
    return "runtime.schedulers.self" if layer == "runtime.schedulers" else layer


def layer_metric_units() -> Dict[str, str]:
    """Every per-layer metric name, in ledger order, with its unit."""
    units = {}
    for layer in LAYERS:
        base = _metric_layer_name(layer)
        units[f"{base}_s"] = "s"
        units[f"{base}_rss_mb"] = "MB"
    for name in ("probability.kernel_compiles", "probability.kernel_reuses",
                 "runtime.plan.classes", "core.vector.fallbacks"):
        units[name] = "count"
    units["artifacts.hit_ratio"] = "ratio"
    for tier in TIERS:
        units[f"artifacts.{tier}.hit_ratio"] = "ratio"
    units["artifacts.evictions"] = "count"
    units["artifacts.retained_mb"] = "MB"
    units["python.gc_pause_s"] = "s"
    units["python.gc_gen2"] = "count"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class SpanRecorder:
    """In-memory spans with ``ru_maxrss`` and GC pauses attributed to each.

    A span is ``[solve, id, parent, name, start_ns, end_ns, rss_start_kb,
    rss_end_kb, gc_ns, gc_gen2]``; ``gc_ns`` and ``gc_gen2`` are the
    collector pause and the full collections that happened while the span
    was the innermost open one.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.solve = -1
        self._open: List[list] = []
        self._gc_start = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1][1] if self._open else None
        record = [self.solve, len(self.spans), parent, name,
                  time.perf_counter_ns(), 0, _maxrss_kb(), 0, 0, 0]
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record[7] = _maxrss_kb()
            record[5] = time.perf_counter_ns()

    # -- garbage-collector pauses --------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
            return
        if self._open:
            self._open[-1][8] += time.perf_counter_ns() - self._gc_start
            self._open[-1][9] += info["generation"] == 2

    def __enter__(self) -> "SpanRecorder":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("solve", "id", "parent", "name", "start_ns", "end_ns",
                "rss_start_kb", "rss_end_kb", "gc_ns", "gc_gen2")
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")


class TracedFixer:
    """Delegates to a fixer; times each class's decide and commit.

    ``fallbacks`` counts classes whose ``decide_class`` returned ``None``,
    which sends the scheduler to its per-op ``fix_variable`` loop.
    """

    def __init__(self, fixer, recorder: SpanRecorder) -> None:
        self._fixer = fixer
        self._recorder = recorder
        self.fallbacks = 0

    def decide_class(self, cells):
        with self._recorder.span("core.vector.decide"):
            choices = self._fixer.decide_class(cells)
        if choices is None:
            self.fallbacks += 1
        return choices

    def commit_class(self, cells, class_choices) -> None:
        with self._recorder.span("core.commit"):
            self._fixer.commit_class(cells, class_choices)

    def __getattr__(self, name):
        return getattr(self._fixer, name)


def traced_solve(build, recorder: SpanRecorder):
    """One solve through the traced pipeline.

    Returns ``(instance, result, verdict, counters)`` where ``counters``
    holds the solve's engine, store, plan and fallback counts.
    """
    from repro.artifacts import STORE, instance_fingerprint
    from repro.core import Rank2Fixer, Rank3Fixer
    from repro.lll import verify_solution
    from repro.probability import engine_stats
    from repro.runtime import make_scheduler, plan_for_instance

    engine_before = engine_stats()
    store_before = STORE.stats()
    span = recorder.span
    with span("generators.build"):
        instance = build()
    with span("artifacts.fingerprint"):
        instance_fingerprint(instance)
    with span("probability.compile"):
        for event in instance.events:
            event.compiled_kernel()
    with span("core.fixer_init"):
        fixer_type = Rank2Fixer if instance.rank <= 2 else Rank3Fixer
        fixer = fixer_type(instance)
    with span("runtime.plan"):
        plan = plan_for_instance(instance)
    traced = TracedFixer(fixer, recorder)
    with span("runtime.schedulers"):
        make_scheduler("serial").execute(traced, plan, instance)
    with span("core.result"):
        result = fixer.run(order=())
    with span("lll.verify"):
        verdict = verify_solution(instance, result.assignment)
    engine_after = engine_stats()
    counters = {
        "kernel_compiles": engine_after["kernel_compiles"]
        - engine_before["kernel_compiles"],
        "kernel_reuses": engine_after["kernel_reuses"]
        - engine_before["kernel_reuses"],
        "classes": plan.num_classes,
        "fallbacks": traced.fallbacks,
        "store": _store_delta(store_before, STORE.stats()),
    }
    return instance, result, verdict, counters


def _store_delta(before, after) -> Dict[str, Dict[str, int]]:
    delta = {}
    for name, stats in after.items():
        base = before.get(name, {})
        delta[name] = {
            key: stats[key] - base.get(key, 0)
            for key in ("hits", "misses", "evictions")
        }
    return delta


def _hit_ratio(tiers) -> float:
    hits = sum(t["hits"] for t in tiers)
    lookups = hits + sum(t["misses"] for t in tiers)
    return hits / lookups if lookups else 0.0


def ledger_metrics(
    recorder: SpanRecorder,
    solves: List[tuple],
    retained_mb: List[float],
    untraced_p50_s: float,
) -> Dict[str, float]:
    """Per-solve medians of every per-layer metric over a traced run.

    ``solves`` holds ``(solve id, wall seconds, cpu seconds, counters)``
    per completed solve; ``retained_mb`` is indexed by solve id.
    ``trace.coverage`` compares wall-clock spans with the solve's wall
    time; ``trace.overhead`` compares CPU medians, as ``untraced_p50_s`` is.
    """
    per_solve: Dict[str, List[float]] = {name: [] for name in layer_metric_units()}
    by_solve: Dict[int, List[list]] = {}
    for record in recorder.spans:
        by_solve.setdefault(record[0], []).append(record)
    for solve, wall, _, count in solves:
        spans = by_solve[solve]
        seconds = {layer: 0.0 for layer in LAYERS}
        rss = {layer: 0.0 for layer in LAYERS}
        top_level = 0.0
        gc_s = 0.0
        gc_gen2 = 0
        for record in spans:
            duration = (record[5] - record[4]) / 1e9
            growth = (record[7] - record[6]) / 1024.0
            seconds[record[3]] += duration
            rss[record[3]] += growth
            gc_s += record[8] / 1e9
            gc_gen2 += record[9]
            if record[2] is None:
                top_level += duration
        # Self time and self growth of execute: minus its child spans.
        for child in ("core.vector.decide", "core.commit"):
            seconds["runtime.schedulers"] -= seconds[child]
            rss["runtime.schedulers"] -= rss[child]
        for layer in LAYERS:
            base = _metric_layer_name(layer)
            per_solve[f"{base}_s"].append(seconds[layer])
            per_solve[f"{base}_rss_mb"].append(rss[layer])
        per_solve["probability.kernel_compiles"].append(count["kernel_compiles"])
        per_solve["probability.kernel_reuses"].append(count["kernel_reuses"])
        per_solve["runtime.plan.classes"].append(count["classes"])
        per_solve["core.vector.fallbacks"].append(count["fallbacks"])
        store = count["store"]
        per_solve["artifacts.hit_ratio"].append(_hit_ratio(store.values()))
        for tier in TIERS:
            tiers = [store[tier]] if tier in store else []
            per_solve[f"artifacts.{tier}.hit_ratio"].append(_hit_ratio(tiers))
        per_solve["artifacts.evictions"].append(
            sum(t["evictions"] for t in store.values())
        )
        per_solve["artifacts.retained_mb"].append(retained_mb[solve])
        per_solve["python.gc_pause_s"].append(gc_s)
        per_solve["python.gc_gen2"].append(gc_gen2)
        per_solve["trace.coverage"].append(top_level / wall)
    traced_p50_s = statistics.median(cpu for _, _, cpu, _ in solves)
    per_solve["trace.overhead"].append(traced_p50_s / untraced_p50_s - 1.0)
    return {name: statistics.median(values) for name, values in per_solve.items()}


def solve_digest(instance, result) -> str:
    """BLAKE2b over the assignment and certified bounds, in instance order."""
    from hashlib import blake2b

    hasher = blake2b(digest_size=16)
    values = result.assignment
    for variable in instance.variables:
        hasher.update(repr((variable.name, values.get(variable.name))).encode())
    bounds = result.certified_bounds
    for event in instance.events:
        bound = bounds.get(event.name)
        hasher.update(repr((event.name, None if bound is None else bound.hex())).encode())
    return hasher.hexdigest()
